"""Explicit growth solutions, level curves, and certified sub/supersolutions.

Every constructor here resolves the free constants of one analytic
comparison function (bump, plateau-cut, clamped growth, traveling power
profile, right-tail exponential), re-verifies the full inequality ledger
that makes it a sub- or supersolution, and packages the result with a
sampler of its smooth validity region so the discrete residual check can
stay away from the kinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (BlowUp, DomainError, InfeasibleSelection, RegimeMismatch)
from .model import (InitialData, ModelParams, default_reaction,
                    initial_data_build)
from .regimes import UPPER_REGIMES, Regime, classify, gamma_effective

__all__ = [
    "SubsolutionSpec", "Check",
    "growth_eval", "level_curve",
    "pme_bump_params", "fde_sub_params", "appendix_sub_params",
    "growth_super", "edge_clamp", "constant_speed_super", "right_tail_spec",
    "describe",
]


@dataclass(frozen=True)
class Check:
    """One verified inequality: margin >= 0 (or > 0 when strict)."""

    name: str
    margin: float
    strict: bool = False

    @property
    def ok(self) -> bool:
        return self.margin > 0.0 if self.strict else self.margin >= 0.0


@dataclass(frozen=True)
class SubsolutionSpec:
    """A resolved comparison function plus its inequality ledger.

    ``sign`` is -1 for subsolutions (residual must be <= 0) and +1 for
    supersolutions; ``reaction_free`` marks candidates certified against
    the pure diffusion equation (f = 0). ``sampler()`` returns aligned
    (t, x) arrays inside the smooth validity region, with margins around
    kinks.

    ``evaluate(t, x)`` takes float arrays t and x that broadcast together
    (aligned arrays of one shape in the sampled residual check, which makes
    one call per stencil offset) and returns the candidate on their
    broadcast shape, each value depending on its own (t, x) alone.
    """

    kind: str
    constants: dict
    checks: tuple
    evaluate: Callable
    sampler: Callable
    sign: int = -1
    reaction_free: bool = False

    def __call__(self, t, x):
        return self.evaluate(t, x)


def _enforce(kind: str, checks) -> tuple:
    checks = tuple(checks)
    for ch in checks:
        if not ch.ok:
            raise InfeasibleSelection(
                f"{kind}: {ch.name} fails (margin {ch.margin:.6g})")
    return checks


def _epsilon(kind: str, params: ModelParams, epsilon: float) -> float:
    # the one refusal of an epsilon outside (0, r), named for the kind
    eps = float(epsilon)
    if not 0.0 < eps < params.r:
        raise InfeasibleSelection(f"{kind}: need 0 < epsilon < r")
    return eps


def _in_range(what: str, compute: Callable[[], float]) -> float:
    # compute() on Python floats, refused by name once it leaves the float
    # range: a power that overflows raises OverflowError, one that underflows
    # to 0 and then divides raises ZeroDivisionError, and a product or
    # quotient that overflows is inf
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not abs(value) < math.inf:
        raise InfeasibleSelection(f"{what} is out of float range")
    return value


def _scan(pred, start: float, factor: float, tries: int,
          message: str) -> float:
    # the first of start, start*factor, ... (tries values) that pred accepts
    x = float(start)
    for _ in range(tries):
        if pred(x):
            return x
        x *= factor
    raise InfeasibleSelection(message)


def _grow_until(pred, start: float, label: str) -> float:
    # doubling search, then log-bisection down to ~3 significant digits;
    # start itself, when accepted, is not bisected
    hi = _scan(pred, start, 2.0, 71, f"no finite choice satisfies {label}")
    lo = max(float(start), hi / 2.0)
    while hi / lo > 1.002:
        mid = math.sqrt(lo * hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _rho(kind: str, r: float, eps: float, beta: float, eta: float) -> float:
    # the midpoint of (max(r beta/(1+eta), r-eps), r), refused unless r-rho,
    # rho-r beta/(1+eta) and rho(1+eta)-r beta are positive in floats; the
    # last can round to 0 when the interval is a few ulps wide
    lo = max(r * beta / (1.0 + eta), r - eps)
    rho = 0.5 * (lo + r)
    if not (lo < rho < r and rho * (1.0 + eta) > r * beta):
        raise InfeasibleSelection(
            f"{kind}: the rho interval (max(r beta/(1+eta), r-epsilon), r) "
            f"is too narrow for floats")
    return rho


def _rho_checks(r: float, eps: float, beta: float, eta: float,
                rho: float) -> tuple:
    return (Check("rho above max(r beta/(1+eta), r-eps)",
                  rho - max(r * beta / (1.0 + eta), r - eps), strict=True),
            Check("rho < r", r - rho, strict=True))


def _plateau_A(kappa: float, eta: float, s0: float) -> float:
    # twice the largest of the three lower bounds on A of a plateau cut
    return _in_range(f"plateau cut: A at kappa {kappa:.6g}, eta {eta:.6g}",
                     lambda: 2.0 * max(
                         1.0, 1.0 / (kappa ** eta * (1.0 + eta)),
                         (eta / (s0 * (1.0 + eta))) ** eta / (1.0 + eta)))


def _enlarge_tail(ok, C: float, x0: float, a: float, onset_margin: float,
                  critical: bool, message: str) -> tuple:
    # keep the datum onset C/x0^a below 1: x0 moves to 2 C^(1/a) unless the
    # onset lies below onset_margin^a already. Then scale x0 (and C on a
    # critical curve, where the x0-exponents vanish) by 2^k until ok(C, x0)
    onset_x = _in_range(f"the tail onset C^(1/a) at C {C:.6g}, a {a:.6g}",
                        lambda: C ** (1.0 / a))
    if onset_x >= onset_margin * x0:
        x0 = 2.0 * onset_x
    k = _scan(lambda k: ok(C * k if critical else C, x0 * k), 1.0, 2.0, 200,
              message)
    return (C * k if critical else C), x0 * k


def _slow_tail_terms(m: float, alpha: float, beta: float, C: float,
                     x: float) -> tuple:
    # m|phi'| and phi^2 on [x, inf) for the tail C/x^alpha, m >= 1, where
    # phi = alpha / (C^(beta-1) x^(1 - alpha (beta-1)))
    ab1 = alpha * (beta - 1.0)
    slope = m * alpha * (1.0 - ab1) / (C ** (beta - 1.0) * x ** (2.0 - ab1))
    phi2 = (alpha / (C ** (beta - 1.0) * x ** (1.0 - ab1))) ** 2
    return slope, phi2


def _fast_tail_first(m: float, g: float, beta: float, C: float,
                     x: float) -> float:
    # the first tail estimate on [x, inf) for the tail C/x^g, m < 1
    return (m * g * C ** (m - beta) * (g + 1.0 - g * beta)
            / x ** (2.0 + (m - beta) * g))


def _samples(pieces) -> tuple:
    # aligned (t, x) sample arrays from (t, x) pieces, each an array and a
    # number; np.full_like, as np.broadcast_arrays costs ~10 us a call
    ts, xs = [], []
    for t, x in pieces:
        if np.ndim(t):
            x = np.full_like(t, x)
        else:
            t = np.full_like(x, t)
        ts.append(t)
        xs.append(x)
    return np.concatenate(ts), np.concatenate(xs)


# ---------------------------------------------------------------------------
# growth solutions and level curves

def growth_eval(u0: Callable, rho: float, beta: float, t, x):
    """w(t,x) of dw/dt = rho*w^beta, w(0,.) = u0, pointwise in x:
    exponential growth (beta=1) or finite-time blow-up (beta>1).

    t is a number or an array broadcast against x. Past blow-up at any
    evaluated point, BlowUp carries the earliest blow-up time over all of
    them.
    """
    u = np.asarray(u0(x), dtype=float)
    t = np.asarray(t, dtype=float)
    if beta == 1.0:
        out = u * np.exp(rho * t)
    else:
        bm1 = beta - 1.0
        base = u ** (-bm1) - rho * bm1 * t
        if np.any(base <= 0.0):
            t_min = float(np.min(u ** (-bm1))) / (rho * bm1)
            raise BlowUp(f"growth solution past blow-up (T={t_min:.6g})",
                         t_blow=t_min)
        out = base ** (-1.0 / bm1)
    return float(out) if out.ndim == 0 else out


def level_curve(theta: float, t, C: float, alpha: float, beta: float,
                rho: float):
    """The abscissa y_theta(t) where the tail-datum growth solution equals
    theta; a curve past the float range is an InfeasibleSelection."""
    if not 0.0 < theta < C:
        raise DomainError("need 0 < theta < C")
    if not (alpha > 0 and math.isfinite(alpha)):
        raise DomainError("level curve needs a finite positive alpha")
    if not rho > 0:
        raise DomainError("rho must be positive")
    ta = np.asarray(t, dtype=float)
    if np.any(ta < 0.0):
        raise DomainError("t must be nonnegative")
    bm1 = beta - 1.0

    def curve(tv, exp):
        if beta == 1.0:
            return (C / theta) ** (1.0 / alpha) * exp(rho * tv / alpha)
        return ((C / theta) ** bm1
                + rho * C ** bm1 * bm1 * tv) ** (1.0 / (alpha * bm1))

    # the curve grows with t, so its value at the latest t, taken on Python
    # floats, which raise or give inf where numpy would warn, bounds the rest
    t_top = float(ta.max(initial=0.0))
    _in_range(f"level curve y_theta(t) at t {t_top:.6g} (theta {theta:.6g}, "
              f"alpha {alpha:.6g}, beta {beta:.6g})",
              lambda: curve(t_top, math.exp))
    out = np.asarray(curve(ta, np.exp))
    return float(out) if out.ndim == 0 else out


def _time_to_reach(u_from: float, w_to: float, rho: float, beta: float) -> float:
    if w_to <= u_from:
        return 0.0
    if beta == 1.0:
        return math.log(w_to / u_from) / rho
    bm1 = beta - 1.0
    return (u_from ** (-bm1) - w_to ** (-bm1)) / (rho * bm1)


# ---------------------------------------------------------------------------
# accelerating bump subsolution (slow diffusion, m > 1)

def pme_bump_params(params: ModelParams, epsilon: float) -> SubsolutionSpec:
    """Resolve the bump subsolution max(0, w - A w^(1+eta)) for m > 1.

    Free constants are selected deterministically (eta = 1.5*max(beta-1,1),
    rho at its interval midpoint, x1 by doubling-and-bisection on the two
    tail estimates, A at twice its lower bound); all defining inequalities
    are then re-verified.
    """
    m, alpha, beta = params.m, params.alpha, params.beta
    r = params.r
    if not (m > 1.0 and math.isfinite(alpha)):
        raise RegimeMismatch("bump subsolution needs m > 1 and a finite tail")
    if beta > 1.0 and not beta < 1.0 + 1.0 / alpha:
        raise RegimeMismatch("bump subsolution needs beta < 1 + 1/alpha")
    eps = _epsilon("bump subsolution", params, epsilon)
    u0 = initial_data_build(params.C, alpha, params.x0, plateau=1.0)
    C = u0.C
    eta = 1.5 * max(beta - 1.0, 1.0)
    rho = _rho("bump subsolution", r, eps, beta, eta)

    # alpha (beta-1) < 1 in this regime
    def slope_term(x):
        return _slow_tail_terms(m, alpha, beta, C, x)[0]

    def curv_term(x):
        slope, phi2 = _slow_tail_terms(m, alpha, beta, C, x)
        return slope + m * (2.0 * m + beta + eta - 1.0) * phi2

    rhs_slope = r - rho
    rhs_curv = rho - r * beta / (1.0 + eta)
    x1 = _grow_until(
        lambda x: slope_term(x) <= rhs_slope and curv_term(x) <= rhs_curv,
        start=2.0 * u0.x0, label="the tail slope/curvature estimates")
    kappa = min(u0.plateau, float(u0(x1)))
    A = _in_range(f"bump subsolution: A at kappa {kappa:.6g}, eta {eta:.6g}",
                  lambda: 2.0 * max(kappa ** (-eta),
                                    (eta / (params.s0 * (1.0 + eta))) ** eta
                                    / (1.0 + eta)))
    bump_max = (eta / (1.0 + eta)) * (A * (1.0 + eta)) ** (-1.0 / eta)

    checks = _enforce("bump subsolution", (
        Check("epsilon < r", r - eps, strict=True),
        Check("beta < 1 + eta", 1.0 + eta - beta, strict=True),
        *_rho_checks(r, eps, beta, eta, rho),
        Check("x1 beyond the tail onset", x1 - u0.x0, strict=True),
        Check("m|phi'| <= r - rho on [x1, inf)", rhs_slope - slope_term(x1)),
        Check("m|phi'| + m(2m+beta+eta-1)phi^2 <= rho - r beta/(1+eta)",
              rhs_curv - curv_term(x1)),
        Check("A kappa^eta > 1", A * kappa ** eta - 1.0, strict=True),
        Check("bump maximum <= s0", params.s0 - bump_max),
    ))

    cut = A ** (-1.0 / eta)

    def evaluate(t, x):
        w = growth_eval(u0, rho, beta, t, x)
        return np.maximum(0.0, w - A * w ** (1.0 + eta))

    def sampler():
        x_lo = max(_in_range("bump subsolution: the sampled abscissa "
                             "(C/(0.45 cut))^(1/alpha)",
                             lambda: (C / (0.45 * cut)) ** (1.0 / alpha)),
                   1.1 * x1)
        pieces = []
        for x in np.geomspace(x_lo, 3.0 * x_lo, 32):
            u_here = C / x ** alpha
            t_hi = _time_to_reach(u_here, 0.9 * cut, rho, beta)
            pieces.append((np.linspace(0.01, max(t_hi, 0.02), 8), x))
        return _samples(pieces)

    constants = {"eta": eta, "rho": rho, "x1": x1, "kappa": kappa, "A": A,
                 "cut": cut, "bump_max": bump_max, "epsilon": eps,
                 "C": C, "tail_exponent": alpha}
    return SubsolutionSpec(kind="pme-bump", constants=constants,
                           checks=checks, evaluate=evaluate, sampler=sampler,
                           sign=-1)


# ---------------------------------------------------------------------------
# accelerating plateau-cut subsolution (fast diffusion)

def _plateau_cut_spec(datum: InitialData, tail_C: float, tail_exp: float,
                      beta: float, rho: float, eta: float, A: float,
                      t_floor: float) -> tuple:
    # shared machinery for the two plateau-cut constructions: the junction
    # X(t) sits at the maximizer of w -> w(1 - A w^eta)
    theta_star = (A * (1.0 + eta)) ** (-1.0 / eta)
    plateau_val = theta_star * eta / (1.0 + eta)

    def X_of_t(t):
        return level_curve(theta_star, np.maximum(t, 0.0), tail_C, tail_exp,
                           beta, rho)

    def evaluate(t, x):
        t, x = np.broadcast_arrays(t, x)
        out = np.full(x.shape, plateau_val)
        mask = x > X_of_t(t)
        if mask.any():
            w = growth_eval(datum, rho, beta, t[mask], x[mask])
            out[mask] = w * (1.0 - A * w ** eta)
        return out

    def sampler():
        pieces = []
        for t in np.linspace(t_floor + 0.5, t_floor + 4.0, 6):
            Xt = X_of_t(t)
            pieces.append((t, np.linspace(0.4 * Xt, 0.93 * Xt, 8)))
            pieces.append((t, np.geomspace(1.07 * Xt, 6.0 * Xt, 32)))
        return _samples(pieces)

    return theta_star, plateau_val, evaluate, sampler


def fde_sub_params(params: ModelParams, epsilon: float) -> SubsolutionSpec:
    """Resolve the plateau-cut subsolution for fast diffusion.

    The datum has the effective tail exponent gamma = min(alpha, 2/(1-m));
    x0 is enlarged by doubling until the three tail estimates hold. In the
    critical combination beta = 1, gamma = 2/(1-m) the x0-exponents vanish,
    so the tail constant C is doubled along with x0 instead.
    """
    m, beta, r = params.m, params.beta, params.r
    if not 0.0 < m < 1.0:
        raise RegimeMismatch("plateau-cut subsolution needs 0 < m < 1")
    gamma = gamma_effective(m, params.alpha)
    sat = 2.0 / (1.0 - m)
    critical = (beta == 1.0 and gamma == sat)
    if not (beta < min(1.0 + 1.0 / gamma, m + 2.0 / gamma) or critical):
        raise RegimeMismatch(
            "plateau-cut subsolution needs beta < min(1+1/gamma, m+2/gamma)")
    eps = _epsilon("plateau-cut subsolution", params, epsilon)
    eta = max(beta - 1.0, 1.0) + 0.5
    rho = _rho("plateau-cut subsolution", r, eps, beta, eta)

    theta_coef = 2.0 * m + beta + eta - 1.0 + (1.0 - m) * 2.0 * eta / (1.0 + eta)
    pow_x = 2.0 + (m - beta) * gamma          # >= 0 in this regime
    pow_x3 = 2.0 + 2.0 * gamma * (1.0 - beta)  # > 0 in this regime

    def lhs1(Cv, xv):
        return _fast_tail_first(m, gamma, beta, Cv, xv)

    def lhs2(Cv, xv):
        return (2.0 ** (1.0 - m) * m * eta
                * (gamma * Cv ** (m - beta) / xv ** pow_x)
                * (2.0 * m * gamma + 1.0 + gamma * eta
                   + 2.0 * (1.0 - m) * (eta / (1.0 + eta)) * gamma))

    def lhs3(Cv, xv):
        return (2.0 ** (1.0 - m) * m * eta
                * ((gamma * Cv ** (m - beta) / xv ** pow_x)
                   * (gamma + 1.0 - gamma * beta)
                   + theta_coef * gamma ** 2 * Cv ** (2.0 - 2.0 * beta)
                   / xv ** pow_x3))

    rhs1 = r - rho
    rhs23 = rho * (1.0 + eta) - r * beta

    def tails_ok(Cv, xv):
        return (lhs1(Cv, xv) <= rhs1 and lhs2(Cv, xv) <= rhs23
                and lhs3(Cv, xv) <= rhs23)

    C_eff, x0_eff = _enlarge_tail(
        tails_ok, params.C, params.x0, gamma, 1.0, critical,
        "plateau-cut subsolution: tail estimates never satisfied")

    datum = initial_data_build(C_eff, gamma, x0_eff, plateau=1.0)
    kappa = min(datum.plateau, float(datum(x0_eff)))
    A = _plateau_A(kappa, eta, params.s0)
    theta_star, plateau_val, evaluate, sampler = _plateau_cut_spec(
        datum, C_eff, gamma, beta, rho, eta, A, t_floor=0.0)

    checks = _enforce("plateau-cut subsolution", (
        Check("epsilon < r", r - eps, strict=True),
        Check("eta > beta - 1", eta - (beta - 1.0), strict=True),
        Check("eta > 1", eta - 1.0, strict=True),
        *_rho_checks(r, eps, beta, eta, rho),
        Check("first tail estimate at x0", rhs1 - lhs1(C_eff, x0_eff)),
        Check("second tail estimate at x0", rhs23 - lhs2(C_eff, x0_eff)),
        Check("third tail estimate at x0", rhs23 - lhs3(C_eff, x0_eff)),
        Check("A > 1", A - 1.0, strict=True),
        Check("A kappa^eta (1+eta) > 1",
              A * kappa ** eta * (1.0 + eta) - 1.0, strict=True),
        Check("plateau value <= s0", params.s0 - plateau_val),
        Check("datum onset <= 1", 1.0 - kappa),
    ))

    constants = {"eta": eta, "rho": rho, "A": A, "x0": x0_eff, "C": C_eff,
                 "gamma": gamma, "kappa": kappa, "theta_star": theta_star,
                 "plateau_value": plateau_val, "epsilon": eps,
                 "critical_kpp": critical}
    return SubsolutionSpec(kind="fde-plateau", constants=constants,
                           checks=checks, evaluate=evaluate, sampler=sampler,
                           sign=-1)


# ---------------------------------------------------------------------------
# generalized plateau-cut subsolution (fast diffusion, strong Allee effect)

def appendix_sub_params(params: ModelParams,
                        epsilon: float) -> SubsolutionSpec:
    """Resolve the generalized plateau-cut subsolution (eta > beta+2 regime).

    Built on the scaled datum ((C-eps)/C)*u0; valid for t >= T. The shift X
    makes u0(.-X) dominate v(T,.), which is verified on a dense grid.
    """
    m, alpha, beta, r, C = params.m, params.alpha, params.beta, params.r, params.C
    if not 0.0 < m < 1.0:
        raise RegimeMismatch("generalized subsolution needs 0 < m < 1")
    if not (1.0 / (1.0 - m) < alpha <= 2.0 / (1.0 - m)):
        raise RegimeMismatch(
            "generalized subsolution needs 1/(1-m) < alpha <= 2/(1-m)")
    if not (beta > 1.0 and m + 2.0 / alpha <= beta < 1.0 + 1.0 / alpha):
        raise RegimeMismatch(
            "generalized subsolution needs m+2/alpha <= beta < 1+1/alpha")
    eps = _epsilon("generalized subsolution", params, epsilon)
    if not eps < C:
        raise InfeasibleSelection(
            "generalized subsolution: need epsilon < C (scaled datum)")
    eta = beta + 2.5
    rho = _rho("generalized subsolution", r, eps, beta, eta)

    Ce = C - eps
    x0 = params.x0
    # scaled datum tail Ce/x^alpha; onset below 1 since C/x0^alpha <= 1
    datum = initial_data_build(Ce, alpha, x0, plateau=1.0)
    base_u0 = initial_data_build(C, alpha, x0, plateau=1.0)
    kappa = min(datum.plateau, float(datum(x0)))
    A = _plateau_A(kappa, eta, params.s0)
    theta_star = (A * (1.0 + eta)) ** (-1.0 / eta)

    def delta2_lhs(d):
        q = A * d ** eta / (1.0 - A * d ** eta)
        return q * (2.0 * m * eta + eta * (beta + eta - 1.0)
                    + (1.0 - m) * A * eta ** 2 * d ** eta
                    / (1.0 - A * d ** eta))

    delta = _scan(lambda d: delta2_lhs(d) < m + beta - 1.0, 0.5 * theta_star,
                  0.5, 90, "no positive choice satisfies the small-w "
                  "curvature condition")

    # time threshold: the tail-slope estimate must hold for all x >= X(T)
    phi_pow2 = 2.0 * (alpha + 1.0 - alpha * beta)   # > 0 here
    phi_pow1 = alpha + 2.0 - alpha * beta           # > 0 here

    def phi2(x):
        return alpha ** 2 / (Ce ** (2.0 * beta - 2.0) * x ** phi_pow2)

    def phip(x):
        return (alpha * (alpha + 1.0 - alpha * beta)
                / (Ce ** (beta - 1.0) * x ** phi_pow1))

    def slope_lhs(x):
        return (phi2(x) * A ** (-(m + beta - 2.0) / eta)
                * (2.0 * m + beta + eta - 1.0 + 2.0 * (1.0 - m) * eta)
                + phip(x) * A ** (-(m - 1.0) / eta))

    rhs_T = (r - rho) / (2.0 ** (1.0 - m) * m * eta)

    def X_level(t):
        return level_curve(theta_star, t, Ce, alpha, beta, rho)

    T = _grow_until(lambda t: slope_lhs(X_level(t)) <= rhs_T,
                    start=1.0, label="the tail-slope time threshold")

    _, plateau_val, evaluate, sampler = _plateau_cut_spec(
        datum, Ce, alpha, beta, rho, eta, A, t_floor=T)

    # spatial shift: u0(. - X) >= v(T, .)
    def tail_dominated(xp):
        grid = np.geomspace(xp, 100.0 * xp, 160)
        v_vals = evaluate(T, grid)
        return bool(np.all(v_vals * grid ** alpha <= C))

    X_prime = _grow_until(tail_dominated, start=max(2.0 * x0, X_level(T)),
                          label="the tail domination abscissa")
    X = X_prime - x0
    order_grid = np.linspace(-X, 10.0 * X_prime, 3000)
    order_margin = float(np.min(np.asarray(base_u0(order_grid - X))
                                - evaluate(T, order_grid)))

    checks = _enforce("generalized subsolution", (
        Check("epsilon < r", r - eps, strict=True),
        Check("epsilon < C", C - eps, strict=True),
        Check("eta > beta + 2", eta - (beta + 2.0), strict=True),
        *_rho_checks(r, eps, beta, eta, rho),
        Check("A > 1", A - 1.0, strict=True),
        Check("A kappa^eta (1+eta) > 1",
              A * kappa ** eta * (1.0 + eta) - 1.0, strict=True),
        Check("plateau value <= s0", params.s0 - plateau_val),
        Check("delta below the junction level", theta_star - delta,
              strict=True),
        Check("small-w curvature condition",
              (m + beta - 1.0) - delta2_lhs(delta), strict=True),
        Check("tail-slope estimate at X(T)", rhs_T - slope_lhs(X_level(T))),
        Check("initial ordering u0(.-X) >= v(T,.)", order_margin + 1e-12),
    ))

    constants = {"eta": eta, "rho": rho, "A": A, "delta": delta, "T": T,
                 "X": X, "X_prime": X_prime, "kappa": kappa,
                 "theta_star": theta_star, "plateau_value": plateau_val,
                 "epsilon": eps, "C_scaled": Ce, "tail_exponent": alpha}
    return SubsolutionSpec(kind="appendix", constants=constants,
                           checks=checks, evaluate=evaluate, sampler=sampler,
                           sign=-1)


# ---------------------------------------------------------------------------
# clamped growth supersolution

def _tail_exponent(params: ModelParams, kind, eps: float) -> float:
    # a of the supersolution's tail C_bar/x^a: 2/(beta-m+eps) in the
    # lower-only regime, else the effective tail exponent
    if kind.regime is Regime.POLY_LOWER_ONLY:
        return 2.0 / (params.beta - params.m + eps)
    return gamma_effective(params.m, params.alpha)


def growth_super(params: ModelParams, epsilon: float) -> SubsolutionSpec:
    """Resolve the supersolution min(1, w) with rho = r_bar + eps/2.

    w grows pointwise from the dominating datum 1 for x <= x0 and
    C_bar/x^a beyond, with a = alpha (m >= 1), a = min(alpha, 2/(1-m))
    (m < 1), or a = 2/(beta-m+eps) in the lower-only regime, so the clamp
    sits above every admissible datum from t = 0 on. x0 is enlarged until
    the tail curvature terms fall below eps/2 (m >= 1) or eps/4 (m < 1);
    in the critical combination beta = 1, gamma = 2/(1-m) the constant
    C_bar grows too.
    """
    m, alpha, beta = params.m, params.alpha, params.beta
    eps = _epsilon("clamped growth", params, epsilon)
    kind = classify(m, alpha, beta)
    if kind.regime not in UPPER_REGIMES:
        raise RegimeMismatch(
            "clamped growth supersolution needs a regime with an upper envelope")
    rho = params.r_bar + 0.5 * eps
    a_eff = _tail_exponent(params, kind, eps)
    critical = m < 1.0 and beta == 1.0 and alpha > 2.0 / (1.0 - m)

    if m >= 1.0:
        def tail_lhs(Cv, xv):
            phi_p, phi_2 = _slow_tail_terms(m, alpha, beta, Cv, xv)
            return phi_p + m * (m + beta - 1.0) * phi_2

        rhs = 0.5 * eps
    else:
        g = a_eff
        pow_a = 2.0 + (m - beta) * g
        pow_c = 2.0 * g * (1.0 - beta) + 2.0

        def tail_lhs(Cv, xv):
            t1 = _fast_tail_first(m, g, beta, Cv, xv)
            t2 = (m * (m + beta - 1.0) * g ** 2 * Cv ** (m - beta)
                  / xv ** pow_a)
            t3 = (m * (m + beta - 1.0) * g ** 2 * Cv ** (2.0 - 2.0 * beta)
                  / xv ** pow_c)
            return max(t1, t2) if beta <= 2.0 - m else max(t1, t3)

        rhs = 0.25 * eps

    C_eff, x0_eff = _enlarge_tail(
        lambda Cv, xv: tail_lhs(Cv, xv) <= rhs, params.C_bar, params.x0,
        a_eff, 0.99, critical,
        "clamped growth: tail curvature bound never satisfied")
    onset = _in_range(f"clamped growth: the datum onset C/x0^a at x0 "
                      f"{x0_eff:.6g}, a {a_eff:.6g}",
                      lambda: C_eff / x0_eff ** a_eff)

    checks = _enforce("clamped growth supersolution", (
        Check("epsilon < r", params.r - eps, strict=True),
        Check("tail curvature bound at x0", rhs - tail_lhs(C_eff, x0_eff)),
        Check("datum onset < 1", 1.0 - onset, strict=True),
    ))

    bm1 = beta - 1.0

    def evaluate(t, x):
        tail = C_eff * np.maximum(x, 1.0) ** (-a_eff)
        u = np.where(x <= x0_eff, 1.0, tail)
        if beta == 1.0:
            w = u * np.exp(rho * t)
        else:
            if not u.all():
                raise DomainError(
                    f"clamped growth: the tail C/x^a underflows to 0 at x "
                    f"{float(x[u == 0.0].min()):.6g} (a {a_eff:.6g})")
            base = u ** (-bm1) - rho * bm1 * t
            w = np.where(base > 0.0, base, 1.0) ** (-1.0 / bm1)
            w = np.where(base > 0.0, w, 2.0)  # past blow-up: clamp wins
        return np.minimum(1.0, w)

    def sampler():
        pieces = []
        theta = min(0.9, 0.9 * onset)
        for t in np.linspace(0.5, 5.0, 6):
            lead = level_curve(theta, t, C_eff, a_eff, beta, rho)
            pieces.append((t, np.geomspace(max(1.05 * x0_eff, lead),
                                           6.0 * max(1.05 * x0_eff, lead),
                                           32)))
        # the clamped plateau behind the onset stays pinned at 1
        pieces.append((0.5, np.linspace(0.2 * x0_eff, 0.9 * x0_eff, 8)))
        return _samples(pieces)

    constants = {"rho": rho, "x0": x0_eff, "C": C_eff,
                 "tail_exponent": a_eff, "epsilon": eps,
                 "critical_kpp": critical}
    return SubsolutionSpec(kind="growth-super", constants=constants,
                           checks=checks, evaluate=evaluate, sampler=sampler,
                           sign=+1)


def edge_clamp(params: ModelParams, kind,
               x_right: float) -> Optional[Callable]:
    """t -> min(1, w(t, x_right)) of the growth supersolution, the value
    the solver's analytic-clamp edge holds; None without an upper envelope.

    w grows the bare tail value C_bar/x_right^a (cut at 0.5, not enlarged)
    at the rate r_bar + eps/2, eps = 0.1 r, so the edge value stays tight.
    An x_right that is not positive and finite is a DomainError.
    """
    if kind.regime not in UPPER_REGIMES:
        return None
    if not 0.0 < x_right < math.inf:
        raise DomainError(f"x_right must be positive and finite, got "
                          f"{x_right:.6g}")
    eps = 0.1 * params.r
    a = _tail_exponent(params, kind, eps)
    try:
        v0 = min(params.C_bar / x_right ** a, 0.5)
    except (OverflowError, ZeroDivisionError):
        # x_right^a past the float range either way: no edge value to hold
        raise DomainError(f"the edge value C_bar/x_right^a is out of float "
                          f"range at x_right {x_right:.6g} with tail "
                          f"exponent a {a:.6g}") from None
    rho = params.r_bar + 0.5 * eps
    beta = params.beta

    # Python floats, not numpy arrays: numpy's pow and exp can round the
    # last bit differently, and the edge value enters every step of a run
    def clamp(t: float) -> float:
        if beta == 1.0:
            return min(1.0, v0 * math.exp(rho * t))
        base = v0 ** (1.0 - beta) - rho * (beta - 1.0) * t
        return 1.0 if base <= 0.0 else min(1.0, base ** (-1.0 / (beta - 1.0)))
    return clamp


# ---------------------------------------------------------------------------
# constant-speed power-tail supersolution (no-acceleration regime)

def constant_speed_super(params: ModelParams) -> SubsolutionSpec:
    """Resolve the traveling supersolution min(1, K/z^p), z = x - shift - c t.

    p = 1/(beta-1), K = max(1, C_bar). The speed c is doubled from twice
    the base bound r_bar (beta-1) K^(beta-1) until both the far-field and
    the compact-region residual bounds hold.
    """
    m, alpha, beta = params.m, params.alpha, params.beta
    kind = classify(m, alpha, beta)
    if kind.regime is not Regime.NO_ACCELERATION:
        raise RegimeMismatch(
            "constant-speed supersolution needs the no-acceleration regime")
    if not beta > 1.0:
        raise RegimeMismatch("constant-speed supersolution needs beta > 1")
    r_bar = params.r_bar
    p = 1.0 / (beta - 1.0)
    K = max(1.0, params.C_bar)
    what = "constant-speed supersolution: "
    z0 = _in_range(what + "z0 = K^(beta-1)", lambda: K ** (1.0 / p))
    z1 = _in_range(what + "z1 = (K/s0)^(beta-1)",
                   lambda: (K / params.s0) ** (1.0 / p))
    mp = m * p
    gap = mp + 1.0 - p  # >= 0 off the beta = 2-m boundary
    sup_f = r_bar      # f <= r_bar s^beta <= r_bar on [0,1]
    num = K ** m * mp * (mp + 1.0)
    base = r_bar * (beta - 1.0) * K ** (beta - 1.0)

    def z_far(cv):
        den = cv * K * p - r_bar * K ** beta
        if den <= 0.0:
            return None
        if gap > 0.0:
            return max(z1, (num / den) ** (1.0 / gap))
        return z1 if num <= den else None

    z0_pow = _in_range(what + "z0^(mp+2)", lambda: z0 ** (mp + 2.0))

    def both_bounds(cv):
        z2v = z_far(cv)
        if z2v is None:
            return False
        z2_pow = _in_range(what + "z2^(p+1)", lambda: z2v ** (p + 1.0))
        return num / z0_pow - cv * K * p / z2_pow + sup_f <= 0.0

    c = _scan(both_bounds, 2.0 * base, 2.0, 80,
              what + "no speed satisfies both bounds")
    z2 = z_far(c)

    # true residual (w^m)'' + c w' + f(w) on the advertised z-grid, whose
    # nodes are >= z0 >= 1, so its largest power is at its right end
    _in_range(what + "the residual grid's (10 z2)^max(p+1, mp+2)",
              lambda: (10.0 * z2) ** max(p + 1.0, mp + 2.0))
    zg = np.geomspace(z0, 10.0 * z2, 2000)
    # w can round one ulp above 1 at z0, past reaction_eval's domain check
    w = K / zg ** p
    resid = (num / zg ** (mp + 2.0) - c * K * p / zg ** (p + 1.0)
             + default_reaction(params)(w))
    resid_max = float(resid.max())

    checks = _enforce("constant-speed supersolution", (
        Check("c above base bound r_bar (beta-1) K^(beta-1)", c - base,
              strict=True),
        Check("exponent ordering p+1 <= mp+2", gap),
        Check("far-field threshold finite", z2 - z1),
        Check("compact-region bound",
              -(num / z0_pow - c * K * p / z2 ** (p + 1.0) + sup_f)),
        Check("residual sign on [z0, 10 z2]", 1e-12 - resid_max),
    ))

    shift = params.x0 - 1.0

    def evaluate(t, x):
        z = x - shift - c * t
        return np.where(z <= z0, 1.0, K / np.maximum(z, z0) ** p)

    def sampler():
        pieces = []
        for t in np.linspace(0.5, 5.0, 6):
            z = np.geomspace(1.1 * z0, 10.0 * z2, 40)
            pieces.append((t, z + shift + c * t))
        return _samples(pieces)

    constants = {"K": K, "p": p, "c": c, "z0": z0, "z1": z1, "z2": z2,
                 "shift": shift, "residual_max": resid_max}
    return SubsolutionSpec(kind="const-super", constants=constants,
                           checks=checks, evaluate=evaluate, sampler=sampler,
                           sign=+1)


# ---------------------------------------------------------------------------
# right-tail decay supersolution (pure diffusion)

def _right_tail_positivity(eps: float, mu: float, m: float) -> float:
    # min over [eps, 1) of the factor; a term past the float range makes it
    # -inf or NaN, with no warning, and so fails every lower bound
    w = np.linspace(eps, 1.0, 4096, endpoint=False)
    with np.errstate(over="ignore", invalid="ignore"):
        h = (1.0 - mu * m * w ** (m - 1.0)
             - mu * m * (m - 1.0) * (w - eps) * w ** (m - 2.0))
    return float(h.min())


def right_tail_spec(params: ModelParams, eps: float = 0.1) -> SubsolutionSpec:
    """Package the right-tail supersolution with a certified rate mu."""
    m = params.m
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0,1)")
    margins = []

    def positive(v):
        margins.append(_right_tail_positivity(eps, v, m))
        return margins[-1] >= 1e-9

    try:
        mu = _scan(positive, 1.0, 0.5, 90, "no positive choice satisfies the "
                   "right-tail positivity condition")
    except InfeasibleSelection:
        # named for the float range when even the smallest mu left it
        _in_range("right-tail supersolution: the positivity factor at the "
                  "smallest mu tried", lambda: margins[-1])
        raise
    margin = margins[-1]
    checks = _enforce("right-tail supersolution", (
        Check("eps in (0,1)", min(eps, 1.0 - eps), strict=True),
        Check("positivity factor on [eps, 1)", margin),
    ))
    x0 = params.x0

    def evaluate(t, x):
        return np.minimum(1.0, eps + np.exp(-mu * (x - x0 - t)))

    def sampler():
        xi_min = -math.log(1.0 - eps) / mu
        pieces = []
        for t in np.linspace(0.5, 3.0, 6):
            xi = np.linspace(1.5 * xi_min + 0.5, xi_min + 20.0 / mu, 40)
            pieces.append((t, x0 + t + xi))
        return _samples(pieces)

    constants = {"eps": eps, "mu": mu, "x0": x0, "positivity_min": margin}
    return SubsolutionSpec(kind="right-tail", constants=constants,
                           checks=checks, evaluate=evaluate, sampler=sampler,
                           sign=+1, reaction_free=True)


def describe(spec: SubsolutionSpec) -> dict:
    """JSON-ready summary of a spec: kind, constants, inequality ledger."""
    return {
        "kind": spec.kind,
        "sign": spec.sign,
        "reaction_free": spec.reaction_free,
        "constants": dict(spec.constants),
        "checks": [{"name": ch.name, "margin": ch.margin, "strict": ch.strict}
                   for ch in spec.checks],
    }
