"""Phase-plane shooting for traveling-front profiles.

The auxiliary equation V'' + c V' + g(V) = 0, V(0) = delta, V'(0) = 0 is
integrated by LSODA (stiffness-switching Adams/BDF) with terminal event
detection at fixed tolerances (module constants); a caller sets only
the window y_max. A case-iii trajectory (V hits zero with strictly
negative slope) is mapped back to a compactly supported profile through
the mass-coordinate change x = int m V^(m-1).

SciPy is imported where it runs, not at the top of the module: ``shoot``
binds ``scipy.integrate.solve_ivp`` in its body, and ``engler_transform``
binds it and ``scipy.interpolate.CubicHermiteSpline`` in its own. So
importing this module, or ``regimes`` through it, loads no SciPy, and a
run that shoots but builds no profile never loads ``scipy.interpolate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (DomainError, NonTermination, SearchExhausted,
                     TransformError)

__all__ = [
    "CASE_I", "CASE_II", "CASE_III", "ShootResult",
    "WaveProfile", "SpeedCertificate", "g_fn", "shoot",
    "engler_transform", "ignition_truncate", "find_compact_support_speed",
]

CASE_I = "case-i"       # converges to the origin without touching it
CASE_II = "case-ii"     # touches the origin with zero slope (degenerate)
CASE_III = "case-iii"   # hits V = 0 with strictly negative slope

# shoot()'s integration tolerances, the radius of the origin event, the
# slope below which a crossing is case iii, and the samples it returns
RTOL = 1e-8
ATOL = 1e-11
NORM_TOL = 1e-8
SLOPE_TOL = 1e-8
N_SAMPLES = 1500


@dataclass(frozen=True, eq=False)
class ShootResult:
    """Outcome of one shot: classification plus the sampled trajectory."""

    outcome: str
    c: float
    delta: float
    y_c: Optional[float]
    terminal_slope: Optional[float]
    y: np.ndarray
    V: np.ndarray
    Vp: np.ndarray


@dataclass(frozen=True, eq=False)
class WaveProfile:
    """Compactly supported front profile U on [0, x_c] after the transform."""

    c: float
    x_c: float
    x: np.ndarray
    U: np.ndarray
    u_of_x: Callable


@dataclass(frozen=True)
class SpeedCertificate:
    """A speed c0 whose shot is case iii, for both truncated and full g."""

    c0: float
    delta: float
    ignition: "ShootResult"
    full: "ShootResult"


def g_fn(m: float, f) -> Callable:
    """Bind g(s) = m f(s) s^(m-1) for m > 0, extended by 0 at s = 0 and 1.

    g raises DomainError for s outside [0, 1]. The extension at s = 0 is
    the limit whenever f(s) ~ s^beta with m + beta > 1, which holds for
    every beta >= 1.
    """
    if not m > 0.0:
        raise DomainError("m must be positive")

    def g(s: float) -> float:
        if 0.0 < s < 1.0:
            return m * float(f(s)) * s ** (m - 1.0)
        if not 0.0 <= s <= 1.0:
            raise DomainError("s must lie in [0, 1]")
        return 0.0
    return g


def ignition_truncate(g: Callable, delta: float) -> Callable:
    """Multiply g by a ramp that vanishes on [0, delta/2] and is 1 past 3delta/4."""
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    lo, hi = 0.5 * delta, 0.75 * delta

    def g_tilde(s: float) -> float:
        if s <= lo:
            return 0.0
        chi = 1.0 if s >= hi else (s - lo) / (hi - lo)
        return chi * g(s)
    return g_tilde


def shoot(c: float, delta: float, g: Callable,
          y_max: Optional[float] = None) -> ShootResult:
    """Integrate V'' + cV' + g(V) = 0 from (delta, 0) over [0, y_max] and
    classify the outcome; y_max defaults to 1e6/max(c, 1)."""
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    # NaN fails both comparisons, so it is rejected too
    if not 0.0 <= c < math.inf:
        raise DomainError(f"speed must be finite and nonnegative, got {c}")
    if y_max is None:
        y_max = 1e6 / max(c, 1.0)
    elif not y_max > 0.0:
        raise DomainError(f"y_max must be positive, got {y_max}")

    def rhs(_y, state):
        v, vp = state
        return (vp, -c * vp - (g(v) if v > 0.0 else 0.0))

    def ev_cross(_y, state):
        return state[0]
    ev_cross.terminal = True
    ev_cross.direction = -1.0

    def ev_origin(_y, state):
        return math.hypot(state[0], state[1]) - NORM_TOL
    ev_origin.terminal = True
    ev_origin.direction = -1.0

    # LSODA: the system is nonstiff inside the reaction zone and stiff once
    # V leaves it (the homogeneous mode decays like e^(-cy), capping
    # explicit steps at ~1/c forever). LSODA switches from Adams to BDF
    # when it detects that, and takes each step, Newton solves included, in
    # compiled ODEPACK code (Radau runs its Newton iterations in Python).
    from scipy.integrate import solve_ivp
    sol = solve_ivp(rhs, (0.0, y_max), [delta, 0.0], method="LSODA",
                    rtol=RTOL, atol=ATOL,
                    dense_output=True, events=[ev_cross, ev_origin])
    if sol.status != 1:
        raise NonTermination(
            f"no terminal event before y = {y_max:.3g} (c={c}, delta={delta})")

    ys = np.linspace(0.0, sol.t[-1], N_SAMPLES)
    V, Vp = sol.sol(ys)
    if len(sol.t_events[0]):
        y_c = float(sol.t_events[0][0])
        slope = float(sol.y_events[0][0][1])
        outcome = CASE_III if slope < -SLOPE_TOL else CASE_II
        return ShootResult(outcome=outcome, c=c, delta=delta, y_c=y_c,
                           terminal_slope=slope, y=ys, V=V, Vp=Vp)
    return ShootResult(outcome=CASE_I, c=c, delta=delta, y_c=None,
                       terminal_slope=None, y=ys, V=V, Vp=Vp)


def engler_transform(result: ShootResult, m: float) -> WaveProfile:
    """Map a case-iii trajectory to U on [0, x_c] via x = int_0^y m V^(m-1).

    For m < 1 the integrand blows up at y_c like (y_c - y)^(m-1); the last
    sliver is closed analytically with V ~ |V'(y_c)|(y_c - y), and the rest
    is integrated adaptively against a Hermite interpolant of the shot.
    An m <= 0 is a DomainError, as in g_fn; a shot of another outcome is a
    TransformError.
    """
    if not m > 0.0:
        raise DomainError("m must be positive")
    if result.outcome != CASE_III:
        raise TransformError("the mass-coordinate transform needs a case-iii "
                             "shot")
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicHermiteSpline
    y_c = float(result.y_c)
    slope = abs(float(result.terminal_slope))
    spline = CubicHermiteSpline(result.y, result.V, result.Vp)
    y_end = y_c * (1.0 - 1e-6)

    def phi_rate(y: float) -> float:
        v = float(spline(y))
        if v <= 0.0:
            v = slope * max(y_c - y, 1e-300)
        return m * v ** (m - 1.0)

    phi_sol = solve_ivp(lambda y, _s: [phi_rate(y)], (0.0, y_end), [0.0],
                        method="RK45", rtol=1e-10, atol=1e-13,
                        dense_output=True)
    phi_end = float(phi_sol.y[0][-1])
    tail = slope ** (m - 1.0) * (y_c - y_end) ** m
    x_c = phi_end + tail

    keep = result.y <= y_end
    xs = np.append(phi_sol.sol(result.y[keep])[0], x_c)
    Us = np.append(result.V[keep], 0.0)

    def u_of_x(x):
        arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(arr).astype(float)
        out = np.empty_like(flat)
        for i, xv in enumerate(flat):
            if xv <= 0.0:
                out[i] = result.V[0]
            elif xv >= phi_end:
                out[i] = (slope * max(x_c - xv, 0.0)) ** (1.0 / m)
            else:
                y = float(np.interp(xv, xs, np.append(result.y[keep], y_c)))
                y = min(y, y_end)
                for _ in range(5):
                    y -= (float(phi_sol.sol(y)[0]) - xv) / phi_rate(y)
                    y = min(max(y, 0.0), y_end)
                out[i] = float(spline(y))
        return float(out[0]) if arr.ndim == 0 else out

    return WaveProfile(c=result.c, x_c=x_c, x=xs, U=Us, u_of_x=u_of_x)


def find_compact_support_speed(g: Callable,
                               delta: float) -> SpeedCertificate:
    """Halve c from 1 until the ignition-truncated shot is case iii.

    The returned certificate carries both the truncated-g shot and the
    full-g shot at c0 (the comparison argument makes both case iii).
    """
    g_tilde = ignition_truncate(g, delta)
    c = 1.0
    for _ in range(41):
        try:
            res = shoot(c, delta, g_tilde)
        except NonTermination:
            res = None
        if res is not None and res.outcome == CASE_III:
            full = shoot(c, delta, g)
            if full.outcome != CASE_III:
                raise SearchExhausted(
                    "full-g shot at the candidate speed is not case iii")
            return SpeedCertificate(c0=c, delta=delta, ignition=res,
                                    full=full)
        c *= 0.5
    raise SearchExhausted("no compact-support speed after 40 halvings")
