"""Propagation phase diagram over (m, alpha, beta) and level-set envelopes.

The classifier returns exactly one regime per parameter triple; equality
cases sit on the dividing curves and are reported as Boundary with a label
rather than silently bucketed. For fast diffusion (m < 1) everything runs
through the effective tail exponent gamma = min(alpha, 2/(1-m)), since the
equation fattens any lighter tail up to x^(-2/(1-m)).

The diagram is decided in one place, ``classify_row``, which takes one m,
one alpha and an array of beta and returns a kind code and a gamma or
exponent per cell, so a sweep classifies a whole alpha row per call.
``classify`` is its one-cell case and returns a RegimeKind.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import waves
from .errors import DomainError, RegimeMismatch
from .model import ModelParams, default_reaction


class Regime(Enum):
    NO_ACCELERATION = "NoAcceleration"
    EXPONENTIAL = "ExponentialAcceleration"
    POLYNOMIAL = "PolynomialAcceleration"
    INFINITE_SPEED = "InfiniteSpeedUnlocalized"
    POLY_LOWER_ONLY = "PolynomialLowerOnly"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class RegimeKind:
    """Classified regime; gamma is the exponential rate factor (beta = 1),
    exponent the polynomial time power, label the boundary curve hit."""

    regime: Regime
    gamma: Optional[float] = None
    exponent: Optional[float] = None
    label: Optional[str] = None


# Kind codes of classify_row: KINDS[code] is the cell's kind with its
# number left out, and NUMBER_FIELD names the field the cell's value fills
# for the kinds that carry one. The last four codes mark a cell outside the
# domain, one per check in the order m, beta, alpha, exponent; KINDS holds
# None there.
(_NOACC, _INFSPEED, _EXPONENTIAL, _POLYNOMIAL, _LOWER_ONLY, _EDGE_ALPHA,
 _EDGE_SATURATION, _EDGE_2_M, _EDGE_GAMMA, _EDGE_M_GAMMA, _BAD_M, _BAD_BETA,
 _BAD_ALPHA, _BAD_EXPONENT) = range(14)
KINDS = (
    RegimeKind(Regime.NO_ACCELERATION),
    RegimeKind(Regime.INFINITE_SPEED),
    RegimeKind(Regime.EXPONENTIAL),
    RegimeKind(Regime.POLYNOMIAL),
    RegimeKind(Regime.POLY_LOWER_ONLY),
    RegimeKind(Regime.BOUNDARY, label="beta=1+1/alpha"),
    RegimeKind(Regime.BOUNDARY, label="alpha=2/(1-m)"),
    RegimeKind(Regime.BOUNDARY, label="beta=2-m"),
    RegimeKind(Regime.BOUNDARY, label="beta=1+1/gamma"),
    RegimeKind(Regime.BOUNDARY, label="beta=m+2/gamma"),
    None, None, None, None,
)
NUMBER_FIELD = {Regime.EXPONENTIAL: "gamma", Regime.POLYNOMIAL: "exponent",
                Regime.POLY_LOWER_ONLY: "exponent"}
# the regimes with an upper envelope, and so a growth supersolution
UPPER_REGIMES = (Regime.EXPONENTIAL, Regime.POLYNOMIAL,
                 Regime.POLY_LOWER_ONLY)
_DOMAIN_MESSAGES = ("m must be positive, got {m}",
                    "beta must be >= 1, got {beta}",
                    "alpha must lie in (0, inf] with a finite 1/alpha, "
                    "got {alpha}",
                    "the exponent 1/(gamma (beta-1)) overflows at "
                    "alpha={alpha}, beta={beta}")


def gamma_effective(m: float, alpha: float) -> float:
    """Effective tail exponent: alpha for m >= 1, min(alpha, 2/(1-m)) for
    fast diffusion, since the equation fattens any lighter tail."""
    if not m > 0:
        raise DomainError("gamma_effective requires m > 0")
    if not alpha > 0:
        raise DomainError("alpha must lie in (0, inf]")
    if m >= 1:
        return alpha
    return min(alpha, 2.0 / (1.0 - m))


def classify_row(m: float, alpha: float,
                 betas) -> tuple[np.ndarray, np.ndarray]:
    """Locate (m, alpha, beta) in the phase diagram for each beta of a row.

    Returns ``(codes, values)``, two arrays shaped like ``betas``: the kind
    code of each cell (see KINDS) and its gamma or exponent (NaN for a kind
    without a number). A cell is outside the domain unless m > 0, beta >= 1
    and alpha lies in (0, inf] with a finite 1/alpha; a polynomial cell
    whose exponent 1/(gamma (beta-1)) overflows is outside it too. The first
    matching condition below wins.

    m >= 1: the only acceleration mechanism is the heavy tail itself, and
    the no-acceleration threshold max(1+1/alpha, 2-m) collapses to
    b1 = 1+1/alpha since 2-m <= 1 <= beta: polynomial below b1, none above,
    the boundary beta=1+1/alpha on it, and no acceleration at all for
    alpha = inf. m < 1: the diagram is richer; with b1 = 1+1/gamma,
    b2 = m+2/gamma and b3 = 2-m the regions are polynomial
    (beta < min(b1, b2)), lower-envelope-only (b2 < beta < b1), infinite
    speed without localization (b1 < beta < b3), and none
    (beta >= max(b1, b3)). beta = 1 accelerates exponentially in both,
    except at alpha = inf for m >= 1 and on the critical alpha = 2/(1-m)
    for m < 1.
    """
    betas = np.asarray(betas, dtype=float)
    values = np.full(betas.shape, np.nan)
    if not m > 0:
        return np.full(betas.shape, _BAD_M), values
    in_domain = betas >= 1.0
    # a subnormal alpha overflows 1/alpha, and with it gamma or the exponent
    if not (alpha > 0 and 1.0 / float(alpha) < math.inf):
        return np.where(in_domain, _BAD_ALPHA, _BAD_BETA), values
    m, alpha = float(m), float(alpha)
    kpp = betas == 1.0
    if m >= 1:
        if math.isinf(alpha):
            return np.where(in_domain, _NOACC, _BAD_BETA), values
        rate, gamma = 1.0 / alpha, alpha
        b1 = 1.0 + 1.0 / alpha
        ladder = [(kpp, _EXPONENTIAL), (betas == b1, _EDGE_ALPHA),
                  (betas < b1, _POLYNOMIAL)]
    else:
        gamma = gamma_effective(m, alpha)
        rate = max((1.0 - m) / 2.0, 1.0 / alpha)
        saturation = 2.0 / (1.0 - m)
        b1 = 1.0 + 1.0 / gamma
        b2 = m + 2.0 / gamma
        b3 = 2.0 - m
        pinch = 1.0 / (1.0 - m)  # gamma at which b1 = b2 = b3
        ladder = [(kpp, _EDGE_SATURATION if alpha == saturation
                   else _EXPONENTIAL)]
        if gamma >= pinch:
            ladder.append((betas == b3, _EDGE_2_M))
        ladder.append((betas == b1, _EDGE_GAMMA))
        if gamma > pinch:
            ladder.append((betas == b2, _EDGE_M_GAMMA))
        ladder += [(betas < min(b1, b2), _POLYNOMIAL),
                   ((b2 < betas) & (betas < b1), _LOWER_ONLY),
                   ((b1 < betas) & (betas < b3), _INFSPEED)]
    codes = np.full(betas.shape, _NOACC)
    # assigned last to first, so the first matching condition wins
    for cond, code in reversed(ladder):
        codes[cond] = code
    codes[~in_domain] = _BAD_BETA
    values[codes == _EXPONENTIAL] = rate
    poly = (codes == _POLYNOMIAL) | (codes == _LOWER_ONLY)
    # a tiny alpha with beta near 1 overflows 1/(gamma (beta-1)) to inf
    with np.errstate(divide="ignore", over="ignore"):
        values[poly] = 1.0 / (gamma * (betas[poly] - 1.0))
    overflow = np.isinf(values)
    codes[overflow] = _BAD_EXPONENT
    values[overflow] = np.nan
    return codes, values


def classify(m: float, alpha: float, beta: float) -> RegimeKind:
    """Locate (m, alpha, beta) in the phase diagram: the one-cell case of
    classify_row. A triple outside the domain is a DomainError naming the
    first check it fails."""
    codes, values = classify_row(m, alpha, [beta])
    code = int(codes[0])
    kind = KINDS[code]
    if kind is None:
        raise DomainError(_DOMAIN_MESSAGES[code - _BAD_M].format(
            m=m, alpha=alpha, beta=beta))
    field = NUMBER_FIELD.get(kind.regime)
    if field is None:
        return kind
    return dataclasses.replace(kind, **{field: float(values[0])})


@dataclass(frozen=True)
class Envelope:
    """Level-set envelopes: x_lambda(t) in (lower(t), upper(t)) for t >= T."""

    lower: Callable[[np.ndarray], np.ndarray]
    upper: Optional[Callable[[np.ndarray], np.ndarray]]
    T: float


def certified_floor(params: ModelParams) -> float:
    """c0, the speed of the compact-support wave that the search certifies
    for the reaction of ``params`` at delta 0.5: the linear floor of a level
    set in the infinite-speed and no-acceleration regimes."""
    g = waves.g_fn(params.m, default_reaction(params))
    return waves.find_compact_support_speed(g, 0.5).c0


def envelopes(params: ModelParams,
              epsilon: Optional[float] = None) -> Envelope:
    """Build x-(t), x+(t) for the classified regime of ``params``.

    Exponential regime: exp((r-eps)*Gamma*t) and exp((r_bar+eps)*Gamma*t).
    Polynomial regime: ((r-eps) C^(b-1) (b-1) t)^(1/(a_eff (b-1))) and the
    same with (r_bar+eps, C_bar). Lower-only regime: polynomial lower bound
    plus the monomial upper bound of exponent (beta-m+eps)/(2(beta-1)).
    Infinite-speed regime: only the linear floor c0*t, c0 found by the
    compact-support wave search. T is 1 except in the lower-only regime,
    where the mismatched exponents cross later.
    """
    eps = 0.1 * params.r if epsilon is None else float(epsilon)
    if not 0 < eps < params.r:
        raise DomainError("need 0 < epsilon < r")
    kind = classify(params.m, params.alpha, params.beta)
    if kind.regime is Regime.NO_ACCELERATION:
        raise RegimeMismatch("no envelopes in the no-acceleration regime")
    if kind.regime is Regime.BOUNDARY:
        raise RegimeMismatch(f"no envelopes on the boundary curve {kind.label}")

    m, beta = params.m, params.beta
    if kind.regime is Regime.EXPONENTIAL:
        lo_rate = (params.r - eps) * kind.gamma
        hi_rate = (params.r_bar + eps) * kind.gamma
        return Envelope(
            lower=lambda t: np.exp(lo_rate * np.asarray(t, dtype=float)),
            upper=lambda t: np.exp(hi_rate * np.asarray(t, dtype=float)),
            T=1.0)
    if kind.regime is Regime.INFINITE_SPEED:
        # no localization, only the linear floor
        c0 = certified_floor(params)
        return Envelope(lower=lambda t: c0 * np.asarray(t, dtype=float),
                        upper=None, T=1.0)

    # polynomial and lower-only: (A t)^p below, (B t)^q above, with
    # p = 1/(a_eff (beta-1)) the classified exponent
    p = kind.exponent
    A = (params.r - eps) * params.C ** (beta - 1.0) * (beta - 1.0)
    B = (params.r_bar + eps) * params.C_bar ** (beta - 1.0) * (beta - 1.0)
    T = 1.0
    if kind.regime is Regime.POLYNOMIAL:
        q = p
    else:
        q = (beta - m + eps) / (2.0 * (beta - 1.0))
        # the coarser monomial upper bound starts below the lower one and
        # overtakes it where (A t)^p = (B t)^q; order only holds past that
        t_cross = math.exp((p * math.log(A) - q * math.log(B)) / (q - p))
        T = max(1.0, t_cross * (1.0 + 1e-9))
    return Envelope(lower=lambda t: (A * np.asarray(t, dtype=float)) ** p,
                    upper=lambda t: (B * np.asarray(t, dtype=float)) ** q,
                    T=T)
