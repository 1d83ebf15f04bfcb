"""Model layer: equation parameters, reaction family, front-like data, grids.

The equation throughout is du/dt = (u^m)_xx + f(u) on the line, with a
monostable f and a nonincreasing datum that decays like C/x^alpha on the
right. alpha = inf selects a light (exponential) tail instead.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CertificateViolation, DomainError

# Decay rate of the light-tail variant (alpha = inf). Two is the classical
# steepness threshold for linear diffusion, so these data spread at speed
# 2*sqrt(f'(0)) when m = 1.
LIGHT_TAIL_RATE = 2.0

FIELD_BAND = 1e-12

CONFIG_KEYS = ("m", "alpha", "beta", "r", "r_bar", "C", "C_bar", "s0", "x0")


@dataclass(frozen=True)
class ModelParams:
    """The tuple (m, alpha, beta, r, r_bar, C, C_bar, s0, x0).

    m: diffusion exponent (> 0); alpha: tail exponent in (0, inf];
    beta: reaction degeneracy (>= 1); r <= r_bar: reaction rate bounds;
    C <= C_bar: tail constant bounds; s0: small-density threshold;
    x0: tail onset abscissa (> 1). Every field but alpha must be finite.
    """

    m: float
    alpha: float
    beta: float
    r: float
    r_bar: float
    C: float
    C_bar: float
    s0: float
    x0: float

    def __post_init__(self) -> None:
        for key in CONFIG_KEYS:
            val = getattr(self, key)
            if key != "alpha" and not math.isfinite(val):
                raise DomainError(f"{key} must be finite, got {val}")
        if not self.m > 0:
            raise DomainError(f"m must be positive, got {self.m}")
        if not self.alpha > 0:
            raise DomainError(f"alpha must lie in (0, inf], got {self.alpha}")
        if not self.beta >= 1:
            raise DomainError(f"beta must be >= 1, got {self.beta}")
        if not 0 < self.r <= self.r_bar:
            raise DomainError("need 0 < r <= r_bar")
        if not 0 < self.C <= self.C_bar:
            raise DomainError("need 0 < C <= C_bar")
        if not 0 < self.s0 < 1:
            raise DomainError(f"s0 must lie in (0,1), got {self.s0}")
        if not self.x0 > 1:
            raise DomainError(f"x0 must be > 1, got {self.x0}")

    @property
    def heavy_tail(self) -> bool:
        """True when alpha is finite (algebraic tail drives the envelopes)."""
        return math.isfinite(self.alpha)


@dataclass(frozen=True)
class ReactionFn:
    """A monostable nonlinearity with declared power-law bounds near zero.

    ``lower = (rate, beta, s0)`` claims f(s) >= rate*s^beta on [0, s0];
    ``upper = (rate, beta)`` claims f(s) <= rate*s^beta on [0, 1].
    The evaluator must accept numpy arrays.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lower: tuple[float, float, float]
    upper: tuple[float, float]

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        out = np.asarray(self.fn(arr), dtype=float)
        return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class CertificateReport:
    """Sampled margins of the two power-law bounds (negative = violation)."""

    lower_margin: float
    lower_arg: float
    upper_margin: float
    upper_arg: float
    endpoint_residual: float
    interior_min: float
    n_samples: int

    def passed(self, tol: float = 1e-12) -> bool:
        return self.lower_margin >= -tol and self.upper_margin >= -tol


def reaction_eval(params: ModelParams, s):
    """Evaluate the default family r*s^beta*(1-s)."""
    arr = np.asarray(s, dtype=float)
    # NaN fails both comparisons, so it is rejected too
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise DomainError("density outside [0,1]")
    out = params.r * arr ** params.beta * (1.0 - arr)
    return float(out) if arr.ndim == 0 else out


def default_reaction(params: ModelParams) -> ReactionFn:
    """The family r*s^beta*(1-s) with its sharp declared bounds.

    On [0, s0] the factor (1-s) is at least (1-s0), so the lower certificate
    carries rate r*(1-s0); the upper one holds with rate r (hence with the
    declared r_bar as well).
    """
    r, beta = params.r, params.beta

    def fn(s):
        s = np.asarray(s, dtype=float)
        return r * s ** beta * (1.0 - s)

    return ReactionFn(
        fn=fn,
        lower=(r * (1.0 - params.s0), beta, params.s0),
        upper=(params.r_bar, beta),
    )


def reaction_certify(f: ReactionFn, params: ModelParams,
                     n_samples: int = 100_000) -> CertificateReport:
    """Dense-sample the declared bounds and the monostability of f.

    Checks f(0) = f(1) = 0 (to 1e-14), f > 0 at interior samples,
    f(s) >= rate_lo*s^b on [0, s0], and f(s) <= rate_up*s^b on [0, 1].
    Raises CertificateViolation (carrying the offending s) on failure.
    """
    if n_samples < 1000:
        raise DomainError("n_samples must be at least 1000")
    rate_lo, beta_lo, s0 = f.lower
    rate_up, beta_up = f.upper
    s_all = np.linspace(0.0, 1.0, n_samples)
    vals = np.asarray(f.fn(s_all), dtype=float)

    endpoint = max(abs(float(vals[0])), abs(float(vals[-1])))
    if endpoint > 1e-14:
        bad = 0.0 if abs(vals[0]) > 1e-14 else 1.0
        raise CertificateViolation("f does not vanish at an endpoint", s=bad)
    interior = vals[1:-1]
    if np.any(interior <= 0.0):
        k = int(np.argmax(interior <= 0.0)) + 1
        raise CertificateViolation("f not positive inside (0,1)",
                                   s=float(s_all[k]))

    upper_gap = rate_up * s_all ** beta_up - vals
    iu = int(np.argmin(upper_gap))
    lo_mask = s_all <= s0
    lower_gap = vals[lo_mask] - rate_lo * s_all[lo_mask] ** beta_lo
    il = int(np.argmin(lower_gap))

    report = CertificateReport(
        lower_margin=float(lower_gap[il]),
        lower_arg=float(s_all[lo_mask][il]),
        upper_margin=float(upper_gap[iu]),
        upper_arg=float(s_all[iu]),
        endpoint_residual=endpoint,
        interior_min=float(interior.min()),
        n_samples=n_samples,
    )
    if report.lower_margin < -1e-12:
        raise CertificateViolation(
            f"lower bound fails at s={report.lower_arg:.6g} "
            f"(margin {report.lower_margin:.3e})", s=report.lower_arg)
    if report.upper_margin < -1e-12:
        raise CertificateViolation(
            f"upper bound fails at s={report.upper_arg:.6g} "
            f"(margin {report.upper_margin:.3e})", s=report.upper_arg)
    return report


@dataclass(frozen=True)
class InitialData:
    """Front-like datum: flat plateau on the left, decaying tail on the right.

    Exact tail C/x^alpha for x >= x0 (or C*exp(-2(x-x0)) when alpha = inf),
    the stored plateau level for x <= x0-1, and a monotone cubic Hermite
    join in between. ``plateau`` is the effective level min(requested,
    tail(x0)), so the profile never rises above its own tail onset.
    """

    C: float
    alpha: float
    x0: float
    plateau: float
    join_slope: float

    def tail_value(self, x):
        """The pure tail formula; meaningful for x >= x0 only."""
        arr = np.asarray(x, dtype=float)
        if math.isinf(self.alpha):
            out = self.C * np.exp(-LIGHT_TAIL_RATE * (arr - self.x0))
        else:
            out = self.C / arr ** self.alpha
        return float(out) if arr.ndim == 0 else out

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        a = np.atleast_1d(arr).astype(float)
        out = np.empty_like(a)
        left = a <= self.x0 - 1.0
        right = a >= self.x0
        mid = ~(left | right)
        out[left] = self.plateau
        if right.any():
            out[right] = np.atleast_1d(self.tail_value(a[right]))
        if mid.any():
            out[mid] = self._join(a[mid])
        return float(out[0]) if arr.ndim == 0 else out

    def _join(self, x):
        # Cubic Hermite on [x0-1, x0]: level plateau with zero slope on the
        # left, tail value with the (monotonicity-clamped) slope on the right.
        t = x - (self.x0 - 1.0)
        p0 = self.plateau
        p1 = self.tail_value(self.x0)
        d1 = self.join_slope
        t2 = t * t
        t3 = t2 * t
        return (p0 * (2.0 * t3 - 3.0 * t2 + 1.0)
                + p1 * (3.0 * t2 - 2.0 * t3)
                + d1 * (t3 - t2))


def initial_data_build(C_or_Cbar: float, alpha: float, x0: float,
                       plateau: float) -> InitialData:
    """Build the canonical exact-tail datum.

    For x >= x0 the value is exactly C/x^alpha; for x <= x0-1 it is
    min(plateau, C/x0^alpha); the join is a monotone cubic (Fritsch-Carlson
    slope limiting, which keeps the cubic monotone between its endpoints).
    """
    C = float(C_or_Cbar)
    alpha = float(alpha)
    x0 = float(x0)
    plateau = float(plateau)
    if not 0 < C < math.inf:
        raise DomainError("tail constant must be positive and finite")
    if not alpha > 0:
        raise DomainError("alpha must lie in (0, inf]")
    if not 1 < x0 < math.inf:
        raise DomainError("x0 must be finite and > 1")
    if not 0 < plateau <= 1:
        raise DomainError("plateau must lie in (0, 1]")

    if math.isinf(alpha):
        onset = C
        d_raw = -LIGHT_TAIL_RATE * C
    else:
        onset = C / x0 ** alpha
        d_raw = -alpha * C / x0 ** (alpha + 1.0)
    if onset > 1.0 + FIELD_BAND:
        raise DomainError("tail value at x0 exceeds 1; shrink C or move x0")

    level = min(plateau, onset)
    secant = onset - level  # join width is exactly 1
    if secant == 0.0 or d_raw * secant < 0.0:
        d1 = 0.0
    else:
        d1 = math.copysign(min(abs(d_raw), 3.0 * abs(secant)), secant)
    return InitialData(C=C, alpha=alpha, x0=x0, plateau=level, join_slope=d1)


@dataclass(frozen=True)
class Stencil:
    """dt-independent factors of a grid's nonuniform 3-point second difference.

    ``hl``/``hr`` are the cell widths left and right of each interior node,
    ``w`` = 2/(hl+hr) and ``inv_sum`` = 1/hl + 1/hr; ``h0_sq``/``hn_sq``
    square the end cells for the zero-flux ghost rows.
    """

    hl: np.ndarray
    hr: np.ndarray
    w: np.ndarray
    inv_sum: np.ndarray
    h0_sq: float
    hn_sq: float


@dataclass(frozen=True)
class Grid:
    """Strictly increasing finite abscissas, uniform or geometrically
    stretched."""

    x: np.ndarray
    kind: str
    ratio: float = 1.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.x, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise DomainError("grid needs at least two nodes")
        if not np.isfinite(arr).all():
            raise DomainError("grid nodes must be finite")
        if np.any(np.diff(arr) <= 0.0):
            raise DomainError("grid nodes must be strictly increasing")
        arr.setflags(write=False)
        object.__setattr__(self, "x", arr)

    @property
    def n_cells(self) -> int:
        return self.x.size - 1

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.x)

    @functools.cached_property
    def stencil(self) -> Stencil:
        """Built on first use and kept as long as the grid lives."""
        h = np.diff(self.x)
        hl, hr = h[:-1], h[1:]
        w, inv_sum = 2.0 / (hl + hr), 1.0 / hl + 1.0 / hr
        for arr in (h, w, inv_sum):
            arr.setflags(write=False)
        return Stencil(hl=hl, hr=hr, w=w, inv_sum=inv_sum,
                       h0_sq=h[0] ** 2, hn_sq=h[-1] ** 2)


def grid_build(kind: str, x_left: float, x_right: float, n: int,
               ratio: float = 1.02) -> Grid:
    """Build a grid with n cells (n+1 nodes) over [x_left, x_right].

    Geometric grids place nodes at x_left + L*(q^i - 1)/(q^n - 1), so the
    spacing grows by the factor q from each cell to the next; any x_left is
    fine since the formula is already affinely shifted.
    """
    if not -math.inf < x_left < x_right < math.inf:
        raise DomainError("need finite x_left < x_right")
    n = int(n)
    if n < 2:
        raise DomainError("need at least 2 cells")
    if kind == "uniform":
        return Grid(x=np.linspace(x_left, x_right, n + 1), kind=kind, ratio=1.0)
    if kind == "geometric":
        q = float(ratio)
        if not 1.0 < q <= 1.05:
            raise DomainError("geometric ratio must lie in (1, 1.05]")
        L = x_right - x_left
        i = np.arange(n + 1, dtype=float)
        x = x_left + L * np.expm1(i * math.log(q)) / math.expm1(n * math.log(q))
        x[0] = x_left
        x[-1] = x_right
        return Grid(x=x, kind=kind, ratio=q)
    raise DomainError(f"unknown grid kind {kind!r}")


@dataclass(frozen=True)
class Field:
    """Density values on grid nodes at one timestamp."""

    values: np.ndarray
    t: float


def field_build(values, t: float) -> Field:
    """Clamp values within the 1e-12 band into [0,1]; reject anything worse."""
    arr = np.asarray(values, dtype=float)
    # NaN fails every comparison, so the band test is written to pass only
    # values inside it.
    if not np.all((arr >= -FIELD_BAND) & (arr <= 1.0 + FIELD_BAND)):
        if not np.all(np.isfinite(arr)):
            raise DomainError("field values include non-finite entries")
        lo, hi = float(arr.min()), float(arr.max())
        raise DomainError(f"field values outside [0,1] band: [{lo:.3e}, {hi:.3e}]")
    clamped = np.clip(arr, 0.0, 1.0)
    clamped.setflags(write=False)
    return Field(values=clamped, t=float(t))


@dataclass(frozen=True)
class ConfigBundle:
    """A parsed run configuration: parameters, datum, grid, raw document."""

    params: ModelParams
    data: InitialData
    grid: Grid
    raw: dict


def params_from_dict(doc: dict) -> ModelParams:
    """Build ModelParams from a config document (alpha may be "inf")."""
    missing = [k for k in CONFIG_KEYS if k not in doc]
    if missing:
        raise DomainError(f"config missing keys: {', '.join(missing)}")
    alpha = doc["alpha"]
    alpha = math.inf if alpha == "inf" else float(alpha)
    return ModelParams(
        m=float(doc["m"]), alpha=alpha, beta=float(doc["beta"]),
        r=float(doc["r"]), r_bar=float(doc["r_bar"]),
        C=float(doc["C"]), C_bar=float(doc["C_bar"]),
        s0=float(doc["s0"]), x0=float(doc["x0"]),
    )


def params_to_dict(params: ModelParams) -> dict:
    """Inverse of params_from_dict (alpha = inf encoded as "inf")."""
    doc = {k: getattr(params, k) for k in CONFIG_KEYS}
    if math.isinf(params.alpha):
        doc["alpha"] = "inf"
    return doc


def bundle_from_dict(doc: dict) -> ConfigBundle:
    """Parse a full run config: model keys, "plateau", and a "grid" section."""
    params = params_from_dict(doc)
    plateau = float(doc.get("plateau", 1.0))
    data = initial_data_build(params.C, params.alpha, params.x0, plateau)
    gdoc = doc.get("grid")
    if gdoc is None:
        raise DomainError('config missing the "grid" section')
    grid = grid_build(
        kind=gdoc.get("kind", "uniform"),
        x_left=float(gdoc["x_left"]), x_right=float(gdoc["x_right"]),
        n=int(gdoc["n"]), ratio=float(gdoc.get("ratio", 1.02)),
    )
    return ConfigBundle(params=params, data=data, grid=grid, raw=dict(doc))


def read_config(path) -> dict:
    """Load a JSON config document from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
