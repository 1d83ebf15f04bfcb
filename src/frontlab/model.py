"""Model layer: equation parameters, the reaction r s^beta (1-s), front-like
data, grids (validated nodes only; the solver builds its operator on them).

The equation throughout is du/dt = (u^m)_xx + f(u) on the line, with a
monostable f and a nonincreasing datum that decays like C/x^alpha on the
right. alpha = inf selects a light (exponential) tail instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

# Decay rate of the light-tail variant (alpha = inf). Two is the classical
# steepness threshold for linear diffusion, so these data spread at speed
# 2*sqrt(f'(0)) when m = 1.
LIGHT_TAIL_RATE = 2.0

FIELD_BAND = 1e-12

CONFIG_KEYS = ("m", "alpha", "beta", "r", "r_bar", "C", "C_bar", "s0", "x0")
# Every key the top level of a config document may carry.
TOP_LEVEL_KEYS = CONFIG_KEYS + ("plateau", "grid", "solver", "experiment")


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


def default_reaction(params: ModelParams) -> Callable:
    """The evaluator s -> r*s^beta*(1-s) of the default family, unchecked.

    It takes numbers or numpy arrays and does not check that s lies in
    [0, 1], so callers whose densities may round past 1 can use it.
    """
    r, beta = params.r, params.beta

    def f(s):
        s = np.asarray(s, dtype=float)
        # (r s^beta)(1-s) in place, in the order the formula reads
        out = s ** beta
        out *= r
        out *= 1.0 - s
        return out
    return f


def require_density(arr: np.ndarray) -> None:
    """DomainError unless every entry of the float array lies in [0, 1]."""
    # NaN fails both comparisons, so it is rejected too
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise DomainError("density outside [0,1]")


def reaction_eval(params: ModelParams, s):
    """Evaluate r*s^beta*(1-s) on densities s in [0, 1]."""
    arr = np.asarray(s, dtype=float)
    require_density(arr)
    out = default_reaction(params)(arr)
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class InitialData:
    """Front-like datum: flat plateau on the left, decaying tail on the right.

    Exact tail C/x^alpha for x >= x0 (or C*exp(-2(x-x0)) when alpha = inf),
    the stored plateau level for x <= x0-1, and a zero-slope cubic join
    between. ``plateau`` is the effective level min(requested, tail(x0)),
    so the profile never rises above its own tail onset.
    """

    C: float
    alpha: float
    x0: float
    plateau: float

    def tail_value(self, x):
        """The pure tail formula; meaningful for x >= x0 only."""
        arr = np.asarray(x, dtype=float)
        if math.isinf(self.alpha):
            out = self.C * np.exp(-LIGHT_TAIL_RATE * (arr - self.x0))
        else:
            # an x^alpha past the float range is inf, and C/inf = 0 is right
            with np.errstate(over="ignore"):
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
        # Cubic Hermite on [x0-1, x0] from the plateau level to the tail
        # value, zero slope at both ends: it never leaves [level, tail(x0)]
        t = x - (self.x0 - 1.0)
        p0 = self.plateau
        p1 = self.tail_value(self.x0)
        t2 = t * t
        t3 = t2 * t
        return (p0 * (2.0 * t3 - 3.0 * t2 + 1.0)
                + p1 * (3.0 * t2 - 2.0 * t3))


def initial_data_build(C_or_Cbar: float, alpha: float, x0: float,
                       plateau: float) -> InitialData:
    """Build the canonical exact-tail datum.

    For x >= x0 the value is exactly C/x^alpha; for x <= x0-1 it is
    min(plateau, C/x0^alpha); the join between is the zero-slope cubic
    from that level up to C/x0^alpha. An x0^alpha past the float range is
    a DomainError.
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
    else:
        try:
            onset = C / x0 ** alpha
        except OverflowError:
            raise DomainError(f"x0^alpha is past the float range at alpha "
                              f"{alpha:.6g} and x0 {x0:.6g}") from None
    if onset > 1.0 + FIELD_BAND:
        raise DomainError("tail value at x0 exceeds 1; shrink C or move x0")
    return InitialData(C=C, alpha=alpha, x0=x0, plateau=min(plateau, onset))


@dataclass(frozen=True)
class Grid:
    """Strictly increasing finite abscissas; grid_build makes uniform or
    geometrically stretched ones."""

    x: np.ndarray

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


def grid_build(kind: str, x_left: float, x_right: float, n: int,
               ratio: float = 1.02) -> Grid:
    """Build a grid with n cells (n+1 nodes) over [x_left, x_right].

    Geometric grids place nodes at x_left + L*(q^i - 1)/(q^n - 1), so the
    spacing grows by the factor q from each cell to the next; any x_left is
    fine since the formula is already affinely shifted.
    """
    if not -math.inf < x_left < x_right < math.inf:
        raise DomainError("need finite x_left < x_right")
    if not (-math.inf < n < math.inf and n == int(n)):
        raise DomainError(f"cell count must be finite and whole, got {n}")
    n = int(n)
    if n < 2:
        raise DomainError("need at least 2 cells")
    if kind == "uniform":
        return Grid(x=np.linspace(x_left, x_right, n + 1))
    if kind == "geometric":
        q = float(ratio)
        if not 1.0 < q <= 1.05:
            raise DomainError("geometric ratio must lie in (1, 1.05]")
        L = x_right - x_left
        i = np.arange(n + 1, dtype=float)
        x = x_left + L * np.expm1(i * math.log(q)) / math.expm1(n * math.log(q))
        x[0] = x_left
        x[-1] = x_right
        return Grid(x=x)
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


def rightmost_crossing(values: np.ndarray, lam: float) -> Optional[int]:
    """Index i of the rightmost cell whose end values straddle lam, a value
    equal to lam counting as above it; None when no cell does."""
    above = values >= lam
    flips = np.nonzero(above[:-1] != above[1:])[0]
    return int(flips[-1]) if flips.size else None


@dataclass(frozen=True)
class ConfigBundle:
    """A parsed run configuration: parameters, datum, grid."""

    params: ModelParams
    data: InitialData
    grid: Grid


_REQUIRED = object()


def config_section(doc: dict, name: str) -> dict:
    """The nested object ``doc[name]``; missing or not an object is a
    DomainError."""
    section = doc.get(name)
    if not isinstance(section, dict):
        raise DomainError(f'config needs a "{name}" object')
    return section


def config_keys(doc: dict, known, where: str) -> None:
    """A key of ``doc`` outside ``known`` is a DomainError naming it, so a
    misspelled key cannot silently leave its default in force."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise DomainError(f"{where} has unknown key(s) "
                          f"{', '.join(map(repr, unknown))}; known: "
                          f"{', '.join(sorted(known))}")


def config_number(doc: dict, key: str, default=_REQUIRED,
                  where: str = "config") -> float:
    """``doc[key]`` as a float, or ``default`` when the key is absent.

    A missing key without a default, a boolean (float(True) is 1.0), or a
    value float() refuses (a word, null, a list), is a DomainError naming
    ``where`` and the key.
    """
    if key not in doc:
        if default is _REQUIRED:
            raise DomainError(f"{where} missing key {key!r}")
        return default
    value = doc[key]
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{where} key {key!r} must be a number, got {value!r}")


def params_from_dict(doc: dict) -> ModelParams:
    """Build ModelParams from a config document (alpha may be "inf").

    A top-level key outside TOP_LEVEL_KEYS is a DomainError naming it.
    """
    config_keys(doc, TOP_LEVEL_KEYS, "config")
    missing = [k for k in CONFIG_KEYS if k not in doc]
    if missing:
        raise DomainError(f"config missing keys: {', '.join(missing)}")
    vals = {k: (math.inf if k == "alpha" and doc[k] == "inf"
                else config_number(doc, k)) for k in CONFIG_KEYS}
    return ModelParams(**vals)


def params_to_dict(params: ModelParams) -> dict:
    """Inverse of params_from_dict (alpha = inf encoded as "inf")."""
    doc = {k: getattr(params, k) for k in CONFIG_KEYS}
    if math.isinf(params.alpha):
        doc["alpha"] = "inf"
    return doc


def bundle_from_dict(doc: dict) -> ConfigBundle:
    """Parse a full run config: model keys, "plateau", and a "grid" section."""
    params = params_from_dict(doc)
    plateau = config_number(doc, "plateau", 1.0)
    data = initial_data_build(params.C, params.alpha, params.x0, plateau)
    gdoc = config_section(doc, "grid")
    config_keys(gdoc, ("kind", "x_left", "x_right", "n", "ratio"), "grid")
    grid = grid_build(
        kind=gdoc.get("kind", "uniform"),
        x_left=config_number(gdoc, "x_left", where="grid"),
        x_right=config_number(gdoc, "x_right", where="grid"),
        n=config_number(gdoc, "n", where="grid"),
        ratio=config_number(gdoc, "ratio", 1.02, where="grid"),
    )
    return ConfigBundle(params=params, data=data, grid=grid)


def read_config(path) -> dict:
    """Load a JSON config document from disk; it must be one JSON object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DomainError("config must be a JSON object")
    return doc
