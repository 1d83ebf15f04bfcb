"""Level-set extraction, propagation-law fitting, and ordering checks.

Everything here is post-processing on SolutionTrajectory snapshots: locate
the rightmost lambda-crossing, fit exponential or power laws to the final
third of its path, and compare against envelope predictions or a second
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateFit, DomainError, EmptyTrace
from .model import ModelParams, rightmost_crossing
from .regimes import Envelope

__all__ = ["LevelSetTrace", "FitReport", "SandwichReport", "OrderingReport",
           "track_level", "fit_exponential_rate", "fit_polynomial_exponent",
           "sandwich_check", "tail_fattening_check", "ordering_check",
           "report_json"]


@dataclass(frozen=True, eq=False)
class LevelSetTrace:
    """Path t -> x_lambda(t) of the rightmost lambda-crossing."""

    lam: float
    t: np.ndarray
    x: np.ndarray

    def __len__(self) -> int:
        return int(self.t.size)


@dataclass(frozen=True)
class FitReport:
    """Least-squares rate/exponent with its window and prediction ratio."""

    value: float
    window: tuple
    residual_norm: float
    ratio: float
    passed: Optional[bool] = None


@dataclass(frozen=True)
class SandwichReport:
    """Envelope containment result with the measured onset time."""

    passed: bool
    T: Optional[float]
    first_violation: Optional[float]
    violations: tuple
    n_checked: int


@dataclass(frozen=True)
class OrderingReport:
    """Pointwise ordering of two runs on a shared grid and schedule."""

    passed: bool
    max_violation: float
    t_worst: Optional[float]
    tolerance: float


def track_level(traj, lam: float) -> LevelSetTrace:
    """Rightmost crossing of u = lam per snapshot, linearly interpolated.

    Snapshots without a crossing are omitted; if none has one the trace
    would be empty and EmptyTrace is raised.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError("level must lie in (0, 1)")
    x = traj.grid.x
    ts, xs = [], []
    for t, fld in zip(traj.times, traj.fields):
        v = fld.values
        i = rightmost_crossing(v, lam)
        if i is None:
            continue
        frac = (lam - v[i]) / (v[i + 1] - v[i])
        ts.append(float(t))
        xs.append(float(x[i] + frac * (x[i + 1] - x[i])))
    if not ts:
        raise EmptyTrace(f"no snapshot crosses level {lam:g}")
    return LevelSetTrace(lam=lam, t=np.asarray(ts), x=np.asarray(xs))


# the fits use the final third of the trace
FIT_WINDOW = 1.0 / 3.0


def _line_fit(a: np.ndarray, b: np.ndarray):
    coef, res, *_ = np.polyfit(a, b, 1, full=True)
    rms = float(np.sqrt(res[0] / a.size)) if res.size else 0.0
    return float(coef[0]), rms


def _fit(trace: LevelSetTrace, reference: Optional[float], log_t: bool,
         what: str) -> FitReport:
    # ln x_lambda against t, or against ln t with log_t, on the window
    n = len(trace)
    k = max(int(math.ceil(FIT_WINDOW * n)), 2)
    t_w = trace.t[n - k:]
    x_w = trace.x[n - k:]
    if t_w.size < 10:
        raise DomainError("fit window needs at least 10 trace points")
    if log_t and np.any(t_w < 1.0):
        raise DomainError(f"{what} fit needs all window times >= 1")
    if np.any(x_w <= 0.0):
        raise DegenerateFit(f"{what} fit needs positive positions")
    slope, rms = _line_fit(np.log(t_w) if log_t else t_w, np.log(x_w))
    ratio = slope / reference if reference else math.nan
    return FitReport(value=slope, window=(float(t_w[0]), float(t_w[-1])),
                     residual_norm=rms, ratio=ratio)


def fit_exponential_rate(trace: LevelSetTrace,
                         reference: Optional[float] = None) -> FitReport:
    """Slope of ln x_lambda(t) against t over the final third of the trace."""
    return _fit(trace, reference, log_t=False, what="exponential")


def fit_polynomial_exponent(trace: LevelSetTrace,
                            reference: Optional[float] = None) -> FitReport:
    """Slope of ln x_lambda against ln t over the final third of the trace."""
    return _fit(trace, reference, log_t=True, what="power-law")


def sandwich_check(trace: LevelSetTrace, env: Envelope) -> SandwichReport:
    """Containment x^-(t) < x_lambda(t) < x^+(t), onset T after the last slip.

    Passes when such a T exists and is no later than the trace midpoint,
    so the containment covers at least the final half.
    """
    bad = []
    for t, pos in zip(trace.t, trace.x):
        lo = float(env.lower(t))
        hi = float(env.upper(t)) if env.upper is not None else math.inf
        if not lo < pos < hi:
            bad.append(float(t))
    n = len(trace)
    if not bad:
        T = float(trace.t[0])
    else:
        later = trace.t[trace.t > bad[-1]]
        T = float(later[0]) if later.size else None
    t_half = 0.5 * float(trace.t[0] + trace.t[-1])
    passed = T is not None and T <= t_half
    return SandwichReport(passed=passed, T=T,
                          first_violation=bad[0] if bad else None,
                          violations=tuple(bad), n_checked=n)


def tail_fattening_check(traj, params: ModelParams, T: float,
                         x_window) -> FitReport:
    """Fit the local tail exponent -d ln u/d ln x at time T on x_window.

    Passes when the fitted exponent is at most 2/(1-m) + 0.25: fast
    diffusion fattens any steeper algebraic tail down to x^(-2/(1-m)).
    """
    m = params.m
    if not 0.0 < m < 1.0:
        raise DomainError("tail fattening needs 0 < m < 1")
    cap = 2.0 / (1.0 - m)
    if params.alpha <= cap:
        raise DomainError("datum must start steeper than the 2/(1-m) cap")
    i = int(np.argmin(np.abs(np.asarray(traj.times) - T)))
    v = traj.fields[i].values
    x = traj.grid.x
    lo, hi = float(x_window[0]), float(x_window[1])
    sel = (x >= lo) & (x <= hi) & (v >= 1e-13)
    if sel.sum() < 10:
        raise DomainError("tail window has fewer than 10 resolved nodes")
    slope, rms = _line_fit(np.log(x[sel]), np.log(v[sel]))
    exponent = -slope
    return FitReport(value=exponent, window=(lo, hi), residual_norm=rms,
                     ratio=exponent / cap, passed=exponent <= cap + 0.25)


def ordering_check(traj_a, traj_b, tolerance: float = 1e-9) -> OrderingReport:
    """Pointwise traj_a <= traj_b + tolerance at every shared snapshot."""
    if traj_a.grid.x.shape != traj_b.grid.x.shape or \
            not np.array_equal(traj_a.grid.x, traj_b.grid.x):
        raise DomainError("ordering check needs a shared grid")
    if traj_a.times != traj_b.times:
        raise DomainError("ordering check needs a shared snapshot schedule")
    worst = -math.inf
    t_worst = None
    for t, fa, fb in zip(traj_a.times, traj_a.fields, traj_b.fields):
        gap = float((fa.values - fb.values).max())
        if gap > worst:
            worst, t_worst = gap, float(t)
    return OrderingReport(passed=worst <= tolerance, max_violation=worst,
                          t_worst=t_worst, tolerance=tolerance)


def report_json(trace: LevelSetTrace, fit: Optional[FitReport] = None,
                sandwich: Optional[SandwichReport] = None) -> dict:
    """Assemble the emitted JSON report shape for one analyzed level."""
    out = {"lambda": trace.lam, "fit": None, "sandwich": None,
           "violations": []}
    if fit is not None:
        out["fit"] = {"value": fit.value, "window": list(fit.window),
                      "residual_norm": fit.residual_norm, "ratio": fit.ratio}
    if sandwich is not None:
        out["sandwich"] = {"pass": sandwich.passed, "T": sandwich.T}
        out["violations"] = list(sandwich.violations)
    return out
