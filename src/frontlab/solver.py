"""Front-tracking finite-difference solver for du/dt = dxx(u^m) + f(u).

Nonuniform 3-point Laplacian, explicit or semi-implicit (lagged
diffusivity) time stepping, zero-flux left boundary, and a right boundary
held at an analytic growth clamp so the heavy tail is not truncated.

Every stencil reads the grid's dt-independent factors (``Grid.stencil``,
built once per grid on first use). The semi-implicit step assembles three
diagonals and the right-hand side in one work buffer and solves them with
one LAPACK ``dgtsv`` call; a non-finite entry in the system, a failed
solve or a non-finite solution raises StabilityFailure.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DomainError, DomainExhausted, StabilityFailure
from .model import Field, Grid, ModelParams, field_build, reaction_eval
from .regimes import Regime, classify, envelopes, gamma_effective

__all__ = ["SolverConfig", "SolutionTrajectory", "ResidualReport", "step",
           "simulate", "discrete_residual"]

_SCHEMES = ("explicit", "semi-implicit")
_RIGHT = ("analytic-clamp", "zero-value", "zero-flux")


@dataclass(frozen=True)
class SolverConfig:
    """Scheme, step control, schedule, and boundary policy for one run."""

    scheme: str = "semi-implicit"
    dt: float = 1e-3
    dt_control: str = "fixed"      # "fixed" | "cfl" (explicit stability bound)
    safety: float = 0.5
    t_end: float = 1.0
    snapshots: tuple = ()
    right: str = "analytic-clamp"
    right_value: Optional[Callable] = None   # t -> Dirichlet value at x_R
    u_min: float = 1e-12
    reaction_on: bool = True
    grid: Optional[Grid] = None

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise DomainError(f"unknown scheme {self.scheme!r}")
        if self.dt_control not in ("fixed", "cfl"):
            raise DomainError(f"unknown dt control {self.dt_control!r}")
        if self.right not in _RIGHT:
            raise DomainError(f"unknown right boundary policy {self.right!r}")
        if not 0.0 < self.safety <= 1.0:
            raise DomainError("safety factor must lie in (0, 1]")
        if not 0.0 <= self.u_min <= 1e-8:
            raise DomainError("u_min must lie in [0, 1e-8]")
        if not 0.0 < self.dt < math.inf:
            raise DomainError("dt must be positive and finite")
        if not 0.0 < self.t_end < math.inf:
            raise DomainError("t_end must be positive and finite")
        object.__setattr__(self, "snapshots",
                           tuple(float(s) for s in self.snapshots))


@dataclass(frozen=True, eq=False)
class SolutionTrajectory:
    """Ordered snapshots of one run plus step statistics."""

    grid: Grid
    times: tuple
    fields: tuple
    dt_history: np.ndarray
    max_residual: float

    def values(self, i: int) -> np.ndarray:
        return self.fields[i].values


@dataclass(frozen=True)
class ResidualReport:
    """Signed residual statistics of a candidate against the discrete operator."""

    max_residual: float
    min_residual: float
    mean_residual: float
    tolerance: float
    n: int


def _second_diff(grid: Grid, v: np.ndarray, right: str) -> np.ndarray:
    st = grid.stencil
    dv = np.diff(v)
    out = np.zeros_like(v)
    out[1:-1] = st.w * (dv[1:] / st.hr - dv[:-1] / st.hl)
    out[0] = 2.0 * dv[0] / st.h0_sq      # zero-flux ghost
    if right == "zero-flux":
        out[-1] = 2.0 * (v[-2] - v[-1]) / st.hn_sq
    return out


def _banded_delta(grid: Grid, a: np.ndarray, dt: float, rate: np.ndarray,
                  right: str) -> np.ndarray:
    # solve (I - dt D^2 diag(a)) delta = dt * rate
    st = grid.stencil
    dtw = dt * st.w
    n = a.size
    # d, dl, du and rhs are views of one buffer, so one scan guards them all
    buf = np.empty(4 * n - 2)
    d, dl, du, rhs = (buf[:n], buf[n:2 * n - 1], buf[2 * n - 1:3 * n - 2],
                      buf[3 * n - 2:])
    np.multiply(dt, rate, out=rhs)
    d[1:-1] = 1.0 + dtw * a[1:-1] * st.inv_sum
    dl[:-1] = -dtw * a[:-2] / st.hl
    du[1:] = -dtw * a[2:] / st.hr
    d[0] = 1.0 + dt * 2.0 * a[0] / st.h0_sq
    du[0] = -dt * 2.0 * a[1] / st.h0_sq
    if right == "zero-flux":
        d[-1] = 1.0 + dt * 2.0 * a[-1] / st.hn_sq
        dl[-1] = -dt * 2.0 * a[-2] / st.hn_sq
    else:
        d[-1] = 1.0
        dl[-1] = 0.0
        rhs[-1] = 0.0
    if not np.isfinite(buf).all():
        raise StabilityFailure("semi-implicit system has non-finite entries")
    _, _, _, delta, info = dgtsv(dl, d, du, rhs, 1, 1, 1, 1)
    if info != 0:
        raise StabilityFailure(
            f"tridiagonal solve failed (LAPACK dgtsv info={info})")
    if not np.isfinite(delta).all():
        raise StabilityFailure("tridiagonal solve returned non-finite values")
    return delta


def step(field: Field, dt: float, config: SolverConfig,
         params: ModelParams) -> Field:
    """Advance one time step; the result is clamped to [0, 1] and read-only."""
    if not dt > 0.0:
        raise DomainError("dt must be positive")
    if config.grid is None:
        raise DomainError("config.grid is required for stepping")
    grid = config.grid
    u = field.values
    m = params.m
    f_u = reaction_eval(params, u) if config.reaction_on else 0.0
    lap = _second_diff(grid, u ** m, config.right)
    if config.scheme == "explicit":
        raw = u + dt * (lap + f_u)
        # NaN fails both comparisons, so it is rejected here too
        if not (raw.min() >= -0.01 and raw.max() <= 1.01):
            raise StabilityFailure(
                f"explicit update left [-0.01, 1.01] at t={field.t:.6g}")
        new = np.clip(raw, 0.0, 1.0)
    else:
        # an infinite diffusivity (u_min = 0, m < 1, a zero node) is left to
        # _banded_delta's finite guard rather than reported as a warning
        with np.errstate(divide="ignore", over="ignore"):
            a = m * np.maximum(u, config.u_min) ** (m - 1.0)
        delta = _banded_delta(grid, a, dt, lap + f_u, config.right)
        new = np.clip(u + delta, 0.0, 1.0)
    t_new = field.t + dt
    if config.right == "zero-value":
        new[-1] = 0.0
    elif config.right == "analytic-clamp":
        if config.right_value is not None:
            new[-1] = min(1.0, max(0.0, float(config.right_value(t_new))))
        else:
            new[-1] = u[-1]
    new.setflags(write=False)
    return Field(values=new, t=float(t_new))


def _cfl_dt(values: np.ndarray, min_h2: float, config: SolverConfig,
            m: float) -> float:
    if m >= 1.0:
        M = max(float(values.max()), 1e-12)
    else:
        pos = values[values > 0.0]
        M = max(config.u_min, float(pos.min()) if pos.size else config.u_min)
    return config.safety * min_h2 / (2.0 * m * M ** (m - 1.0))


_UPPER_REGIMES = (Regime.EXPONENTIAL, Regime.POLYNOMIAL,
                  Regime.POLY_LOWER_ONLY)


def _tail_clamp(params: ModelParams, kind, x_right: float) -> Optional[Callable]:
    # growth of the pure tail value at x_R, at the supersolution rate; kept
    # unshifted and unenlarged so the boundary value stays tight.
    eps = 0.1 * params.r
    if kind.regime is Regime.POLY_LOWER_ONLY:
        a_eff = 2.0 / (params.beta - params.m + eps)
    elif kind.regime in (Regime.EXPONENTIAL, Regime.POLYNOMIAL):
        a_eff = (params.alpha if params.m >= 1.0
                 else gamma_effective(params.m, params.alpha))
    else:
        return None
    if math.isinf(a_eff):
        return None
    v0 = min(params.C_bar / x_right ** a_eff, 0.5)
    rho = params.r_bar + 0.5 * eps
    beta = params.beta

    def clamp(t: float) -> float:
        if beta == 1.0:
            return min(1.0, v0 * math.exp(rho * t))
        base = v0 ** (1.0 - beta) - rho * (beta - 1.0) * t
        return 1.0 if base <= 0.0 else min(1.0, base ** (-1.0 / (beta - 1.0)))
    return clamp


def simulate(u0, grid: Grid, config: SolverConfig,
             params: ModelParams) -> SolutionTrajectory:
    """March to t_end, recording snapshots on the schedule.

    The grid must extend 25% beyond the predicted upper front position
    when the regime carries an upper envelope. Raises DomainExhausted the
    moment the 0.5-level set comes within 10 cells of the right edge.
    """
    cfg = dataclasses.replace(config, grid=grid)
    if cfg.reaction_on:
        kind = classify(params.m, params.alpha, params.beta)
        if kind.regime in _UPPER_REGIMES:
            env = envelopes(params)
            if env.upper is not None:
                x_need = 1.25 * float(env.upper(cfg.t_end))
                if grid.x[-1] < x_need:
                    raise DomainError(
                        f"grid right edge {grid.x[-1]:.4g} is below 1.25x "
                        f"the predicted front position {x_need:.4g}")
        if cfg.right == "analytic-clamp" and cfg.right_value is None:
            cfg = dataclasses.replace(
                cfg, right_value=_tail_clamp(params, kind, float(grid.x[-1])))

    schedule = cfg.snapshots
    if not schedule:
        schedule = tuple(np.linspace(0.0, cfg.t_end, 11)[1:])
    if any(s <= 0.0 for s in schedule) or list(schedule) != sorted(schedule):
        raise DomainError("snapshot schedule must be positive and increasing")
    if schedule[-1] > cfg.t_end + 1e-12:
        raise DomainError("snapshot schedule exceeds t_end")

    vals0 = np.clip(np.asarray(u0(grid.x), dtype=float), 0.0, 1.0)
    fld = field_build(vals0, 0.0)
    fields = [fld]
    times = [0.0]
    dts = []
    max_resid = 0.0
    min_h2 = float(grid.spacings.min()) ** 2
    n_nodes = grid.x.size
    m = params.m

    for target in schedule:
        prev_vals, last_dt = None, None
        while fld.t < target - 1e-12:
            if cfg.dt_control == "cfl":
                dt = _cfl_dt(fld.values, min_h2, cfg, m)
            else:
                dt = cfg.dt
            dt = min(dt, target - fld.t)
            prev_vals = fld.values
            fld = step(fld, dt, cfg, params)
            last_dt = dt
            dts.append(dt)
        fld = field_build(fld.values, target)
        fields.append(fld)
        times.append(target)
        if prev_vals is not None:
            f_now = (reaction_eval(params, fld.values)
                     if cfg.reaction_on else 0.0)
            r = ((fld.values - prev_vals) / last_dt
                 - _second_diff(grid, fld.values ** m, cfg.right) - f_now)
            max_resid = max(max_resid, float(np.abs(r[1:-1]).max()))
        s = fld.values - 0.5
        cross = np.nonzero((s[:-1] >= 0.0) != (s[1:] >= 0.0))[0]
        edge = fld.values[-1] >= 0.5
        if edge or (cross.size and cross.max() >= n_nodes - 11):
            raise DomainExhausted(
                f"0.5-level within 10 cells of the right edge at t={target:g}")

    return SolutionTrajectory(grid=grid, times=tuple(times),
                              fields=tuple(fields),
                              dt_history=np.asarray(dts),
                              max_residual=max_resid)


def _pointwise_residual(candidate, params: ModelParams, ts: np.ndarray,
                        xs: np.ndarray, h_t: float, h_x: float,
                        reaction_free: bool) -> np.ndarray:
    m = params.m
    out = np.empty(ts.size)
    for t_val in np.unique(ts):
        sel = ts == t_val
        xv = xs[sel]
        v0 = np.asarray(candidate(float(t_val), xv), dtype=float)
        vp = np.asarray(candidate(float(t_val) + h_t, xv), dtype=float)
        vm = np.asarray(candidate(float(t_val) - h_t, xv), dtype=float)
        vl = np.asarray(candidate(float(t_val), xv - h_x), dtype=float)
        vr = np.asarray(candidate(float(t_val), xv + h_x), dtype=float)
        lap = (vr ** m - 2.0 * v0 ** m + vl ** m) / h_x ** 2
        f_v = 0.0 if reaction_free else reaction_eval(
            params, np.clip(v0, 0.0, 1.0))
        out[sel] = (vp - vm) / (2.0 * h_t) - lap - f_v
    return out


def _grid_residual(traj: SolutionTrajectory, candidate, params: ModelParams,
                   h_t: float, reaction_free: bool) -> np.ndarray:
    x = traj.grid.x
    m = params.m
    rows = []
    for t in traj.times:
        v0 = np.asarray(candidate(float(t), x), dtype=float)
        vp = np.asarray(candidate(float(t) + h_t, x), dtype=float)
        vm = np.asarray(candidate(float(t) - h_t, x), dtype=float)
        lap = _second_diff(traj.grid, v0 ** m, "zero-flux")
        f_v = 0.0 if reaction_free else reaction_eval(
            params, np.clip(v0, 0.0, 1.0))
        r = (vp - vm) / (2.0 * h_t) - lap - f_v
        rows.append(r[1:-1])
    return np.concatenate(rows)


def discrete_residual(traj, candidate, params: ModelParams,
                      samples=None, h_t: float = 1e-3,
                      h_x: float = 1e-3,
                      reaction_free: Optional[bool] = None) -> ResidualReport:
    """Residual d_t v - D^2(v^m) - f(v) of a candidate, with a refinement
    tolerance (4/3)|R(h) - R(h/2)| + 1e-8 estimated by halving the stencils.

    With ``samples`` (arrays of t and x) the derivatives use local centered
    stencils; otherwise the candidate is evaluated on the trajectory's
    snapshot times and grid nodes with the grid's own second difference.
    """
    if reaction_free is None:
        reaction_free = bool(getattr(candidate, "reaction_free", False))
    if samples is not None:
        ts = np.asarray(samples[0], dtype=float)
        xs = np.asarray(samples[1], dtype=float)
        if ts.shape != xs.shape:
            raise DomainError("sample time and position arrays must align")
        coarse = _pointwise_residual(candidate, params, ts, xs, h_t, h_x,
                                     reaction_free)
        fine = _pointwise_residual(candidate, params, ts, xs, 0.5 * h_t,
                                   0.5 * h_x, reaction_free)
    else:
        coarse = _grid_residual(traj, candidate, params, h_t, reaction_free)
        fine = _grid_residual(traj, candidate, params, 0.5 * h_t,
                              reaction_free)
    tol = (4.0 / 3.0) * float(np.abs(coarse - fine).max()) + 1e-8
    return ResidualReport(max_residual=float(fine.max()),
                          min_residual=float(fine.min()),
                          mean_residual=float(fine.mean()),
                          tolerance=tol, n=int(fine.size))
