"""Front-tracking finite-difference solver for du/dt = dxx(u^m) + f(u).

Nonuniform 3-point Laplacian, semi-implicit (lagged diffusivity) time
stepping in ceil(g/dt) equal steps over each snapshot interval g, zero-flux
left boundary, and a Dirichlet right boundary: held at zero or at the
growth supersolution's edge value (``closedform.edge_clamp``), so the
heavy tail is not truncated.

``_operator`` builds the one discrete operator, the nonuniform 3-point
second difference w (K v), from the grid's nodes once per ``simulate`` or
``step`` call; the stepper, the solve and the snapshot residual all read
it. ``simulate`` prepares one stepper per snapshot interval, which takes
once what stays the same over the interval's steps: the operator, the
system's dt-only parts, the diffusivity floor, the reaction
(``model.default_reaction``), the right-edge rule and clamp, and work
buffers for the flux, the rate, the diffusivity and the system. Each step
computes u^m, the reaction, the diffusivity m*max(u, floor)^(m-1) and the
rest of its system into those buffers, and solves the symmetric form of
the system with one LAPACK ``dptsv`` call (L D L^T, no pivoting). Bare
arrays pass from step to step; a Field is built at each snapshot. ``step``
is a one-shot use of the same stepper.

``_solver`` imports ``dptsv`` from ``scipy.linalg.lapack`` in its body, so
importing this module loads no SciPy, and only a command that steps loads
LAPACK.

The floor is 1e-12 for m >= 1 and 1e-300 for m < 1, where the diffusivity
(at most 1e300) follows the true one down the tail the rate sees. At a zero
node it is finite, and positive unless m is past about 28 (underflow).

Densities are checked where they enter: ``field_build`` checks the datum
``simulate`` starts from, and ``step`` its caller's Field when the reaction
is on (DomainError). Each step clips its solution and edge to [0, 1]. The
steps run under one np.errstate that silences overflow, division by zero
and invalid operations, so each step refuses every non-finite value by an
explicit check: a diffusivity that is not positive and finite on every node
(a NaN node among them), a non-finite entry in the system, a failed solve
and a non-finite solution raise StabilityFailure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .closedform import edge_clamp
from .errors import DomainError, DomainExhausted, StabilityFailure
from .model import (Field, Grid, ModelParams, default_reaction, field_build,
                    reaction_eval, require_density, rightmost_crossing)
from .regimes import UPPER_REGIMES, classify, envelopes

__all__ = ["SolverConfig", "SolutionTrajectory", "ResidualReport", "step",
           "simulate", "discrete_residual"]

_RIGHT = ("analytic-clamp", "zero-value")
# times no more than this apart are one time to the schedule
_TIME_TOL = 1e-12
# the diffusivity floors for m >= 1 and m < 1; see the module docstring
_FLOOR, _FAST_FLOOR = 1e-12, 1e-300
# every step runs under this; its explicit checks refuse what it silences
_QUIET = dict(over="ignore", divide="ignore", invalid="ignore")
# discrete_residual's stencil step in t and x, halved for its fine pass
_RESIDUAL_H = 1e-3


@dataclass(frozen=True)
class SolverConfig:
    """Fixed step, schedule, and boundary policy for one run; the
    diffusivity floor is fixed by m (see the module docstring)."""

    dt: float = 1e-3
    t_end: float = 1.0
    snapshots: tuple = ()
    right: str = "analytic-clamp"
    reaction_on: bool = True

    def __post_init__(self):
        if self.right not in _RIGHT:
            raise DomainError(f"unknown right boundary policy {self.right!r}")
        if not 0.0 < self.dt < math.inf:
            raise DomainError("dt must be positive and finite")
        if not 0.0 < self.t_end < math.inf:
            raise DomainError("t_end must be positive and finite")
        try:
            # float(True) is 1.0, so a boolean must be refused before it
            if any(isinstance(s, bool) for s in self.snapshots):
                raise TypeError
            snaps = tuple(float(s) for s in self.snapshots)
        except (TypeError, ValueError):
            raise DomainError("snapshot times must be numbers, got "
                              f"{self.snapshots!r}") from None
        # a NaN time would pass every ordering check of the schedule
        if not all(math.isfinite(s) for s in snaps):
            raise DomainError(f"snapshot times must be finite, got {snaps}")
        object.__setattr__(self, "snapshots", snaps)


def _require_increasing(times, what: str) -> None:
    # a NaN gap fails the test too, so it cannot pass as an increase
    if not all(b - a > _TIME_TOL for a, b in zip(times, times[1:])):
        raise DomainError(f"{what} must increase, each more than "
                          f"{_TIME_TOL:g} after the one before it")


@dataclass(frozen=True, eq=False)
class SolutionTrajectory:
    """Ordered snapshots of one run plus step statistics."""

    grid: Grid
    times: tuple
    fields: tuple
    dt_history: np.ndarray
    max_residual: float

    def __post_init__(self):
        _require_increasing(self.times, "trajectory times")


@dataclass(frozen=True)
class ResidualReport:
    """Signed residual statistics of a candidate against the discrete operator."""

    max_residual: float
    min_residual: float
    mean_residual: float
    tolerance: float
    n: int


def _operator(x: np.ndarray) -> tuple:
    """(inv_h, w, inv_sum): the dt-independent factors of the nonuniform
    3-point second difference diag(w) K on the nodes x.

    K is the symmetric tridiagonal difference of the fluxes diff(v)/h with
    zero flux beyond either end node. ``inv_h`` = 1/h over the cells, ``w``
    = 2/(hl+hr) at interior nodes and 2/h at the two end nodes (their
    zero-flux ghost rows), and ``inv_sum`` holds the row sums 1/hl + 1/hr
    of -K's diagonal (1/h at the left end), short of the Dirichlet right
    node, whose row a step drops.
    """
    h = np.diff(x)
    inv_h = 1.0 / h
    w = np.concatenate(([2.0 / h[0]], 2.0 / (h[:-1] + h[1:]), [2.0 / h[-1]]))
    inv_sum = np.concatenate((inv_h[:1], inv_h[:-1] + inv_h[1:]))
    return inv_h, w, inv_sum


def _flux_diff(inv_h: np.ndarray, v: np.ndarray, flux: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    # K v into out: the difference of the fluxes diff(v)/h (kept in flux),
    # zero beyond either end
    np.subtract(v[1:], v[:-1], out=flux)
    flux *= inv_h
    out[0] = flux[0]
    np.subtract(flux[1:], flux[:-1], out=out[1:-1])
    out[-1] = -flux[-1]
    return out


def _second_diff(op: tuple, v: np.ndarray) -> np.ndarray:
    # w (K v), with zero-flux ghost rows at both ends
    inv_h, w, _ = op
    out = _flux_diff(inv_h, v, np.empty(v.size - 1), np.empty_like(v))
    out *= w
    return out


def _solver(op: tuple, dt: float) -> Callable:
    """solve(a, rate_w, out) for one operator and dt: out = delta, where
    (I - dt W K diag(a)) delta = dt W rate_w and W = diag(w).

    The right edge is Dirichlet: delta = 0 at the right node, whose row is
    dropped. With y = a delta and each row divided by w the matrix becomes
    diag(1/(w a)) + dt (diag(inv_sum) - offdiag(1/h)): symmetric and, for
    0 < a < inf, diagonally dominant with a positive diagonal, so LAPACK
    dptsv factors it as L D L^T without pivoting.

    The dt-only parts and the buffer are taken once. Solves run under
    np.errstate(**_QUIET); the scans turn an overflow into StabilityFailure.
    """
    from scipy.linalg.lapack import dptsv
    inv_h, w, inv_sum = op
    # an overflow is reported below as a typed failure, not a warning
    with np.errstate(over="ignore"):
        diag_dt = dt * inv_sum
        e = np.multiply(inv_h[:-1], -dt)
    if not (np.isfinite(diag_dt).all() and np.isfinite(e).all()):
        raise StabilityFailure("semi-implicit system has non-finite entries")
    k = diag_dt.size
    w_k = w[:k]
    # d and rhs are views of one buffer, so one scan guards them both
    system = np.empty(2 * k)
    d, rhs = system[:k], system[k:]

    def solve(a, rate_w, out):
        # checked on every node: the dropped Dirichlet node would hide an
        # infinite diffusivity from the system guard below
        if not (0.0 < a.min() and a.max() < math.inf):
            raise StabilityFailure(
                "diffusivity m*max(u, floor)^(m-1) is zero, infinite or NaN")
        a_k = a[:k]
        np.multiply(w_k, a_k, out=d)
        np.divide(1.0, d, out=d)
        np.add(d, diag_dt, out=d)
        np.multiply(rate_w[:k], dt, out=rhs)
        if not np.isfinite(system).all():
            raise StabilityFailure(
                "semi-implicit system has non-finite entries")
        # overwrite_e=0: LAPACK factors a copy and the interval's e stays as is
        _, _, y, info = dptsv(d, e, rhs, 1, 0, 1)
        if info != 0:
            raise StabilityFailure(
                f"tridiagonal solve failed (LAPACK dptsv info={info})")
        np.divide(y, a_k, out=out[:k])
        out[k] = 0.0
        if not np.isfinite(out).all():
            raise StabilityFailure(
                "tridiagonal solve returned non-finite values")
        return out
    return solve


def _stepper(op: tuple, dt: float, config: SolverConfig,
             params: ModelParams, clamp: Optional[Callable]) -> Callable:
    """advance(u, t_new, out): one step from the values u, written to out,
    a buffer that is not u; see ``step``.

    What stays the same from one step to the next is taken once: the
    operator, the solve for (op, dt), the diffusivity floor, the reaction,
    the right-edge rule and the work buffers. A step must run under
    np.errstate(**_QUIET), like the solve; its caller checks u in [0, 1].
    """
    if not dt > 0.0:
        raise DomainError("dt must be positive")
    solve = _solver(op, dt)
    inv_h, w, _ = op
    n = w.size
    flux, rate, diffusivity = np.empty(n - 1), np.empty(n), np.empty(n)
    m = params.m
    # a = m max(u, floor)^(m-1); the solve refuses a zero a (m past ~28)
    floor = _FLOOR if m >= 1.0 else _FAST_FLOOR
    reaction = default_reaction(params) if config.reaction_on else None
    zero_edge = config.right == "zero-value"

    def advance(u, t_new, out):
        # rate / w = K u^m + f / w, so K u^m is never scaled by w and back
        rate_w = _flux_diff(inv_h, u ** m, flux, rate)
        if reaction is not None:
            f_w = reaction(u)
            f_w /= w
            rate_w += f_w
        a = np.maximum(u, floor, out=diffusivity)
        a **= m - 1.0
        a *= m
        # u + delta, added into the delta that the solve writes
        new = solve(a, rate_w, out)
        new += u
        # np.clip's own method, without its dispatch; it keeps a -0.0
        new.clip(0.0, 1.0, out=new)
        if zero_edge:
            new[-1] = 0.0
        elif clamp is not None:
            new[-1] = min(1.0, max(0.0, float(clamp(t_new))))
        return new
    return advance


def step(field: Field, dt: float, grid: Grid, config: SolverConfig,
         params: ModelParams, clamp: Optional[Callable] = None) -> Field:
    """Advance one time step; the result is clamped to [0, 1] and read-only.

    The right node is not solved for: it is 0 under the zero-value policy;
    under analytic-clamp it is ``clamp(t)`` (a t -> value map, cut to
    [0, 1]) at the new time, or its old value (its delta is 0) without one.
    With the reaction on, a density outside [0, 1] is a DomainError.
    """
    if config.reaction_on:
        require_density(field.values)
    advance = _stepper(_operator(grid.x), dt, config, params, clamp)
    t_new = field.t + dt
    with np.errstate(**_QUIET):
        new = advance(field.values, t_new, np.empty(grid.x.size))
    new.setflags(write=False)
    return Field(values=new, t=float(t_new))


def simulate(u0, grid: Grid, config: SolverConfig,
             params: ModelParams) -> SolutionTrajectory:
    """March to the last snapshot (the schedule, or ten even times up to
    t_end when it is empty), recording each one; no step goes past it, even
    when t_end does. Each interval g between snapshots takes ceil(g/dt)
    equal steps (a whole number of dt up to rounding counts as whole). The
    grid must still extend 25% beyond the upper front position that the
    envelope, if the regime has one, predicts at the last snapshot; a
    prediction past the float range is a DomainError. Raises
    DomainExhausted the moment the 0.5-level set comes within 10 cells of
    the right edge.
    """
    schedule = config.snapshots
    if not schedule:
        schedule = tuple(np.linspace(0.0, config.t_end, 11)[1:])
    # from t = 0 on, so no snapshot repeats the one before it
    _require_increasing((0.0,) + schedule, "snapshot times from t = 0")
    if schedule[-1] > config.t_end + _TIME_TOL:
        raise DomainError("snapshot schedule exceeds t_end")

    clamp = None
    if config.reaction_on:
        kind = classify(params.m, params.alpha, params.beta)
        if kind.regime in UPPER_REGIMES:
            # past the float range the envelope is inf, refused by name
            with np.errstate(over="ignore"):
                x_need = 1.25 * float(envelopes(params).upper(schedule[-1]))
            if not math.isfinite(x_need):
                raise DomainError(
                    f"the predicted front position at t={schedule[-1]:g} "
                    "is out of float range")
            if grid.x[-1] < x_need:
                raise DomainError(
                    f"grid right edge {grid.x[-1]:.4g} is below 1.25x "
                    f"the predicted front position {x_need:.4g}")
        if config.right == "analytic-clamp":
            clamp = edge_clamp(params, kind, float(grid.x[-1]))

    fld = field_build(u0(grid.x), 0.0)
    fields = [fld]
    times = [0.0]
    dts = []
    max_resid = 0.0
    m = params.m
    # steps write to these two in turn, so none overwrites its own input
    outs = (np.empty(grid.x.size), np.empty(grid.x.size))
    op = _operator(grid.x)

    for target in schedule:
        gap = target - times[-1]
        # the gap is over 1e-12, so this is at least one step
        n_steps = math.ceil(gap / config.dt * (1.0 - 1e-12))
        dt = gap / n_steps
        advance = _stepper(op, dt, config, params, clamp)
        u, t = fld.values, fld.t
        with np.errstate(**_QUIET):
            for i in range(n_steps):
                prev_vals = u
                t = t + dt
                u = advance(prev_vals, t, outs[i & 1])
        dts += [dt] * n_steps
        fld = field_build(u, target)
        fields.append(fld)
        times.append(target)
        f_now = (reaction_eval(params, fld.values)
                 if config.reaction_on else 0.0)
        r = ((fld.values - prev_vals) / dt
             - _second_diff(op, fld.values ** m) - f_now)
        max_resid = max(max_resid, float(np.abs(r[1:-1]).max()))
        i = rightmost_crossing(fld.values, 0.5)
        if fld.values[-1] >= 0.5 or (i is not None and i >= grid.x.size - 11):
            raise DomainExhausted(
                f"0.5-level within 10 cells of the right edge at t={target:g}")

    return SolutionTrajectory(grid=grid, times=tuple(times),
                              fields=tuple(fields),
                              dt_history=np.asarray(dts),
                              max_residual=max_resid)


def _pointwise_residual(candidate, params: ModelParams, ts: np.ndarray,
                        xs: np.ndarray, h: float) -> np.ndarray:
    # one candidate call per stencil offset, on the aligned sample arrays
    m = params.m
    v0 = np.asarray(candidate(ts, xs), dtype=float)
    vp = np.asarray(candidate(ts + h, xs), dtype=float)
    vm = np.asarray(candidate(ts - h, xs), dtype=float)
    vl = np.asarray(candidate(ts, xs - h), dtype=float)
    vr = np.asarray(candidate(ts, xs + h), dtype=float)
    lap = (vr ** m - 2.0 * v0 ** m + vl ** m) / h ** 2
    f_v = (0.0 if getattr(candidate, "reaction_free", False)
           else reaction_eval(params, np.clip(v0, 0.0, 1.0)))
    return (vp - vm) / (2.0 * h) - lap - f_v


def discrete_residual(traj, candidate, params: ModelParams,
                      samples=None) -> ResidualReport:
    """Residual d_t v - D^2(v^m) - f(v) of a candidate (f = 0 when its
    ``reaction_free`` attribute is true), with a refinement tolerance
    (4/3)|R(h) - R(h/2)| + 1e-8 from halving the stencils' step h = 1e-3.

    The residual is taken at ``samples``, aligned arrays of t and x, or
    without them at every snapshot time of ``traj`` on every interior node
    of its grid. The derivatives use local centered stencils, and the
    candidate is called once per stencil offset on whole arrays, (t, x),
    (t +- h, x) and (t, x +- h), so it must take aligned t and x arrays:
    10 calls for both steps, however many distinct times the samples hold.
    """
    if samples is None:
        x = traj.grid.x[1:-1]
        samples = (np.repeat(traj.times, x.size), np.tile(x, len(traj.times)))
    ts = np.asarray(samples[0], dtype=float)
    xs = np.asarray(samples[1], dtype=float)
    if ts.shape != xs.shape:
        raise DomainError("sample time and position arrays must align")
    coarse, fine = (_pointwise_residual(candidate, params, ts, xs, h)
                    for h in (_RESIDUAL_H, 0.5 * _RESIDUAL_H))
    tol = (4.0 / 3.0) * float(np.abs(coarse - fine).max()) + 1e-8
    return ResidualReport(max_residual=float(fine.max()),
                          min_residual=float(fine.min()),
                          mean_residual=float(fine.mean()),
                          tolerance=tol, n=int(fine.size))
