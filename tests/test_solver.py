import json
import math
import types
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg.lapack import dptsv

from frontlab import solver as solver_module
from frontlab.analysis import track_level
from frontlab.cli import _run_config
from frontlab.closedform import edge_clamp, pme_bump_params
from frontlab.errors import (
    DomainError,
    DomainExhausted,
    StabilityFailure,
)
from frontlab.model import (
    Field,
    Grid,
    ModelParams,
    bundle_from_dict,
    field_build,
    grid_build,
    initial_data_build,
    reaction_eval,
)
from frontlab.regimes import classify
from frontlab.solver import (
    SolverConfig,
    _operator,
    _second_diff,
    _solver,
    discrete_residual,
    simulate,
    step,
)


def make_params(m, alpha, beta, **over):
    base = dict(m=m, alpha=alpha, beta=beta, r=1.0, r_bar=1.0,
                C=1.0, C_bar=1.0, s0=0.5, x0=2.0)
    base.update(over)
    return ModelParams(**base)


def lumped_weights(grid):
    h = np.diff(grid.x)
    return np.concatenate([[h[0] / 2], (h[:-1] + h[1:]) / 2, [h[-1] / 2]])


# --- diffusion-only oracles -------------------------------------------------

def test_heat_equation_conserves_mass_with_closed_ends():
    # the right edge is Dirichlet, but at x = 30 the Gaussian's flux stays
    # below any float, so both ends are closed in effect
    p = make_params(1.0, 2.0, 1.0)
    grid = grid_build("uniform", -10.0, 30.0, 400)
    u0 = lambda x: 0.5 * np.exp(-x ** 2)
    cfg = SolverConfig(dt=1e-3, t_end=1.0,
                       snapshots=(0.5, 1.0), right="zero-value",
                       reaction_on=False)
    traj = simulate(u0, grid, cfg, p)
    w = lumped_weights(grid)
    m0 = float(w @ traj.fields[0].values)
    m1 = float(w @ traj.fields[-1].values)
    assert abs(m1 - m0) <= 1e-10 * m0


def test_porous_medium_self_similar_decay():
    # compactly supported hump spreads with max u ~ t^(-1/3) for m = 2
    p = make_params(2.0, 2.0, 1.0)
    grid = grid_build("uniform", -50.0, 50.0, 1000)
    u0 = lambda x: np.clip(1.0 - x ** 2, 0.0, None)
    snaps = tuple(np.geomspace(20.0, 200.0, 8))
    cfg = SolverConfig(dt=2e-2, t_end=200.0,
                       snapshots=snaps, right="zero-value",
                       reaction_on=False)
    traj = simulate(u0, grid, cfg, p)
    peaks = np.array([f.values.max() for f in traj.fields[1:]])
    slope = np.polyfit(np.log(np.array(snaps)), np.log(peaks), 1)[0]
    assert slope == pytest.approx(-1.0 / 3.0, abs=0.02)


def test_fast_diffusion_tail_amplitude_oracle():
    # for m = 1/2 the x^-4 far-tail amplitude solves A' = 6 sqrt(A): a
    # negligible datum tail fattens onto the exact solution 9 t^2 / x^4
    p = make_params(0.5, 8.0, 1.0)
    grid = grid_build("geometric", -5.0, 4000.0, 2500, ratio=1.004)
    u0 = initial_data_build(1.0, 8.0, 2.0, 1.0)
    cfg = SolverConfig(dt=5e-4, t_end=1.0,
                       snapshots=(0.5, 1.0), right="analytic-clamp",
                       reaction_on=False)
    traj = simulate(u0, grid, cfg, p)
    sel = (grid.x >= 60.0) & (grid.x <= 250.0)
    amp_half = traj.fields[1].values[sel] * grid.x[sel] ** 4
    amp_one = traj.fields[2].values[sel] * grid.x[sel] ** 4
    assert np.all(np.abs(amp_one / 9.0 - 1.0) < 0.08)
    # quadratic-in-time growth: A(1)/A(0.5) = 4
    ratio = amp_one / amp_half
    assert np.all(np.abs(ratio / 4.0 - 1.0) < 0.2)


def forward_euler(u, grid, p, dt, t_end):
    # explicit oracle: u += dt ((u^m)_xx + f(u)) with the ghost row on the
    # left and u = 0 pinned on the right; dt is far below the CFL bound
    h = np.diff(grid.x)
    w = 2.0 / (h[:-1] + h[1:])
    for _ in range(round(t_end / dt)):
        v = u ** p.m
        lap = np.zeros_like(u)
        lap[1:-1] = w * (np.diff(v)[1:] / h[1:] - np.diff(v)[:-1] / h[:-1])
        lap[0] = 2.0 * (v[1] - v[0]) / h[0] ** 2
        u = np.clip(u + dt * (lap + reaction_eval(p, u)), 0.0, 1.0)
        u[-1] = 0.0
    return u


def test_explicit_and_semi_implicit_agree():
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -10.0, 30.0, 400)
    u0 = initial_data_build(1.0, 2.0, 2.0, 1.0)
    snaps = (1.0, 2.0)
    a = simulate(u0, grid, SolverConfig(dt=2e-4, t_end=2.0, snapshots=snaps,
                                        right="zero-value"), p)
    u, t = np.clip(u0(grid.x), 0.0, 1.0), 0.0
    for fa, t_snap in zip(a.fields[1:], snaps):
        u, t = forward_euler(u, grid, p, 2e-4, t_snap - t), t_snap
        assert np.max(np.abs(fa.values - u)) < 5e-3


# --- grid operator ----------------------------------------------------------

def dense_second_diff(x):
    # the nonuniform 3-point stencil written out row by row from the nodes,
    # with a zero-flux ghost row on the left and none on the Dirichlet right
    n = x.size
    h = np.diff(x)
    L = np.zeros((n, n))
    for i in range(1, n - 1):
        L[i, i - 1] = 2.0 / (h[i - 1] * (h[i - 1] + h[i]))
        L[i, i + 1] = 2.0 / (h[i] * (h[i - 1] + h[i]))
        L[i, i] = -2.0 / (h[i - 1] * h[i])
    L[0, 0], L[0, 1] = -2.0 / h[0] ** 2, 2.0 / h[0] ** 2
    return L


@pytest.mark.parametrize("right", ["analytic-clamp", "zero-value"])
def test_semi_implicit_solve_matches_the_dense_system(right):
    # both Dirichlet policies drop the right node's row from the solve; the
    # policy only sets the value the step then writes at that node
    grid = grid_build("geometric", -3.0, 20.0, 60, ratio=1.04)
    rng = np.random.default_rng(7)
    n = grid.x.size
    L = dense_second_diff(grid.x)
    a = rng.uniform(0.2, 3.0, n)
    rate = rng.normal(size=n)
    dt = 0.05
    A = np.eye(n) - dt * L * a[None, :]
    b = dt * rate
    A[-1] = 0.0
    A[-1, -1] = 1.0
    b[-1] = 0.0
    want = np.linalg.solve(A, b)
    op = _operator(grid.x)
    with np.errstate(over="ignore", divide="ignore"):
        got = _solver(op, dt)(a, rate / op[1], np.empty(n))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # a whole step at m = 2 without reaction: a = 2u, rate = L u^2
    u = 0.5 + 0.2 * np.sin(grid.x)
    A = np.eye(n) - dt * L * (2.0 * u)[None, :]
    b = dt * (L @ u ** 2)
    A[-1] = 0.0
    A[-1, -1] = 1.0
    b[-1] = 0.0
    want = u + np.linalg.solve(A, b)
    want[-1] = 0.0 if right == "zero-value" else 0.25
    cfg = SolverConfig(right=right, reaction_on=False)
    got = step(Field(values=u, t=0.0), dt, grid, cfg,
               make_params(2.0, 2.0, 1.25), lambda t: 0.25).values
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("u, exact", [
    (lambda x: 0.5 * np.exp(-0.25 * x ** 2),
     lambda x: 0.25 * (x ** 2 - 1.0) * np.exp(-0.5 * x ** 2)),
    # u = x^2 / (10 - 12 t) solves u_t = (u^2)_xx exactly; here t = 0.1
    (lambda x: x ** 2 / 8.8, lambda x: 12.0 * x ** 2 / 8.8 ** 2),
], ids=["gaussian", "pme-similarity"])
def test_second_difference_converges_at_second_order(u, exact):
    # doubling n and taking ratio -> sqrt(ratio) keeps every old node, so
    # each refinement halves every cell; the error in (u^m)'' must fall by
    # about 4
    m = 2.0
    n, q = 100, 1.02
    prev, errs = None, []
    for _ in range(3):
        grid = grid_build("geometric", -6.0, 10.0, n, ratio=q)
        if prev is not None:
            assert np.allclose(grid.x[::2], prev.x, rtol=0.0, atol=1e-12)
        lap = _second_diff(_operator(grid.x), u(grid.x) ** m)
        errs.append(np.max(np.abs(lap[1:-1] - exact(grid.x[1:-1]))))
        prev, n, q = grid, 2 * n, math.sqrt(q)
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


# --- stepping and control ---------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(dt=float("nan")), dict(dt=-1e-3), dict(dt=0.0),
    dict(dt=float("inf")), dict(t_end=float("inf")),
])
def test_solver_config_rejects_bad_dt_and_t_end(bad):
    with pytest.raises(DomainError):
        SolverConfig(**bad)


@pytest.mark.parametrize("snaps", [
    (0.5, float("nan")), (float("inf"),), (0.5, "later"), (None,), None,
    (True, 2.0),
], ids=["nan", "inf", "word", "null-entry", "null", "bool"])
def test_solver_config_rejects_bad_snapshot_times(snaps):
    with pytest.raises(DomainError, match="snapshot times"):
        SolverConfig(snapshots=snaps)


def test_infinite_diffusivity_is_a_stability_failure():
    # no density in [0, 1] gives an infinite diffusivity, but a caller's
    # Field with the reaction off is not checked: 2*inf at the Dirichlet
    # node, whose row the solve drops, must still be refused
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 20.0, 100)
    vals = initial_data_build(1.0, 2.0, 2.0, 1.0)(grid.x)
    vals[-1] = math.inf
    cfg = SolverConfig(dt=1e-2, t_end=1.0, reaction_on=False)
    with pytest.raises(StabilityFailure):
        step(Field(values=vals, t=0.0), cfg.dt, grid, cfg, p)


def test_a_zero_node_gives_a_finite_fast_diffusion_step():
    # m < 1 floors u at 1e-300, so m*max(u, 1e-300)^(m-1) stays finite at
    # the pinned zero node
    p = make_params(0.5, 8.0, 1.0)
    grid = grid_build("uniform", -5.0, 20.0, 100)
    vals = initial_data_build(1.0, 8.0, 2.0, 1.0)(grid.x)
    vals[-1] = 0.0
    cfg = SolverConfig(dt=1e-2, t_end=1.0, right="zero-value")
    out = step(field_build(vals, 0.0), cfg.dt, grid, cfg, p).values
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_zero_diffusivity_is_a_stability_failure():
    # m = 30 underflows 30*max(u, 1e-12)^29 to zero at a zero node, and the
    # symmetric solve divides by it
    p = make_params(30.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 20.0, 100)
    vals = initial_data_build(1.0, 2.0, 2.0, 1.0)(grid.x)
    vals[-1] = 0.0
    cfg = SolverConfig(dt=1e-2, t_end=1.0, right="zero-value")
    with pytest.raises(StabilityFailure, match="diffusivity"):
        step(field_build(vals, 0.0), cfg.dt, grid, cfg, p)


@pytest.mark.parametrize("bad", [-0.5, math.nan], ids=["negative", "nan"])
def test_a_density_outside_the_unit_interval_is_refused_as_it_enters(bad):
    # with the reaction on the Field is checked before any arithmetic; with
    # it off the step's own checks refuse the NaN that u^0.5 makes of -0.5.
    # Neither may leak a numpy warning, which the test config makes an error
    p = make_params(0.5, 8.0, 1.0)
    grid = grid_build("uniform", -5.0, 20.0, 100)
    vals = initial_data_build(1.0, 8.0, 2.0, 1.0)(grid.x)
    vals[50] = bad
    fld = Field(values=vals, t=0.0)
    with pytest.raises(DomainError, match="outside"):
        step(fld, 1e-2, grid, SolverConfig(), p)
    with pytest.raises(StabilityFailure):
        step(fld, 1e-2, grid, SolverConfig(reaction_on=False), p)


@pytest.mark.parametrize("bad", [math.inf, 1.5, -0.3])
def test_simulate_refuses_a_datum_outside_the_unit_interval(bad):
    # the datum enters through field_build's check, not clipped into range
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 20.0, 100)
    vals = initial_data_build(1.0, 2.0, 2.0, 1.0)(grid.x)
    vals[50] = bad
    cfg = SolverConfig(dt=1e-2, t_end=0.1, right="zero-value")
    with pytest.raises(DomainError, match="field values"):
        simulate(lambda x: vals, grid, cfg, p)


def test_simulate_refuses_an_envelope_past_the_float_range_by_name():
    # exp(hi_rate t) overflows at the last snapshot: the grid-edge check
    # names the float range, with no numpy warning
    p = make_params(1.0, 1e-9, 2.0)
    grid = grid_build("uniform", -10.0, 1e6, 200)
    cfg = SolverConfig(dt=0.01, t_end=40.0)
    with pytest.raises(DomainError, match="out of float range"):
        simulate(initial_data_build(1.0, 1e-9, 2.0, 1.0), grid, cfg, p)


def test_non_finite_solve_output_is_a_stability_failure(monkeypatch):
    # LAPACK can overflow without reporting an error; the step must not
    # pass such a solution on as a field
    def overflowing_dptsv(d, e, b, *overwrite):
        return d, e, np.full_like(b, np.inf), 0

    monkeypatch.setattr(solver_module, "dptsv", overflowing_dptsv)
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 20.0, 100)
    cfg = SolverConfig(dt=1e-2, t_end=1.0, right="zero-value")
    fld = field_build(initial_data_build(1.0, 2.0, 2.0, 1.0)(grid.x), 0.0)
    with pytest.raises(StabilityFailure, match="non-finite"):
        step(fld, cfg.dt, grid, cfg, p)


def test_nan_update_is_a_stability_failure():
    # a NaN node slips past a range test written with < and >; the step
    # must still reject the update with a typed failure
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 20.0, 100)
    vals = initial_data_build(1.0, 2.0, 2.0, 1.0)(grid.x)
    vals[40] = np.nan
    cfg = SolverConfig(dt=1e-4, t_end=1.0, right="zero-value",
                       reaction_on=False)
    with pytest.raises(StabilityFailure):
        step(Field(values=vals, t=0.0), cfg.dt, grid, cfg, p)


@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan")])
def test_step_refuses_a_dt_that_is_not_positive(dt):
    p = make_params(0.5, 8.0, 1.0)
    grid = grid_build("uniform", -5.0, 20.0, 100)
    fld = field_build(initial_data_build(1.0, 8.0, 2.0, 1.0)(grid.x), 0.0)
    with pytest.raises(DomainError, match="dt must be positive"):
        step(fld, dt, grid, SolverConfig(), p)


def test_semi_implicit_step_returns_a_read_only_field():
    p = make_params(0.5, 8.0, 1.0)
    grid = grid_build("uniform", -5.0, 20.0, 100)
    cfg = SolverConfig(dt=1e-2, t_end=1.0, right="zero-value")
    fld = field_build(initial_data_build(1.0, 8.0, 2.0, 1.0)(grid.x), 0.0)
    out = step(fld, cfg.dt, grid, cfg, p)
    assert out.t == cfg.dt and type(out.t) is float
    assert np.all((out.values >= 0.0) & (out.values <= 1.0))
    with pytest.raises(ValueError):
        out.values[0] = 0.5


def test_snapshot_schedule_is_validated():
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 60.0, 100)
    u0 = initial_data_build(1.0, 2.0, 2.0, 1.0)
    # a time no more than 1e-12 after the one before it (t = 0 first)
    # would record the same field twice
    for snaps in [(-1.0,), (2.0, 1.0), (99.0,), (0.5, 0.5, 1.0),
                  (0.5, 0.5 + 1e-13, 1.0), (1e-13, 1.0)]:
        cfg = SolverConfig(dt=1e-2, t_end=3.0, snapshots=snaps)
        with pytest.raises(DomainError):
            simulate(u0, grid, cfg, p)


def test_snapshot_times_are_honored():
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 60.0, 200)
    u0 = initial_data_build(1.0, 2.0, 2.0, 1.0)
    snaps = (0.3, 0.7, 1.0)
    cfg = SolverConfig(dt=1e-2, t_end=1.0, snapshots=snaps)
    traj = simulate(u0, grid, cfg, p)
    assert traj.times == pytest.approx([0.0] + list(snaps))
    assert [f.t for f in traj.fields] == pytest.approx([0.0] + list(snaps))


def test_an_empty_schedule_snapshots_ten_even_times():
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 60.0, 200)
    u0 = initial_data_build(1.0, 2.0, 2.0, 1.0)
    traj = simulate(u0, grid, SolverConfig(dt=1e-2, t_end=1.0), p)
    assert traj.times == (0.0,) + tuple(np.linspace(0.0, 1.0, 11)[1:])
    assert traj.dt_history.size == 100


def test_domain_too_small_for_envelope_is_rejected():
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 20.0, 200)
    u0 = initial_data_build(1.0, 2.0, 2.0, 1.0)
    cfg = SolverConfig(dt=1e-2, t_end=50.0, snapshots=(25.0, 50.0))
    with pytest.raises(DomainError):
        simulate(u0, grid, cfg, p)
    # no step goes past the last snapshot, so t_end alone does not size
    # the grid
    cfg = SolverConfig(dt=1e-2, t_end=50.0, snapshots=(1.0,))
    assert simulate(u0, grid, cfg, p).times == (0.0, 1.0)


def test_each_snapshot_interval_takes_whole_equal_steps():
    # noacc's 80 intervals of 0.5 at dt = 0.01: exactly 50 steps each
    doc = json.loads((resources.files("frontlab") / "configs"
                      / "noacc.json").read_text())
    b, cfg, _, _ = _run_config(doc)
    traj = simulate(b.data, b.grid, cfg, b.params)
    assert traj.dt_history.size == 4000
    assert np.unique(traj.dt_history).size == 1
    # gaps of 0.3 and 0.45 at dt = 0.1: 3 steps of 0.1, then 5 of 0.09
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 60.0, 200)
    cfg = SolverConfig(dt=0.1, t_end=1.0, snapshots=(0.3, 0.75))
    traj = simulate(initial_data_build(1.0, 2.0, 2.0, 1.0), grid, cfg, p)
    assert traj.dt_history.tolist() == pytest.approx([0.1] * 3 + [0.09] * 5,
                                                     rel=1e-14)
    assert np.unique(traj.dt_history[3:]).size == 1
    assert np.all(traj.dt_history <= 0.1)
    assert traj.times == (0.0, 0.3, 0.75)


def test_front_reaching_right_edge_raises():
    # pushed front with speed ~ 0.75 leaves a 17-wide box well before t_end
    p = make_params(2.0, 1.0, 2.5)
    grid = grid_build("uniform", -5.0, 12.0, 200)
    u0 = initial_data_build(1.0, 1.0, 2.0, 1.0)
    cfg = SolverConfig(dt=1e-2, t_end=40.0,
                       snapshots=(8.0, 16.0, 24.0, 32.0, 40.0),
                       right="zero-value")
    with pytest.raises(DomainExhausted):
        simulate(u0, grid, cfg, p)


def test_fast_diffusion_front_converges_at_first_order_in_dt():
    # fde_kpp's model and grid to t = 40: a first-order step halves the
    # change in ln x_0.5(40) with each halving of dt
    doc = json.loads((resources.files("frontlab") / "configs"
                      / "fde_kpp.json").read_text())
    b = bundle_from_dict(doc)
    ln_x = []
    for dt in (0.04, 0.02, 0.01):
        cfg = SolverConfig(dt=dt, t_end=40.0, snapshots=(40.0,))
        trace = track_level(simulate(b.data, b.grid, cfg, b.params), 0.5)
        assert trace.t[-1] == 40.0
        ln_x.append(math.log(trace.x[-1]))
    coarse, fine = ln_x[1] - ln_x[0], ln_x[2] - ln_x[1]
    assert 1.5 <= coarse / fine <= 2.5


def test_zero_value_policy_pins_right_node():
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 60.0, 300)
    u0 = initial_data_build(1.0, 2.0, 2.0, 1.0)
    cfg = SolverConfig(dt=1e-2, t_end=1.0, snapshots=(1.0,),
                       right="zero-value")
    traj = simulate(u0, grid, cfg, p)
    assert traj.fields[-1].values[-1] == 0.0


def test_analytic_clamp_grows_the_edge_value():
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 120.0, 400)
    u0 = initial_data_build(1.0, 2.0, 2.0, 1.0)
    cfg = SolverConfig(dt=1e-2, t_end=2.0, snapshots=(1.0, 2.0),
                       right="analytic-clamp")
    traj = simulate(u0, grid, cfg, p)
    edge = [f.values[-1] for f in traj.fields]
    assert edge[1] > edge[0]  # the clamp lifts the tail value immediately
    assert edge[2] > edge[1]
    assert edge[2] <= 1.0


# --- residual evaluator -----------------------------------------------------

class _Candidate:
    """Smooth traveling profile with a residual known in closed form."""

    reaction_free = False

    def __call__(self, t, x):
        return 0.5 * np.exp(-np.clip(np.asarray(x, dtype=float) - t,
                                     0.0, None))


def test_pointwise_residual_matches_analytic_value():
    p = make_params(1.0, 2.0, 1.25)
    cand = _Candidate()
    ts = np.full(40, 0.7)
    xs = np.linspace(2.0, 6.0, 40)  # strictly right of the crease at x = t
    rep = discrete_residual(None, cand, p, samples=(ts, xs))
    w = cand(0.7, xs)
    # d_t w = w and d_xx w = w for this profile, so the residual is -f(w)
    expected = -reaction_eval(p, w)
    assert rep.n == 40
    assert abs(rep.max_residual - expected.max()) <= rep.tolerance + 1e-7
    assert abs(rep.min_residual - expected.min()) <= rep.tolerance + 1e-7
    assert rep.max_residual < 0.0  # the profile is a strict subsolution here


def test_grid_residual_vanishes_on_exact_heat_solution():
    p = make_params(1.0, 2.0, 1.25)
    grid = grid_build("uniform", -10.0, 10.0, 800)
    probe = types.SimpleNamespace(times=(0.5, 1.0, 2.0), grid=grid)

    def kernel(t, x):
        s = t + 1.0
        return 0.5 / np.sqrt(s) * np.exp(-np.asarray(x) ** 2 / (4.0 * s))

    rep = discrete_residual(probe, kernel, p, reaction_free=True)
    assert rep.n == 3 * (len(grid.x) - 2)
    assert abs(rep.max_residual) < 1e-3
    assert abs(rep.min_residual) < 1e-3


def test_sampled_residual_calls_the_candidate_once_per_stencil_offset():
    p = make_params(2.0, 2.0, 1.25)
    spec = pme_bump_params(p, 0.1)
    ts, xs = spec.sampler()
    calls = []

    def counting(t, x):
        calls.append(np.shape(t))
        return spec(t, x)

    rep = discrete_residual(None, counting, p, samples=(ts, xs))
    assert np.unique(ts).size > 200
    # five offsets, (t, x), (t +- h_t, x), (t, x +- h_x), at two step sizes
    assert calls == [ts.shape] * 10
    assert rep == discrete_residual(None, spec, p, samples=(ts, xs))


def test_residual_samples_must_align():
    p = make_params(1.0, 2.0, 1.25)
    with pytest.raises(DomainError):
        discrete_residual(None, _Candidate(), p,
                          samples=(np.zeros(3), np.zeros(4)))


# --- properties on small random grids ---------------------------------------

RIGHTS = ("analytic-clamp", "zero-value")
STEPS = (1e-3, 1e-2, 0.1, 1.0)


@st.composite
def small_grids(draw):
    x_left = draw(st.floats(-10.0, 0.0))
    length = draw(st.floats(1.0, 50.0))
    return grid_build("geometric", x_left, x_left + length,
                      draw(st.integers(4, 40)),
                      ratio=draw(st.floats(1.001, 1.05)))


def unit_values(n):
    return hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(grid=small_grids(), dt=st.sampled_from(STEPS), data=st.data())
def test_solve_matches_the_dense_system_on_random_grids(grid, dt, data):
    n = grid.x.size
    a = 10.0 ** data.draw(hnp.arrays(np.float64, n,
                                     elements=st.floats(-3.0, 3.0)))
    rate = data.draw(hnp.arrays(np.float64, n,
                                elements=st.floats(-1.0, 1.0)))
    # the solve is linear in rate, so scaling it to a unit maximum loses no
    # case; it keeps the solution out of the subnormal range, where a float
    # holds fewer digits than the 1e-12 bound asks of either solver. Only
    # the rows the solve reads are scaled: the Dirichlet row drops rate[-1],
    # so a unit rate[-1] over subnormal others left the solution subnormal
    peak = np.max(np.abs(rate[:-1]))
    if peak > 0.0:
        rate[:-1] /= peak
    A = np.eye(n) - dt * dense_second_diff(grid.x) * a[None, :]
    b = dt * rate
    A[-1] = 0.0
    A[-1, -1] = 1.0
    b[-1] = 0.0
    want = np.linalg.solve(A, b)
    op = _operator(grid.x)
    with np.errstate(over="ignore", divide="ignore"):
        got = _solver(op, dt)(a, rate / op[1], np.empty(n))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=100, deadline=None)
@given(grid=small_grids(), right=st.sampled_from(RIGHTS),
       dt=st.sampled_from(STEPS), m=st.sampled_from((0.5, 1.0, 2.0)),
       data=st.data())
def test_a_step_keeps_the_density_in_the_unit_interval(grid, right, dt, m,
                                                       data):
    u = data.draw(unit_values(grid.x.size))
    cfg = SolverConfig(dt=dt, right=right)
    out = step(field_build(u, 0.0), dt, grid, cfg, make_params(m, 2.0, 1.25))
    assert np.all((out.values >= 0.0) & (out.values <= 1.0))


@settings(max_examples=100, deadline=None)
@given(grid=small_grids(), right=st.sampled_from(RIGHTS),
       dt=st.sampled_from(STEPS), data=st.data())
def test_ordered_data_give_ordered_steps(grid, right, dt, data):
    # with m = 1 the step solves (I - dt L) u_new = u + dt f(u): L's
    # M-matrix form and 1 + dt f' >= 0 (dt <= 1/r) keep any order. The
    # lagged diffusivity of m != 1 does not: hypothesis reorders such steps
    # even under the explicit stability bound, so they are not drawn here.
    lo = data.draw(unit_values(grid.x.size))
    hi = np.minimum(lo + data.draw(unit_values(grid.x.size)), 1.0)
    cfg = SolverConfig(dt=dt, right=right)
    p = make_params(1.0, 2.0, 1.25)
    below = step(field_build(lo, 0.0), dt, grid, cfg, p).values
    above = step(field_build(hi, 0.0), dt, grid, cfg, p).values
    assert np.all(below <= above + 1e-12)


# --- the step against its reference, bit for bit ----------------------------

def oracle_step(field, dt, grid, config, params, clamp=None):
    """The step as it read before its stages ran in place, with 1/h, the
    node weights and the row sums built here from the nodes, node by node,
    and the diffusivity floored at 1e-12 for m >= 1 and 1e-300 for m < 1:
    the reference step must match bit for bit.

    Returns the new values and time; raises what that step raised.
    """
    if not dt > 0.0:
        raise DomainError("dt must be positive")
    u = field.values
    m = params.m
    n = u.size
    h = np.diff(grid.x)
    inv_h = 1.0 / h
    # the zero-flux ghost rows at both ends give the end nodes 2/h and -K's
    # left row sum 1/h; the Dirichlet right node's row sum is never read
    w = np.array([2.0 / h[0]]
                 + [2.0 / (h[i - 1] + h[i]) for i in range(1, n - 1)]
                 + [2.0 / h[-1]])
    inv_sum = np.array([inv_h[0]]
                       + [inv_h[i - 1] + inv_h[i] for i in range(1, n - 1)])

    def flux_diff(v):
        flux = np.diff(v)
        flux *= inv_h
        out = np.empty_like(v)
        out[0] = flux[0]
        np.subtract(flux[1:], flux[:-1], out=out[1:-1])
        out[-1] = -flux[-1]
        return out

    rate_w = flux_diff(u ** m)
    if config.reaction_on:
        if not (u.min() >= 0.0 and u.max() <= 1.0):
            raise DomainError("density outside [0,1]")
        rate_w += params.r * u ** params.beta * (1.0 - u) / w
    floor = 1e-12 if m >= 1.0 else 1e-300
    with np.errstate(divide="ignore", over="ignore"):
        a = m * np.maximum(u, floor) ** (m - 1.0)
    if not (0.0 < a.min() and a.max() < math.inf):
        raise StabilityFailure("diffusivity is zero, infinite or NaN")
    k = n - 1
    buf = np.empty(3 * k - 1)
    d, e, rhs = buf[:k], buf[k:2 * k - 1], buf[2 * k - 1:]
    np.multiply(w[:k], a[:k], out=d)
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(1.0, d, out=d)
    d += dt * inv_sum
    np.multiply(inv_h[:k - 1], -dt, out=e)
    np.multiply(rate_w[:k], dt, out=rhs)
    if not np.isfinite(buf).all():
        raise StabilityFailure("semi-implicit system has non-finite entries")
    _, _, y, info = dptsv(d, e, rhs, 1, 1, 1)
    if info != 0:
        raise StabilityFailure(f"dptsv info={info}")
    delta = np.zeros(n)
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(y, a[:k], out=delta[:k])
    if not np.isfinite(delta).all():
        raise StabilityFailure("non-finite solution")
    new = u + delta
    np.clip(new, 0.0, 1.0, out=new)
    t_new = field.t + dt
    if config.right == "zero-value":
        new[-1] = 0.0
    elif config.right == "analytic-clamp":
        new[-1] = (u[-1] if clamp is None
                   else min(1.0, max(0.0, float(clamp(t_new)))))
    return new, float(t_new)


def edge_values(n):
    # exact 0s and 1s, where the floor, the reaction and the clip act
    return hnp.arrays(np.float64, n, elements=st.one_of(
        st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64),
                          np.asarray(b).view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(grid=small_grids(), right=st.sampled_from(RIGHTS),
       m=st.sampled_from((0.5, 1.0, 2.0, 3.0)),
       beta=st.sampled_from((1.0, 1.25, 2.5)),
       r=st.sampled_from((0.3, 1.0, 2.7)), reaction_on=st.booleans(),
       clamped=st.booleans(),
       dts=st.lists(st.floats(1e-4, 1.0), min_size=2, max_size=2),
       data=st.data())
def test_step_matches_the_reference_step_bit_for_bit(grid, right, m, beta,
                                                     r, reaction_on, clamped,
                                                     dts, data):
    # two dt values alternate on one grid, so a kept system part that went
    # stale would show
    p = make_params(m, 2.0, beta, r=r, r_bar=r)
    cfg = SolverConfig(right=right, reaction_on=reaction_on)
    clamp = (lambda t: 0.25 + t) if clamped else None
    fld = Field(values=data.draw(edge_values(grid.x.size)), t=0.0)
    for dt in (dts[0], dts[1], dts[0], dts[1]):
        try:
            want, t_want = oracle_step(fld, dt, grid, cfg, p, clamp)
        except (StabilityFailure, DomainError) as exc:
            with pytest.raises(type(exc)):
                step(fld, dt, grid, cfg, p, clamp)
            return
        fld = step(fld, dt, grid, cfg, p, clamp)
        assert same_bits(fld.values, want)
        assert fld.t == t_want


@settings(max_examples=100, deadline=None)
@given(grid=small_grids(), right=st.sampled_from(RIGHTS),
       m=st.sampled_from((0.5, 1.0, 2.0)), beta=st.sampled_from((1.0, 1.25)),
       data=st.data())
def test_simulate_is_step_applied_over_and_over(grid, right, m, beta, data):
    # two snapshot intervals at dt = 0.01: 4 steps of 0.01, then 3 of
    # 0.025/3. alpha = 2 puts every (m, beta) drawn in a regime with an
    # upper envelope, so analytic-clamp holds edge_clamp's value
    p = make_params(m, 2.0, beta)
    cfg = SolverConfig(dt=0.01, t_end=0.065, snapshots=(0.04, 0.065),
                       right=right)
    # at most 0.4, so in so short a run the 0.5-level nears the right edge
    # only where the edge itself is held at 0.5 or more
    vals = 0.4 * data.draw(edge_values(grid.x.size))
    schedule = ((0.04, [0.01] * 4), (0.065, [(0.065 - 0.04) / 3] * 3))

    def edge():
        # taken once simulate has passed its grid check, as simulate does
        return (edge_clamp(p, classify(m, 2.0, beta), float(grid.x[-1]))
                if right == "analytic-clamp" else None)

    def repeated_steps():
        clamp = edge()
        fld = field_build(vals, 0.0)
        for target, dts in schedule:
            for dt in dts:
                fld = step(fld, dt, grid, cfg, p, clamp)
            yield field_build(fld.values, target)

    try:
        traj = simulate(lambda x: vals, grid, cfg, p)
    except DomainError as exc:
        # the grid ends short of 1.25x the upper envelope's front
        assert "below 1.25x" in str(exc)
        assume(False)
    except DomainExhausted:
        # a grid that ends near x = 1 or before holds the clamp at 0.5
        assert edge() is not None and edge()(0.065) >= 0.5
        assume(False)
    assert traj.dt_history.tolist() == [dt for _, dts in schedule
                                        for dt in dts]
    for got, want in zip(traj.fields[1:], repeated_steps(), strict=True):
        assert same_bits(got.values, want.values)
        assert got.t == want.t


@pytest.mark.parametrize("m, u, run", [
    (27.0, 0.0, "step"), (30.0, 1e-11, "step"),
    (27.0, 0.0, "simulate"), (30.0, 1e-11, "simulate"),
], ids=["27.0-0.0", "30.0-1e-11", "27.0-0.0-simulate",
        "30.0-1e-11-simulate"])
def test_a_subnormal_diffusivity_is_a_typed_failure(m, u, run):
    # m max(u, 1e-12)^(m-1) is subnormal, so 1/(w a) overflows: the step
    # must raise its own failure, not a numpy warning (which the test config
    # makes an error) nor a silent inf, also under the errstate simulate
    # holds over an interval's steps
    grid = Grid(x=np.array([0.0, 0.2386, 0.4846, 0.7383, 1.0]))
    p = make_params(m, 2.0, 1.25)
    with pytest.raises(StabilityFailure, match="non-finite"):
        if run == "step":
            fld = Field(values=np.full(grid.x.size, u), t=0.0)
            step(fld, 1.0, grid, SolverConfig(), p)
        else:
            cfg = SolverConfig(dt=1.0, t_end=1.0, snapshots=(1.0,))
            simulate(lambda x: np.full(x.size, u), grid, cfg, p)


def test_kept_dt_parts_neither_go_stale_nor_change():
    def build():
        return grid_build("geometric", -5.0, 20.0, 400, ratio=1.01)

    p = make_params(0.5, 8.0, 1.25)
    cfg = SolverConfig(right="analytic-clamp")
    grid = build()
    fld = field_build(initial_data_build(1.0, 8.0, 2.0, 1.0)(grid.x), 0.0)
    for dt in (1e-2, 3e-3, 1e-2):
        want = step(fld, dt, build(), cfg, p).values
        fld = step(fld, dt, grid, cfg, p)
        assert same_bits(fld.values, want)

    # dt * inv_sum overflows: the kept parts are checked when built
    with pytest.raises(StabilityFailure, match="non-finite"):
        step(fld, 1e308, grid, cfg, p)
