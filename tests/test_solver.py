import math
import types

import numpy as np
import pytest

from frontlab import solver as solver_module
from frontlab.errors import (
    DomainError,
    DomainExhausted,
    StabilityFailure,
)
from frontlab.model import (
    Field,
    ModelParams,
    field_build,
    grid_build,
    initial_data_build,
    reaction_eval,
)
from frontlab.solver import (
    SolverConfig,
    _banded_delta,
    _second_diff,
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
    h = grid.spacings
    return np.concatenate([[h[0] / 2], (h[:-1] + h[1:]) / 2, [h[-1] / 2]])


# --- diffusion-only oracles -------------------------------------------------

def test_heat_equation_conserves_mass_with_closed_ends():
    p = make_params(1.0, 2.0, 1.0)
    grid = grid_build("uniform", -10.0, 10.0, 400)
    u0 = lambda x: 0.5 * np.exp(-x ** 2)
    cfg = SolverConfig(scheme="semi-implicit", dt=1e-3, t_end=1.0,
                       snapshots=(0.5, 1.0), right="zero-flux",
                       reaction_on=False)
    traj = simulate(u0, grid, cfg, p)
    w = lumped_weights(grid)
    m0 = float(w @ traj.values(0))
    m1 = float(w @ traj.values(-1))
    assert abs(m1 - m0) <= 1e-10 * m0


def test_porous_medium_self_similar_decay():
    # compactly supported hump spreads with max u ~ t^(-1/3) for m = 2
    p = make_params(2.0, 2.0, 1.0)
    grid = grid_build("uniform", -50.0, 50.0, 1000)
    u0 = lambda x: np.clip(1.0 - x ** 2, 0.0, None)
    snaps = tuple(np.geomspace(20.0, 200.0, 8))
    cfg = SolverConfig(scheme="semi-implicit", dt=2e-2, t_end=200.0,
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
    cfg = SolverConfig(scheme="semi-implicit", dt=5e-4, t_end=1.0,
                       snapshots=(0.5, 1.0), right="analytic-clamp",
                       reaction_on=False)
    traj = simulate(u0, grid, cfg, p)
    sel = (grid.x >= 60.0) & (grid.x <= 250.0)
    amp_half = traj.values(1)[sel] * grid.x[sel] ** 4
    amp_one = traj.values(2)[sel] * grid.x[sel] ** 4
    assert np.all(np.abs(amp_one / 9.0 - 1.0) < 0.08)
    # quadratic-in-time growth: A(1)/A(0.5) = 4
    ratio = amp_one / amp_half
    assert np.all(np.abs(ratio / 4.0 - 1.0) < 0.2)


def test_explicit_and_semi_implicit_agree():
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -10.0, 30.0, 400)
    u0 = initial_data_build(1.0, 2.0, 2.0, 1.0)
    snaps = (1.0, 2.0)
    a = simulate(u0, grid, SolverConfig(scheme="semi-implicit", dt=2e-4,
                                        t_end=2.0, snapshots=snaps,
                                        right="zero-value"), p)
    b = simulate(u0, grid, SolverConfig(scheme="explicit", dt=2e-4,
                                        t_end=2.0, snapshots=snaps,
                                        right="zero-value"), p)
    for fa, fb in zip(a.fields[1:], b.fields[1:]):
        assert np.max(np.abs(fa.values - fb.values)) < 5e-3


# --- grid operator ----------------------------------------------------------

def dense_second_diff(x, right):
    # the nonuniform 3-point stencil written out row by row from the nodes
    n = x.size
    h = np.diff(x)
    L = np.zeros((n, n))
    for i in range(1, n - 1):
        L[i, i - 1] = 2.0 / (h[i - 1] * (h[i - 1] + h[i]))
        L[i, i + 1] = 2.0 / (h[i] * (h[i - 1] + h[i]))
        L[i, i] = -2.0 / (h[i - 1] * h[i])
    L[0, 0], L[0, 1] = -2.0 / h[0] ** 2, 2.0 / h[0] ** 2
    if right == "zero-flux":
        L[-1, -1], L[-1, -2] = -2.0 / h[-1] ** 2, 2.0 / h[-1] ** 2
    return L


@pytest.mark.parametrize("right", ["analytic-clamp", "zero-value",
                                   "zero-flux"])
def test_semi_implicit_solve_matches_the_dense_system(right):
    grid = grid_build("geometric", -3.0, 20.0, 60, ratio=1.04)
    rng = np.random.default_rng(7)
    n = grid.x.size
    a = rng.uniform(0.2, 3.0, n)
    rate = rng.normal(size=n)
    dt = 0.05
    A = np.eye(n) - dt * dense_second_diff(grid.x, right) * a[None, :]
    b = dt * rate
    if right != "zero-flux":
        A[-1] = 0.0
        A[-1, -1] = 1.0
        b[-1] = 0.0
    want = np.linalg.solve(A, b)
    got = _banded_delta(grid, a, dt, rate, right)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_second_difference_converges_at_second_order():
    # doubling n and taking ratio -> sqrt(ratio) keeps every old node, so
    # each refinement halves every cell; the error must fall by about 4
    m = 2.0
    u = lambda x: 0.5 * np.exp(-0.25 * x ** 2)
    exact = lambda x: 0.25 * (x ** 2 - 1.0) * np.exp(-0.5 * x ** 2)  # (u^m)''
    n, q = 100, 1.02
    prev, errs = None, []
    for _ in range(3):
        grid = grid_build("geometric", -6.0, 10.0, n, ratio=q)
        if prev is not None:
            assert np.allclose(grid.x[::2], prev.x, rtol=0.0, atol=1e-12)
        lap = _second_diff(grid, u(grid.x) ** m, "zero-value")
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


def test_infinite_diffusivity_is_a_stability_failure():
    # u_min = 0 with m < 1 makes m*u^(m-1) infinite at the pinned zero node
    p = make_params(0.5, 8.0, 1.0)
    grid = grid_build("uniform", -5.0, 20.0, 100)
    vals = initial_data_build(1.0, 8.0, 2.0, 1.0)(grid.x)
    vals[-1] = 0.0
    cfg = SolverConfig(dt=1e-2, t_end=1.0, u_min=0.0, right="zero-value",
                       grid=grid)
    with pytest.raises(StabilityFailure):
        step(field_build(vals, 0.0), cfg.dt, cfg, p)


def test_non_finite_solve_output_is_a_stability_failure(monkeypatch):
    # LAPACK can overflow without reporting an error; the step must not
    # pass such a solution on as a field
    def overflowing_dgtsv(dl, d, du, b, *overwrite):
        return dl, d, du, np.full_like(b, np.inf), 0

    monkeypatch.setattr(solver_module, "dgtsv", overflowing_dgtsv)
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 20.0, 100)
    cfg = SolverConfig(dt=1e-2, t_end=1.0, right="zero-value", grid=grid)
    fld = field_build(initial_data_build(1.0, 2.0, 2.0, 1.0)(grid.x), 0.0)
    with pytest.raises(StabilityFailure, match="non-finite"):
        step(fld, cfg.dt, cfg, p)


@pytest.mark.parametrize("scheme", ["explicit", "semi-implicit"])
def test_nan_update_is_a_stability_failure_in_both_schemes(scheme):
    # a NaN node slips past a range test written with < and >; both schemes
    # must still reject the update with the same typed failure
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 20.0, 100)
    vals = initial_data_build(1.0, 2.0, 2.0, 1.0)(grid.x)
    vals[40] = np.nan
    cfg = SolverConfig(scheme=scheme, dt=1e-4, t_end=1.0, right="zero-value",
                       reaction_on=False, grid=grid)
    with pytest.raises(StabilityFailure):
        step(Field(values=vals, t=0.0), cfg.dt, cfg, p)


def test_semi_implicit_step_returns_a_read_only_field():
    p = make_params(0.5, 8.0, 1.0)
    grid = grid_build("uniform", -5.0, 20.0, 100)
    cfg = SolverConfig(dt=1e-2, t_end=1.0, right="zero-value", grid=grid)
    fld = field_build(initial_data_build(1.0, 8.0, 2.0, 1.0)(grid.x), 0.0)
    out = step(fld, cfg.dt, cfg, p)
    assert out.t == cfg.dt and type(out.t) is float
    assert np.all((out.values >= 0.0) & (out.values <= 1.0))
    with pytest.raises(ValueError):
        out.values[0] = 0.5


def test_explicit_blows_up_past_cfl():
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 5.0, 200)
    vals = initial_data_build(1.0, 2.0, 2.0, 1.0)(grid.x)
    cfg = SolverConfig(scheme="explicit", dt=0.5, t_end=1.0, grid=grid)
    fld = field_build(vals, 0.0)
    with pytest.raises(StabilityFailure):
        for _ in range(50):
            fld = step(fld, cfg.dt, cfg, p)


def test_cfl_controlled_steps_stay_stable():
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 15.0, 200)
    u0 = initial_data_build(1.0, 2.0, 2.0, 1.0)
    cfg = SolverConfig(scheme="explicit", dt=0.5, dt_control="cfl",
                       t_end=0.5, snapshots=(0.25, 0.5),
                       right="zero-value")
    traj = simulate(u0, grid, cfg, p)
    h = float(grid.spacings.min())
    # the datum plateau is capped at C / x0^alpha = 0.25 and u only grows,
    # so the first (largest) stable step is bounded by the bound at u = 0.25
    dt_cap = 0.5 * h * h / (2.0 * 2.0 * 0.25)
    assert traj.dt_history.max() <= dt_cap + 1e-12
    assert traj.dt_history.min() > 0.0
    assert np.all(traj.values(-1) >= 0.0)
    assert np.all(traj.values(-1) <= 1.0)


def test_step_requires_a_grid():
    p = make_params(2.0, 2.0, 1.25)
    fld = field_build(np.full(8, 0.25), 0.0)
    with pytest.raises(DomainError):
        step(fld, 1e-3, SolverConfig(), p)


def test_snapshot_schedule_is_validated():
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 60.0, 100)
    u0 = initial_data_build(1.0, 2.0, 2.0, 1.0)
    for snaps in [(-1.0,), (2.0, 1.0), (99.0,)]:
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


def test_domain_too_small_for_envelope_is_rejected():
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 20.0, 200)
    u0 = initial_data_build(1.0, 2.0, 2.0, 1.0)
    cfg = SolverConfig(dt=1e-2, t_end=50.0, snapshots=(25.0, 50.0))
    with pytest.raises(DomainError):
        simulate(u0, grid, cfg, p)


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


def test_zero_value_policy_pins_right_node():
    p = make_params(2.0, 2.0, 1.25)
    grid = grid_build("uniform", -5.0, 60.0, 300)
    u0 = initial_data_build(1.0, 2.0, 2.0, 1.0)
    cfg = SolverConfig(dt=1e-2, t_end=1.0, snapshots=(1.0,),
                       right="zero-value")
    traj = simulate(u0, grid, cfg, p)
    assert traj.values(-1)[-1] == 0.0


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
        return 0.5 / math.sqrt(s) * np.exp(-np.asarray(x) ** 2 / (4.0 * s))

    rep = discrete_residual(probe, kernel, p, reaction_free=True)
    assert rep.n == 3 * (len(grid.x) - 2)
    assert abs(rep.max_residual) < 1e-3
    assert abs(rep.min_residual) < 1e-3


def test_residual_samples_must_align():
    p = make_params(1.0, 2.0, 1.25)
    with pytest.raises(DomainError):
        discrete_residual(None, _Candidate(), p,
                          samples=(np.zeros(3), np.zeros(4)))
