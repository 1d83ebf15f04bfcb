import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontlab.analysis import (
    LevelSetTrace,
    fit_exponential_rate,
    fit_polynomial_exponent,
    ordering_check,
    report_json,
    sandwich_check,
    tail_fattening_check,
    track_level,
)
from frontlab.closedform import GrowthSolution, growth_eval, level_curve
from frontlab.errors import DegenerateFit, DomainError, EmptyTrace
from frontlab.model import ModelParams
from frontlab.regimes import envelopes


def make_params(m, alpha, beta, **over):
    base = dict(m=m, alpha=alpha, beta=beta, r=1.0, r_bar=1.0,
                C=1.0, C_bar=1.0, s0=0.5, x0=2.0)
    base.update(over)
    return ModelParams(**base)


def fake_traj(x, frames):
    """frames: list of (t, values)."""
    return types.SimpleNamespace(
        grid=types.SimpleNamespace(x=np.asarray(x, dtype=float)),
        times=tuple(t for t, _ in frames),
        fields=tuple(types.SimpleNamespace(t=t, values=np.asarray(v, float))
                     for t, v in frames),
    )


def make_trace(t, x, lam=0.5):
    return LevelSetTrace(lam=lam, t=np.asarray(t, float),
                         x=np.asarray(x, float))


# --- level tracking -----------------------------------------------------------

def test_track_level_interpolates_a_ramp():
    x = np.linspace(-2.0, 3.0, 501)
    v = np.clip(1.0 - x, 0.0, 1.0)  # 1 for x<0, 0 for x>1, linear between
    traj = fake_traj(x, [(1.0, v)])
    trace = track_level(traj, 0.5)
    assert len(trace) == 1
    assert trace.x[0] == pytest.approx(0.5, abs=1e-12)
    assert trace.lam == 0.5


def test_track_level_takes_the_rightmost_crossing():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    v = np.array([0.8, 0.2, 0.8, 0.2])  # three sign changes of v - 0.5
    traj = fake_traj(x, [(1.0, v)])
    trace = track_level(traj, 0.5)
    assert trace.x[0] == pytest.approx(2.5)


def test_track_level_skips_crossingless_snapshots():
    x = np.linspace(0.0, 1.0, 11)
    low = np.full_like(x, 0.1)
    ramp = np.clip(1.0 - x, 0.0, 1.0)
    traj = fake_traj(x, [(1.0, low), (2.0, ramp)])
    trace = track_level(traj, 0.5)
    assert list(trace.t) == [2.0]


def test_track_level_matches_growth_level_curve():
    # sample the closed-form growth solution on a grid and re-extract its
    # level curve; agreement must be within one cell
    C, alpha, beta, rho = 1.0, 2.0, 1.5, 1.0
    g = GrowthSolution(rho=rho, beta=beta,
                       u0=lambda x: C * np.asarray(x, float) ** -alpha)
    x = np.linspace(2.0, 400.0, 2000)
    cell = x[1] - x[0]
    times = (0.5, 1.0, 1.5)
    frames = [(t, np.clip(growth_eval(g, t, x), 0.0, 1.0)) for t in times]
    trace = track_level(fake_traj(x, frames), 0.01)
    want = level_curve(0.01, np.asarray(times), C, alpha, beta, rho)
    assert np.max(np.abs(trace.x - want)) < cell


def test_track_level_raises_on_empty_trace():
    x = np.linspace(0.0, 1.0, 11)
    traj = fake_traj(x, [(1.0, np.full_like(x, 0.1))])
    with pytest.raises(EmptyTrace):
        track_level(traj, 0.5)


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.3, 2.0])
def test_track_level_validates_the_level(lam):
    x = np.linspace(0.0, 1.0, 11)
    traj = fake_traj(x, [(1.0, np.clip(1.0 - x, 0.0, 1.0))])
    with pytest.raises(DomainError):
        track_level(traj, lam)


# --- law fitting ----------------------------------------------------------------

def test_exponential_rate_recovered_exactly():
    t = np.linspace(0.0, 30.0, 60)
    rep = fit_exponential_rate(make_trace(t, np.exp(0.25 * t)))
    assert rep.value == pytest.approx(0.25, abs=1e-6)
    assert rep.window[0] >= t[0] + 0.6 * (t[-1] - t[0])  # final third only
    assert math.isnan(rep.ratio)


def test_exponential_rate_ignores_prefactor():
    t = np.linspace(0.0, 30.0, 60)
    rep = fit_exponential_rate(make_trace(t, 3.0 * np.exp(0.25 * t)),
                               reference=0.25)
    assert rep.value == pytest.approx(0.25, abs=1e-6)
    assert rep.ratio == pytest.approx(1.0, abs=1e-5)


@settings(max_examples=60, deadline=None)
@given(pref=st.floats(1e-3, 1e3), rate=st.floats(0.05, 2.0))
def test_rate_fit_prefactor_invariance(pref, rate):
    t = np.linspace(0.0, 12.0, 45)
    base = fit_exponential_rate(make_trace(t, np.exp(rate * t))).value
    scaled = fit_exponential_rate(make_trace(t, pref * np.exp(rate * t))).value
    assert scaled == pytest.approx(base, rel=1e-7, abs=1e-9)
    assert scaled == pytest.approx(rate, rel=1e-6)


def test_polynomial_exponent_recovered_exactly():
    t = np.linspace(1.0, 100.0, 60)
    rep = fit_polynomial_exponent(make_trace(t, t ** 2))
    assert rep.value == pytest.approx(2.0, abs=1e-6)
    rep2 = fit_polynomial_exponent(make_trace(t, (0.25 * t) ** 2),
                                   reference=2.0)
    assert rep2.value == pytest.approx(2.0, abs=1e-6)
    assert rep2.ratio == pytest.approx(1.0, abs=1e-6)


def test_polynomial_fit_rejects_early_windows():
    # the final third starts at t = 0.2 + 26 * 0.025 = 0.85, before t = 1
    t = np.linspace(0.2, 1.175, 40)
    assert t[-14] < 1.0 <= t[-1]
    with pytest.raises(DomainError):
        fit_polynomial_exponent(make_trace(t, t + 1.0))


def test_fits_reject_nonpositive_positions():
    # positions fall through zero inside the final third
    t = np.linspace(0.0, 10.0, 40)
    with pytest.raises(DegenerateFit):
        fit_exponential_rate(make_trace(t, 8.0 - t))
    t2 = np.linspace(1.0, 10.0, 40)
    with pytest.raises(DegenerateFit):
        fit_polynomial_exponent(make_trace(t2, 8.0 - t2))


def test_fit_window_validation():
    t = np.linspace(0.0, 10.0, 40)
    with pytest.raises(DomainError):
        fit_exponential_rate(make_trace(t[:5], np.exp(t[:5])))


# --- sandwich containment -------------------------------------------------------

def test_sandwich_passes_for_in_band_growth_curve():
    p = make_params(1.0, 2.0, 1.0)
    env = envelopes(p, epsilon=0.3)
    t = np.linspace(1.0, 20.0, 40)
    x = level_curve(0.9, t, 1.0, 2.0, 1.0, 1.0)  # rho = 1 inside (0.7, 1.3)
    rep = sandwich_check(make_trace(t, x), env)
    assert rep.passed
    assert rep.T == pytest.approx(1.0)
    assert rep.first_violation is None
    assert rep.violations == ()
    assert rep.n_checked == 40


def test_sandwich_fails_for_linear_trace_in_accelerating_band():
    p = make_params(2.0, 2.0, 1.25)
    env = envelopes(p, epsilon=0.3)
    t = np.linspace(1.0, 100.0, 60)
    rep = sandwich_check(make_trace(t, 1.0 * t), env)
    assert not rep.passed
    # the lower envelope grows like t^2 and overtakes ct for good
    assert rep.violations[-1] == pytest.approx(100.0)
    assert rep.T is None


def test_sandwich_late_containment_still_fails_past_midpoint():
    p = make_params(1.0, 2.0, 1.0)
    env = envelopes(p, epsilon=0.3)
    t = np.linspace(1.0, 20.0, 40)
    x = level_curve(0.9, t, 1.0, 2.0, 1.0, 1.0)
    x = x.copy()
    late = t > 0.8 * t[-1]
    x[~late] = 1e9  # clip everything before 16 out of the band
    rep = sandwich_check(make_trace(t, x), env)
    assert not rep.passed
    assert rep.T is not None and rep.T > 0.5 * (t[0] + t[-1])


def test_sandwich_widening_epsilon_only_shrinks_violations():
    p = make_params(1.0, 2.0, 1.0)
    t = np.linspace(1.0, 20.0, 40)
    # rho = 1.25 leaves narrow bands but sits inside wide ones
    x = level_curve(0.9, t, 1.0, 2.0, 1.0, 1.25)
    trace = make_trace(t, x)
    prev = None
    prev_passed = False
    for eps in (0.05, 0.15, 0.3, 0.45):
        rep = sandwich_check(trace, envelopes(p, epsilon=eps))
        bad = set(rep.violations)
        if prev is not None:
            assert bad <= prev
            assert rep.passed or not prev_passed
        prev, prev_passed = bad, rep.passed
    assert prev_passed  # the widest band contains the whole trace


# --- tail fattening ---------------------------------------------------------------

def test_tail_fattening_reads_off_a_pure_power():
    p = make_params(0.5, 10.0, 1.0)
    x = np.geomspace(1.0, 1000.0, 400)
    v = np.clip(x ** -4.0, 0.0, 1.0)
    traj = fake_traj(x, [(1.0, v)])
    rep = tail_fattening_check(traj, p, 1.0, (10.0, 500.0))
    assert rep.value == pytest.approx(4.0, abs=1e-9)
    assert rep.ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


def test_tail_fattening_flags_steep_tails():
    p = make_params(0.5, 10.0, 1.0)
    x = np.geomspace(1.0, 1000.0, 400)
    v = np.clip(x ** -6.0, 0.0, 1.0)  # steeper than the 4.25 budget
    traj = fake_traj(x, [(1.0, v)])
    rep = tail_fattening_check(traj, p, 1.0, (5.0, 120.0))
    assert not rep.passed
    assert rep.value == pytest.approx(6.0, abs=1e-9)


def test_tail_fattening_preconditions():
    x = np.geomspace(1.0, 1000.0, 400)
    v = np.clip(x ** -4.0, 0.0, 1.0)
    traj = fake_traj(x, [(1.0, v)])
    with pytest.raises(DomainError):  # porous medium has no fattening cap
        tail_fattening_check(traj, make_params(2.0, 10.0, 1.0), 1.0,
                             (10.0, 500.0))
    with pytest.raises(DomainError):  # datum not steeper than the cap
        tail_fattening_check(traj, make_params(0.5, 3.0, 1.0), 1.0,
                             (10.0, 500.0))
    with pytest.raises(DomainError):  # window has no resolved values
        tail_fattening_check(fake_traj(x, [(1.0, v * 1e-9)]),
                             make_params(0.5, 10.0, 1.0), 1.0,
                             (100.0, 1000.0))


# --- trajectory ordering -----------------------------------------------------------

def _pair(xa, frames_a, frames_b):
    return fake_traj(xa, frames_a), fake_traj(xa, frames_b)


def test_ordering_identical_and_scaled_data_pass():
    x = np.linspace(0.0, 1.0, 21)
    v = np.clip(1.0 - x, 0.0, 1.0)
    a, b = _pair(x, [(1.0, v)], [(1.0, v)])
    rep = ordering_check(a, b)
    assert rep.passed and rep.max_violation == 0.0

    a, b = _pair(x, [(1.0, 0.9 * v)], [(1.0, v)])
    rep = ordering_check(a, b)
    assert rep.passed
    assert rep.max_violation <= 0.0


def test_ordering_detects_a_violation():
    x = np.linspace(0.0, 1.0, 21)
    v = np.full_like(x, 0.4)
    hi = v.copy()
    hi[7] += 0.05
    a, b = _pair(x, [(1.0, v), (2.0, hi)], [(1.0, v), (2.0, v)])
    rep = ordering_check(a, b)
    assert not rep.passed
    assert rep.max_violation == pytest.approx(0.05)
    assert rep.t_worst == 2.0


def test_ordering_requires_shared_grid_and_schedule():
    x = np.linspace(0.0, 1.0, 21)
    v = np.full_like(x, 0.4)
    a = fake_traj(x, [(1.0, v)])
    b = fake_traj(x + 0.01, [(1.0, v)])
    with pytest.raises(DomainError):
        ordering_check(a, b)
    c = fake_traj(x, [(2.0, v)])
    with pytest.raises(DomainError):
        ordering_check(a, c)


# --- report shape -------------------------------------------------------------------

def test_report_json_shape_round_trips():
    t = np.linspace(1.0, 20.0, 40)
    trace = make_trace(t, np.exp(0.25 * t))
    fit = fit_exponential_rate(trace, reference=0.25)
    p = make_params(1.0, 2.0, 1.0)
    sand = sandwich_check(trace, envelopes(p, epsilon=0.3))
    out = report_json(trace, fit=fit, sandwich=sand)
    assert set(out) == {"lambda", "fit", "sandwich", "violations"}
    assert out["lambda"] == 0.5
    assert out["fit"]["value"] == pytest.approx(0.25, abs=1e-6)
    assert "pass" not in out["fit"]  # fitter did not decide pass/fail
    assert out["sandwich"].keys() == {"pass", "T"}
    json.dumps(out)  # must be serializable as-is


def test_report_json_minimal():
    trace = make_trace([1.0, 2.0], [1.0, 2.0])
    out = report_json(trace)
    assert out == {"lambda": 0.5, "fit": None, "sandwich": None,
                   "violations": []}
