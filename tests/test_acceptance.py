"""End-to-end acceptance suite: one test per shipped guarantee.

Each test states its claim, runs the smallest experiment that can falsify
it, and prints a single PASS line. The slow entries (2, 3, 4, 5) are full
PDE runs sized so the asymptotic regime is actually reached; expect a
couple of minutes total.
"""

import math
import time

import numpy as np

from frontlab import waves
from frontlab.analysis import (
    fit_exponential_rate,
    fit_polynomial_exponent,
    ordering_check,
    sandwich_check,
    tail_fattening_check,
    track_level,
)
from frontlab.closedform import (
    appendix_sub_params,
    constant_speed_super,
    fde_sub_params,
    growth_super,
    pme_bump_params,
    right_tail_spec,
)
from frontlab.model import ModelParams, default_reaction, grid_build, initial_data_build
from frontlab.regimes import Regime, classify, envelopes
from frontlab.solver import SolverConfig, discrete_residual, simulate


def P(m, alpha, beta, **kw):
    base = dict(r=1.0, r_bar=1.0, C=1.0, C_bar=1.0, s0=0.5, x0=2.0)
    base.update(kw)
    return ModelParams(m=m, alpha=alpha, beta=beta, **base)


def f_logistic(s):
    return s * (1.0 - s)


# --- 1: phase diagram ------------------------------------------------------------

def _theorem_regime(m, a, b):
    # Independent re-derivation: no acceleration iff beta >= max(1+1/a, 2-m);
    # below that, fast diffusion caps the usable tail at 2/(1-m) and the two
    # hyperbolae 1+1/g, m+2/g split localized, lower-only and unlocalized
    # acceleration. beta = 1 always accelerates exponentially.
    if b == 1.0:
        return Regime.EXPONENTIAL
    if m >= 1.0:
        return (Regime.POLYNOMIAL if b < 1.0 + 1.0 / a
                else Regime.NO_ACCELERATION)
    if b >= max(1.0 + 1.0 / a, 2.0 - m):
        return Regime.NO_ACCELERATION
    g = min(a, 2.0 / (1.0 - m))
    if b < min(1.0 + 1.0 / g, m + 2.0 / g):
        return Regime.POLYNOMIAL
    if m + 2.0 / g <= b < 1.0 + 1.0 / g:
        return Regime.POLY_LOWER_ONLY
    return Regime.INFINITE_SPEED


def _off_boundaries(m, a, b):
    tol = 1e-9
    gaps = [b - (1.0 + 1.0 / a), b - (2.0 - m)]
    if m < 1.0:
        g = min(a, 2.0 / (1.0 - m))
        gaps += [b - (1.0 + 1.0 / g), b - (m + 2.0 / g), a - 2.0 / (1.0 - m)]
    return all(abs(v) > tol for v in gaps)


def test_ac01_phase_diagram_matches_theorem_inequalities():
    alphas = np.linspace(0.2, 5.0, 50)
    betas = np.linspace(1.0, 3.0, 50)
    t0 = time.perf_counter()
    checked = 0
    for m in (2.0, 0.5):
        for a in alphas:
            a = float(a)
            for b in betas:
                b = float(b)
                kind = classify(m, a, b)
                if not _off_boundaries(m, a, b):
                    continue
                expected = _theorem_regime(m, a, b)
                assert kind.regime is expected, (m, a, b, kind, expected)
                if kind.regime is Regime.EXPONENTIAL:
                    want = 1.0 / a if m >= 1 else max((1.0 - m) / 2.0, 1.0 / a)
                    assert math.isclose(kind.gamma, want, rel_tol=1e-12)
                elif kind.regime in (Regime.POLYNOMIAL, Regime.POLY_LOWER_ONLY):
                    g = a if m >= 1 else min(a, 2.0 / (1.0 - m))
                    assert math.isclose(kind.exponent, 1.0 / (g * (b - 1.0)),
                                        rel_tol=1e-12)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"classification sweep took {elapsed:.2f}s"
    assert checked >= 4900  # the boundary filter may only drop a handful
    print(f"AC1 PASS ({checked} cells agree, {elapsed * 1e3:.0f} ms)")


# --- 2: polynomial acceleration --------------------------------------------------

def test_ac02_polynomial_acceleration_sandwich_and_exponent():
    p = P(2.0, 2.0, 1.25)
    grid = grid_build("geometric", -10.0, 360.0, 4200, ratio=1.0012)
    cfg = SolverConfig(dt=0.005, t_end=50.0,
                       snapshots=tuple(np.linspace(0.5, 50.0, 100)))
    traj = simulate(initial_data_build(1.0, 2.0, 2.0, 1.0), grid, cfg, p)
    trace = track_level(traj, 0.5)

    res = sandwich_check(trace, envelopes(p, epsilon=0.3))
    assert res.passed, (res.T, res.violations[-5:])
    assert res.T is not None and res.T <= 25.0 + 1e-9  # clean on [25, 50]

    fit = fit_polynomial_exponent(trace, reference=2.0)
    assert 1.5 <= fit.value <= 2.5, fit
    print(f"AC2 PASS (exponent {fit.value:.3f}, contained from t={res.T:.1f})")


# --- 3: exponential acceleration --------------------------------------------------

def test_ac03_kpp_exponential_rate_and_sandwich():
    p = P(0.5, 8.0, 1.0)
    # containment starts near t = 35, well before the trace's midpoint
    # (t = 63), so t_end 120 tests both claims
    grid = grid_build("geometric", -10.0, 1e20, 13000, ratio=1.0035)
    cfg = SolverConfig(dt=0.015, t_end=120.0,
                       snapshots=tuple(np.linspace(1.2, 120.0, 100)))
    traj = simulate(initial_data_build(1.0, 8.0, 2.0, 1.0), grid, cfg, p)
    trace = track_level(traj, 0.5)

    fit = fit_exponential_rate(trace, reference=0.25)
    assert abs(fit.value - 0.25) <= 0.25 * 0.25, fit  # within 25% of Gamma

    res = sandwich_check(trace, envelopes(p, epsilon=0.1))
    assert res.passed, (res.T, res.violations[-5:])
    print(f"AC3 PASS (rate {fit.value:.4f}, contained from t={res.T:.1f})")


# --- 4: no acceleration ------------------------------------------------------------

def test_ac04_no_acceleration_speed_bracket():
    p = P(2.0, 1.0, 2.5)
    grid = grid_build("uniform", -10.0, 110.0, 2400)
    cfg = SolverConfig(dt=0.01, t_end=40.0,
                       snapshots=tuple(np.linspace(0.5, 40.0, 80)))
    traj = simulate(initial_data_build(1.0, 1.0, 2.0, 1.0), grid, cfg, p)
    trace = track_level(traj, 0.5)

    c_up = constant_speed_super(p).constants["c"]
    # the pushed wave must carry an amplitude above the tracked level 0.5
    cert = waves.find_compact_support_speed(
        waves.g_fn(2.0, default_reaction(p)), 0.6)
    sel = trace.t >= 20.0
    speeds = trace.x[sel] / trace.t[sel]
    assert speeds.size >= 30
    assert np.all(speeds <= c_up), (speeds.max(), c_up)
    assert np.all(speeds >= cert.c0), (speeds.min(), cert.c0)
    print(f"AC4 PASS (x/t in [{speeds.min():.3f}, {speeds.max():.3f}] "
          f"inside [{cert.c0}, {c_up}])")


# --- 5: infinite speed --------------------------------------------------------------

def test_ac05_infinite_speed_fills_every_cone():
    p = P(0.5, 3.0, 1.4, r=9.0, r_bar=9.0)
    grid = grid_build("geometric", -10.0, 110.0, 2600, ratio=1.002)
    cfg = SolverConfig(dt=0.002, t_end=14.0,
                       snapshots=tuple(np.arange(1.0, 14.5, 0.5)))
    traj = simulate(initial_data_build(1.0, 3.0, 2.0, 1.0), grid, cfg, p)

    finals = {}
    for c in (1.0, 2.0, 4.0):
        mins = [float(f.values[grid.x <= c * t].min())
                for t, f in zip(traj.times, traj.fields)]
        assert np.all(np.diff(mins) > -1e-9), (c, np.diff(mins).min())
        assert mins[-1] > 0.9, (c, mins[-1])
        finals[c] = mins[-1]
    print(f"AC5 PASS (cone minima at t=14: {finals})")


# --- 6: comparison certificates ------------------------------------------------------

def test_ac06_comparison_certificates_have_the_right_sign():
    poly = P(2.0, 2.0, 1.25)
    kpp = P(0.5, 8.0, 1.0)
    noacc = P(2.0, 1.0, 2.5)
    mix = P(0.5, 3.0, 1.2)
    cases = [
        (pme_bump_params(poly, 0.1), poly),
        (fde_sub_params(kpp, 0.1), kpp),
        (appendix_sub_params(mix, 0.1), mix),
        (growth_super(poly, 0.1), poly),
        (growth_super(kpp, 0.1), kpp),
        (growth_super(mix, 0.1), mix),
        (constant_speed_super(noacc), noacc),
        (right_tail_spec(poly), poly),
        (right_tail_spec(kpp), kpp),
        (right_tail_spec(noacc), noacc),
        (right_tail_spec(mix), mix),
    ]
    for spec, p in cases:
        rep = discrete_residual(None, spec, p, samples=spec.sampler())
        tag = (spec.kind, p.m, p.alpha, p.beta)
        if spec.sign < 0:
            assert rep.max_residual <= rep.tolerance, (tag, rep)
        else:
            assert rep.min_residual >= -rep.tolerance, (tag, rep)
    print(f"AC6 PASS ({len(cases)} certificates signed correctly)")


# --- 7: shooting and transform --------------------------------------------------------

def test_ac07_shooting_classification_and_transform():
    m = 0.5
    g = waves.g_fn(m, f_logistic)
    h = 1e-5
    for c in (1.0, 5.0, 20.0):
        res = waves.shoot(c, 0.5, g)
        assert res.outcome == waves.CASE_III, (c, res.outcome)
        prof = waves.engler_transform(res, m)
        worst = 0.0
        for x in np.linspace(0.15 * prof.x_c, 0.8 * prof.x_c, 30):
            u0, ul, ur = (prof.u_of_x(x), prof.u_of_x(x - h),
                          prof.u_of_x(x + h))
            d2 = (ur ** m - 2.0 * u0 ** m + ul ** m) / h ** 2
            d1 = (ur - ul) / (2.0 * h)
            worst = max(worst, abs(d2 + c * d1 + f_logistic(u0)))
        assert worst <= 1e-4, (c, worst)

    res1 = waves.shoot(1.0, 0.5, waves.g_fn(1.0, f_logistic))
    prof1 = waves.engler_transform(res1, 1.0)
    n = len(prof1.x)
    assert np.max(np.abs(prof1.x[:-1] - res1.y[:n - 1])) <= 1e-12
    assert abs(prof1.x_c - res1.y_c) <= 1e-12
    print("AC7 PASS (case iii at c=1,5,20; ODE residual <= 1e-4; m=1 identity)")


# --- 8: tail fattening -----------------------------------------------------------------

def test_ac08_fast_diffusion_tail_fattening():
    p = P(0.5, 10.0, 1.0)
    grid = grid_build("geometric", -5.0, 4000.0, 2500, ratio=1.004)
    cfg = SolverConfig(dt=5e-4, t_end=1.0, snapshots=(0.5, 1.0),
                       reaction_on=False)
    traj = simulate(initial_data_build(1.0, 10.0, 2.0, 1.0), grid, cfg, p)
    rep = tail_fattening_check(traj, p, 1.0, (100.0, 1000.0))
    assert rep.passed and rep.value <= 4.25, rep
    print(f"AC8 PASS (tail exponent {rep.value:.3f} <= 4.25)")


# --- 9: classical front speed ------------------------------------------------------------

def test_ac09_classical_kpp_speed_regression():
    p = P(1.0, float("inf"), 1.0)
    grid = grid_build("uniform", -10.0, 80.0, 1800)
    cfg = SolverConfig(dt=0.01, t_end=30.0,
                       snapshots=tuple(np.linspace(1.0, 30.0, 60)),
                       right="zero-value")
    traj = simulate(initial_data_build(1.0, float("inf"), 2.0, 1.0),
                    grid, cfg, p)
    trace = track_level(traj, 0.5)
    sel = trace.t >= 22.5
    speed = float(np.polyfit(trace.t[sel], trace.x[sel], 1)[0])
    assert 1.8 <= speed <= 2.1, speed
    print(f"AC9 PASS (front speed {speed:.4f})")


# --- 10: comparison principle ---------------------------------------------------------------

def test_ac10_randomized_comparison_ordering():
    rng = np.random.default_rng(20260814)
    grid = grid_build("uniform", -10.0, 30.0, 200)
    cfg = SolverConfig(dt=0.01, t_end=2.0,
                       snapshots=tuple(np.linspace(0.25, 2.0, 8)),
                       right="zero-value")
    worst = -math.inf
    for k in range(20):
        m = (0.5, 1.0, 2.0)[k % 3]
        alpha = float(rng.uniform(1.5, 10.0))
        beta = float(rng.uniform(1.3, 2.2))
        C = float(rng.uniform(0.3, 1.0))
        x0 = float(rng.uniform(1.5, 4.0))
        plate = float(rng.uniform(0.5, 1.0))
        lam = float(rng.uniform(0.25, 0.9))
        p = ModelParams(m=m, alpha=alpha, beta=beta, r=1.0, r_bar=1.0,
                        C=C, C_bar=C, s0=0.5, x0=x0)
        datum = initial_data_build(C, alpha, x0, plate)
        hi = simulate(datum, grid, cfg, p)
        lo = simulate(lambda x: lam * datum(x), grid, cfg, p)
        rep = ordering_check(lo, hi, tolerance=1e-9)
        assert rep.passed, (k, m, alpha, beta, lam, rep)
        worst = max(worst, rep.max_violation)
    print(f"AC10 PASS (20 pairs stay ordered, worst gap {worst:.2e})")
