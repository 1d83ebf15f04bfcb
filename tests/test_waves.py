import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from frontlab.cli import main
from frontlab.errors import (DomainError, NonTermination, SearchExhausted,
                             TransformError)
from frontlab.model import ModelParams, default_reaction
from frontlab.waves import (
    ATOL,
    CASE_I,
    CASE_II,
    CASE_III,
    MAX_RHS_CALLS,
    NORM_TOL,
    RTOL,
    SLOPE_TOL,
    ShootResult,
    engler_transform,
    find_compact_support_speed,
    g_fn,
    ignition_truncate,
    shoot,
)


def f_logistic(s):
    return s * (1.0 - s)


# --- the g evaluator ----------------------------------------------------------

def test_g_eval_by_substitution():
    # 0.5 * f(0.25) * 0.25^(-1/2) = 0.5 * 0.1875 * 2
    assert g_fn(0.5, f_logistic)(0.25) == pytest.approx(0.1875, rel=1e-14)


def test_g_eval_is_identity_at_m_one():
    s = np.linspace(0.0, 1.0, 17)
    g = g_fn(1.0, f_logistic)
    assert np.allclose([g(v) for v in s], f_logistic(s), atol=0.0)


def test_g_over_s_blows_up_for_fast_diffusion():
    g = g_fn(0.5, f_logistic)
    ratios = [g(s) / s for s in (1e-2, 1e-4, 1e-6)]
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 1e2


def test_g_eval_rejects_bad_density():
    g = g_fn(0.5, f_logistic)
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(DomainError):
            g(bad)


@pytest.mark.parametrize("m", [0.0, -0.5, math.nan])
def test_g_fn_rejects_a_nonpositive_m(m):
    with pytest.raises(DomainError):
        g_fn(m, f_logistic)


# --- shooting ----------------------------------------------------------------

def test_shoot_without_dynamics_never_terminates():
    with pytest.raises(NonTermination):
        shoot(0.0, 0.5, lambda s: 0.0)


def stalling_g():
    # at r 1e200 LSODA stalls near V = 0.5, with no event and short of the
    # end of the window
    params = ModelParams(m=2.0, alpha=math.inf, beta=1.0, r=1e200,
                         r_bar=1e200, C=1.0, C_bar=1.0, s0=0.5, x0=2.0)
    return g_fn(2.0, default_reaction(params))


def test_a_stalled_shot_raises_non_termination_with_its_call_count():
    with pytest.raises(NonTermination, match="stalled") as exc:
        shoot(1.0, 0.5, stalling_g())
    assert exc.value.calls == MAX_RHS_CALLS


def test_shoot_validates_inputs():
    g = g_fn(0.5, f_logistic)
    with pytest.raises(DomainError):
        shoot(1.0, 0.0, g)
    for bad_c in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            shoot(bad_c, 0.5, g)
    for bad_y_max in (math.nan, 0.0, -1.0):
        with pytest.raises(DomainError):
            shoot(1.0, 0.5, g, bad_y_max)


@pytest.mark.parametrize("c", [1.0, 5.0, 20.0])
def test_fast_diffusion_shots_hit_zero(c):
    res = shoot(c, 0.5, g_fn(0.5, f_logistic))
    assert res.outcome == CASE_III
    assert res.terminal_slope < -1e-10
    assert res.y_c > 0.0
    # V decreases once it leaves the start
    assert res.V[0] == pytest.approx(0.5)
    assert np.all(np.diff(res.V[res.y > 0.05]) <= 1e-12)


def test_case_iii_crossing_against_independent_integration():
    c = 1.0
    res = shoot(c, 0.5, g_fn(0.5, f_logistic))

    # independent route: RK45 at tight tolerance, crossing from dense output
    def rhs(_y, s):
        v, vp = s
        gv = 0.5 * v * (1.0 - v) * v ** -0.5 if v > 0 else 0.0
        return (vp, -c * vp - gv)

    def hit(_y, s):
        return s[0]
    hit.terminal = True
    hit.direction = -1.0
    ref = solve_ivp(rhs, (0.0, 100.0), [0.5, 0.0], method="RK45",
                    rtol=1e-11, atol=1e-13, events=[hit])
    assert ref.status == 1
    y_ref = float(ref.t_events[0][0])
    slope_ref = float(ref.y_events[0][0][1])
    assert res.y_c == pytest.approx(y_ref, rel=1e-6)
    assert res.terminal_slope == pytest.approx(slope_ref, rel=1e-5)


NO_EVENT = "non-termination"


def radau_reference(c, delta, g, y_max=None):
    """The shot integrated by scipy's Radau with shoot()'s tolerances, window
    and terminal events: (outcome, y_c)."""
    if y_max is None:
        y_max = 1e6 / max(c, 1.0)

    def rhs(_y, s):
        v, vp = s
        return (vp, -c * vp - (g(v) if v > 0.0 else 0.0))

    def cross(_y, s):
        return s[0]
    cross.terminal = True
    cross.direction = -1.0

    def origin(_y, s):
        return math.hypot(s[0], s[1]) - NORM_TOL
    origin.terminal = True
    origin.direction = -1.0

    ref = solve_ivp(rhs, (0.0, y_max), [delta, 0.0], method="Radau",
                    rtol=RTOL, atol=ATOL,
                    events=[cross, origin])
    if ref.status != 1:
        return NO_EVENT, None
    if len(ref.t_events[0]):
        slope = float(ref.y_events[0][0][1])
        return (CASE_III if slope < -SLOPE_TOL else CASE_II,
                float(ref.t_events[0][0]))
    return CASE_I, None


@pytest.mark.parametrize("truncate", [False, True], ids=["full", "ignition"])
@pytest.mark.parametrize("c", [0.25, 1.0, 5.0, 20.0])
@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_shoot_agrees_with_a_radau_reference(m, c, truncate):
    g = g_fn(m, f_logistic)
    if truncate:
        g = ignition_truncate(g, 0.5)
    outcome, y_c = radau_reference(c, 0.5, g)
    try:
        res = shoot(c, 0.5, g)
    except NonTermination:
        assert outcome == NO_EVENT
        return
    assert res.outcome == outcome
    if outcome == CASE_III:
        assert res.y_c == pytest.approx(y_c, rel=1e-6)


def test_non_termination_agrees_with_a_radau_reference():
    # g ~ 2 s^2 near zero: the default window ends before the origin event,
    # and the long window ends in case i, under either integrator
    g = g_fn(2.0, f_logistic)
    assert radau_reference(10.0, 0.5, g) == (NO_EVENT, None)
    with pytest.raises(NonTermination):
        shoot(10.0, 0.5, g)
    assert radau_reference(10.0, 0.5, g, 1e10) == (CASE_I, None)
    assert shoot(10.0, 0.5, g, 1e10).outcome == CASE_I


# float.hex of (y_c, terminal_slope) for AC7's shots: m = 0.5, delta = 0.5
AC7_SHOT_BITS = {
    1.0: ("0x1.e397dde565ea6p+1", "-0x1.0bc8eb871c3e8p-3"),
    5.0: ("0x1.104e90e4bb4c8p+4", "-0x1.2df3363a3d388p-9"),
    20.0: ("0x1.18de6d091c909p+6", "-0x1.2f1a09cebc0ebp-15"),
}


@pytest.mark.parametrize("c", sorted(AC7_SHOT_BITS))
def test_ac7_shots_match_the_golden_bits(c):
    res = shoot(c, 0.5, g_fn(0.5, f_logistic))
    assert res.outcome == CASE_III
    assert (float.hex(res.y_c), float.hex(res.terminal_slope)) \
        == AC7_SHOT_BITS[c]


def test_speed_certificate_matches_the_golden_value():
    noacc = ModelParams(m=2.0, alpha=1.0, beta=2.5, r=1.0, r_bar=1.0,
                        C=1.0, C_bar=1.0, s0=0.5, x0=2.0)
    cert = find_compact_support_speed(
        g_fn(2.0, default_reaction(noacc)), 0.5)
    assert cert.c0 == 0.25


def test_wave_profile_matches_the_golden_hash(tmp_path, capsys):
    assert main(["wave", "--c", "1", "--m", "0.5", "--beta", "1",
                 "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256(
        (tmp_path / "wave_profile.csv").read_bytes()).hexdigest()
    assert digest == ("221c61ec591ab6c5b4f03cc2a1958c3d"
                      "cfa7f1c6fd3353f8a2c666aaf57a7596")


def test_crossing_distance_grows_with_damping():
    ycs = [shoot(c, 0.5, g_fn(0.5, f_logistic)).y_c for c in (1.0, 5.0, 20.0)]
    assert ycs[0] < ycs[1] < ycs[2]


def test_porous_medium_fast_shot_decays_to_origin():
    g = g_fn(2.0, f_logistic)
    # g ~ 2 s^2 near zero, so V decays like c/(2y): the origin event needs
    # y ~ c / (2e-8), far past the default window
    with pytest.raises(NonTermination):
        shoot(10.0, 0.5, g)
    res = shoot(10.0, 0.5, g, y_max=1e10)
    assert res.outcome == CASE_I
    assert res.y_c is None
    assert res.terminal_slope is None


def test_case_i_obeys_the_damping_inequality():
    res = shoot(10.0, 0.5, g_fn(2.0, f_logistic), y_max=1e10)
    ok = res.Vp >= -10.0 * res.V - 1e-12
    first = int(np.argmax(ok))
    assert ok[first:].all()  # c V >= -V' from the first crossing onward


# --- ignition truncation -----------------------------------------------------

def test_ignition_ramp_shape():
    g = g_fn(0.5, f_logistic)
    gt = ignition_truncate(g, 0.4)
    for s in np.linspace(0.0, 0.2, 9):
        assert gt(s) == 0.0
    for s in np.linspace(0.3, 0.99, 9):
        assert gt(s) == pytest.approx(g(s), rel=1e-14)
    for s in np.linspace(0.0, 0.999, 300):
        assert 0.0 <= gt(s) <= g(s) + 1e-15


def test_ignition_truncate_validates_delta():
    g = g_fn(0.5, f_logistic)
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(DomainError):
            ignition_truncate(g, bad)


def test_ignition_kills_the_infinite_slope():
    gt = ignition_truncate(g_fn(0.5, f_logistic), 0.4)
    s = np.linspace(1e-9, 0.19, 50)
    assert all(gt(v) == 0.0 for v in s)


# --- the mass-coordinate transform -------------------------------------------

def test_transform_is_identity_at_m_one():
    res = shoot(0.5, 0.5, g_fn(1.0, f_logistic))
    assert res.outcome == CASE_III
    prof = engler_transform(res, 1.0)
    kept = res.y[res.y <= res.y_c * (1.0 - 1e-6)]
    assert np.max(np.abs(prof.x[:-1] - kept)) < 1e-9
    assert prof.x_c == pytest.approx(res.y_c, rel=1e-6)
    assert np.max(np.abs(prof.U[:-1] - res.V[: len(kept)])) == 0.0


def test_transform_matches_closed_form_for_linear_profile():
    # V = delta (1 - y / y_c) gives x_c = y_c / sqrt(delta) for m = 1/2
    delta, y_c = 0.5, 2.0
    y = np.linspace(0.0, y_c, 400)
    res = ShootResult(outcome=CASE_III, c=1.0, delta=delta, y_c=y_c,
                      terminal_slope=-delta / y_c, y=y,
                      V=delta * (1.0 - y / y_c),
                      Vp=np.full_like(y, -delta / y_c))
    prof = engler_transform(res, 0.5)
    assert prof.x_c == pytest.approx(y_c / math.sqrt(delta), rel=1e-6)


def test_transform_requires_case_iii():
    res = shoot(10.0, 0.5, g_fn(2.0, f_logistic), y_max=1e10)
    with pytest.raises(TransformError):
        engler_transform(res, 2.0)


def test_transform_rejects_nonpositive_m():
    res = shoot(1.0, 0.5, g_fn(0.5, f_logistic))
    with pytest.raises(DomainError):
        engler_transform(res, 0.0)


def test_profile_endpoints_and_monotonicity():
    res = shoot(5.0, 0.5, g_fn(0.5, f_logistic))
    prof = engler_transform(res, 0.5)
    assert prof.U[0] == pytest.approx(0.5)
    assert prof.U[-1] == 0.0
    assert np.all(np.diff(prof.x) > 0.0)       # strictly increasing map
    assert np.all(np.diff(prof.U) <= 1e-12)    # decreasing profile
    assert prof.u_of_x(0.0) == pytest.approx(0.5)
    assert prof.u_of_x(prof.x_c) == 0.0
    assert prof.u_of_x(2.0 * prof.x_c) == 0.0


def test_transform_round_trip_inverse():
    res = shoot(5.0, 0.5, g_fn(0.5, f_logistic))
    prof = engler_transform(res, 0.5)
    back = prof.u_of_x(prof.x)
    assert np.max(np.abs(back - prof.U)) < 1e-8


def test_profile_satisfies_the_traveling_ode():
    m, c = 0.5, 5.0
    res = shoot(c, 0.5, g_fn(m, f_logistic))
    prof = engler_transform(res, m)
    h = 1e-5
    xs = np.linspace(0.15 * prof.x_c, 0.8 * prof.x_c, 30)
    worst = 0.0
    for x in xs:
        u0, ul, ur = (prof.u_of_x(x), prof.u_of_x(x - h), prof.u_of_x(x + h))
        d2 = (ur ** m - 2.0 * u0 ** m + ul ** m) / h ** 2
        d1 = (ur - ul) / (2.0 * h)
        worst = max(worst, abs(d2 + c * d1 + f_logistic(u0)))
    assert worst < 1e-4


# --- minimal-speed search ------------------------------------------------------

def test_speed_search_returns_certified_power_of_two():
    cert = find_compact_support_speed(g_fn(2.0, f_logistic), 0.3)
    assert 0.0 < cert.c0 <= 1.0
    assert math.log2(cert.c0).is_integer()
    assert cert.delta == 0.3
    assert cert.ignition.outcome == CASE_III
    assert cert.full.outcome == CASE_III
    assert cert.full.terminal_slope < -1e-10


def test_speed_search_is_monotone_below_the_certificate():
    g = g_fn(2.0, f_logistic)
    cert = find_compact_support_speed(g, 0.3)
    again = shoot(cert.c0 / 2.0, 0.3, g)
    assert again.outcome == CASE_III


def test_speed_search_gives_up_after_its_last_halving():
    # g = 0 never reaches an event: each of the 41 shots runs to the end of
    # its window, and none stalls, so the search moves on each time
    with pytest.raises(SearchExhausted, match="40 halvings"):
        find_compact_support_speed(lambda s: 0.0, 0.5)


def test_speed_search_raises_a_stalled_shot_at_once():
    # a shot that runs out of window moves the search on; a stalled one
    # ends it, instead of stalling again at each of 41 speeds
    with pytest.raises(NonTermination) as exc:
        find_compact_support_speed(stalling_g(), 0.5)
    assert exc.value.calls == MAX_RHS_CALLS


def test_zero_speed_energy_identity():
    # with c = 0 the shot conserves (V')^2 / 2 + G(V), so the terminal
    # slope squares to twice the potential drop from delta to zero
    delta = 0.4
    gt = ignition_truncate(g_fn(0.5, f_logistic), delta)
    res = shoot(0.0, delta, gt)
    assert res.outcome == CASE_III
    drop = quad(gt, 0.0, delta, points=[0.2, 0.3])[0]
    assert 0.5 * res.terminal_slope ** 2 == pytest.approx(drop, rel=1e-6)
