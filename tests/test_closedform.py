import hashlib
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from frontlab import closedform as cf
from frontlab.errors import (BlowUp, DomainError, InfeasibleSelection,
                             RegimeMismatch)
from frontlab.model import ModelParams, initial_data_build
from frontlab.regimes import classify


def make_params(m, alpha, beta, **over):
    base = dict(m=m, alpha=alpha, beta=beta, r=1.0, r_bar=1.0,
                C=1.0, C_bar=1.0, s0=0.5, x0=2.0)
    base.update(over)
    return ModelParams(**base)


PME = make_params(2.0, 2.0, 1.25)
FDE = make_params(0.5, 8.0, 1.0)
NOACC = make_params(2.0, 1.0, 2.5)
MIX = make_params(0.5, 3.0, 1.2)


def assert_certified(spec):
    for ch in spec.checks:
        if ch.strict:
            assert ch.margin > 0.0, ch.name
        else:
            assert ch.margin >= 0.0, ch.name


# --- growth of the spatially-frozen ODE ------------------------------------

def test_blowup_time_matches_quadrature():
    for u0, rho, beta in [(0.5, 1.0, 2.0), (0.1, 0.7, 1.5), (0.9, 2.0, 3.0)]:
        exact, _ = quad(lambda u: 1.0 / (rho * u ** beta), u0, np.inf)
        g = cf.GrowthSolution(rho=rho, beta=beta, u0=lambda x: u0)
        with pytest.raises(BlowUp) as exc:
            cf.growth_eval(g, 2.0 * exact, 0.0)
        assert exc.value.t_blow == pytest.approx(exact, rel=1e-10)


def test_growth_solution_hits_level_curve():
    theta, t, C, alpha, beta, rho = 0.5, 1.0, 1.0, 2.0, 1.25, 0.8
    x = cf.level_curve(theta, t, C, alpha, beta, rho)
    u0 = C / x ** alpha
    # closed form of w' = rho w^beta, w(0) = u0
    bm1 = beta - 1.0
    w = (u0 ** -bm1 - rho * bm1 * t) ** (-1.0 / bm1)
    assert w == pytest.approx(theta, rel=1e-10)


def test_blowup_with_array_times_reports_the_earliest_blowup():
    rho, beta = 0.8, 1.25
    datum = initial_data_build(1.0, 2.0, 2.0, 1.0)
    g = cf.GrowthSolution(rho=rho, beta=beta, u0=datum)
    x = np.array([3.0, 5.0, 9.0])
    # T = 1/(rho (beta-1) u0^(beta-1)) at each point
    t_blow = [1.0 / (rho * (beta - 1.0) * float(datum(v)) ** (beta - 1.0))
              for v in x]
    # only the last point is past its own blow-up; the first blows up first
    t = np.array([0.0, 0.0, 1.01 * t_blow[2]])
    with pytest.raises(BlowUp) as exc:
        cf.growth_eval(g, t, x)
    assert exc.value.t_blow == pytest.approx(t_blow[0], rel=1e-12)
    assert t_blow[0] == min(t_blow)


# --- constructions at their home parameter sets -----------------------------

def test_pme_bump_certificate():
    spec = cf.pme_bump_params(PME, 0.3)
    assert spec.sign == -1
    assert_certified(spec)
    doc = cf.describe(spec)
    assert doc["kind"] == "pme-bump"
    assert {"eta", "rho", "A", "x1"} <= set(doc["constants"])


def test_pme_bump_rejects_fast_diffusion():
    with pytest.raises(RegimeMismatch):
        cf.pme_bump_params(FDE, 0.1)


def test_fde_plateau_certificate():
    spec = cf.fde_sub_params(FDE, 0.1)
    assert spec.sign == -1
    assert_certified(spec)
    # plateau values stay below the carrying capacity
    ts, xs = spec.sampler()
    vals = spec.evaluate(float(ts.max()), xs)
    assert np.all(vals <= 1.0) and np.all(vals >= 0.0)


def test_fde_plateau_rejects_lower_only_band():
    with pytest.raises(RegimeMismatch):
        cf.fde_sub_params(MIX, 0.1)


def test_appendix_plateau_certificate():
    spec = cf.appendix_sub_params(MIX, 0.1)
    assert spec.sign == -1
    assert_certified(spec)


def test_constant_speed_super_certificate():
    spec = cf.constant_speed_super(NOACC)
    assert spec.sign == +1
    assert_certified(spec)
    c = spec.constants["c"]
    base = NOACC.r_bar * (NOACC.beta - 1.0) * max(1.0, NOACC.C_bar) ** (
        NOACC.beta - 1.0)
    assert c > base


def test_constant_speed_super_rejects_acceleration():
    with pytest.raises(RegimeMismatch):
        cf.constant_speed_super(PME)


def test_growth_super_certificates():
    for params in (PME, FDE, MIX):
        spec = cf.growth_super(params, 0.1)
        assert spec.sign == +1
        assert_certified(spec)


def test_growth_super_dominates_datum_at_time_zero():
    for params in (PME, FDE, MIX):
        spec = cf.growth_super(params, 0.1)
        datum = initial_data_build(params.C_bar, params.alpha, params.x0, 1.0)
        x = np.geomspace(0.1, 1e6, 4000)
        x = np.concatenate([np.linspace(-20.0, 0.0, 50), x])
        w0 = spec.evaluate(0.0, x)
        assert np.all(w0 >= datum(x) - 1e-12), params


def test_growth_super_nondecreasing_in_time():
    spec = cf.growth_super(FDE, 0.1)
    x = np.geomspace(1.0, 1e5, 500)
    prev = spec.evaluate(0.0, x)
    for t in (0.5, 1.0, 2.0, 4.0):
        cur = spec.evaluate(t, x)
        assert np.all(cur >= prev - 1e-12)
        prev = cur


@pytest.mark.parametrize("x_right", [-3.0, 0.0, math.inf, math.nan])
def test_edge_clamp_refuses_an_edge_that_is_not_positive_and_finite(x_right):
    # x_right^a with a = 2.5 is complex at -3; at inf the edge value is 0,
    # which the clamp cannot grow, and at NaN it would read 1
    params = make_params(2.0, 2.5, 1.25)
    with pytest.raises(DomainError, match="x_right must be positive"):
        cf.edge_clamp(params, classify(2.0, 2.5, 1.25), x_right)


def test_right_tail_specs_certify_everywhere():
    for params in (PME, FDE, NOACC, MIX):
        spec = cf.right_tail_spec(params)
        assert spec.sign == +1
        assert spec.reaction_free
        assert_certified(spec)


def test_right_tail_refuses_a_factor_past_the_float_range_by_name():
    # m (m-1) overflows even at the smallest mu tried, so the factor is NaN
    # at every mu; it is refused by name, with no numpy warning
    with pytest.raises(InfeasibleSelection, match="out of float range"):
        cf.right_tail_spec(make_params(1e300, 300.0, 1.0), eps=1e-9)


def test_right_tail_certifies_below_the_mus_that_leave_the_float_range():
    # mu m (m-1) overflows for mu near 1 at m = 1e155, but not once mu is
    # small: the search passes over the large mu without a warning
    spec = cf.right_tail_spec(make_params(1e155, 300.0, 1.0), eps=1e-9)
    assert spec.constants["mu"] == 2.0 ** -6
    assert_certified(spec)


def test_describe_is_json_ready():
    import json
    doc = cf.describe(cf.growth_super(PME, 0.1))
    json.dumps(doc)
    assert doc["sign"] == 1
    assert all(ch["margin"] >= 0.0 for ch in doc["checks"])


# --- array evaluation -------------------------------------------------------

@pytest.fixture(scope="module")
def ac6_specs():
    """The 11 certificates AC6 checks, in its order."""
    return ([cf.pme_bump_params(PME, 0.1), cf.fde_sub_params(FDE, 0.1),
             cf.appendix_sub_params(MIX, 0.1)]
            + [cf.growth_super(p, 0.1) for p in (PME, FDE, MIX)]
            + [cf.constant_speed_super(NOACC)]
            + [cf.right_tail_spec(p) for p in (PME, FDE, NOACC, MIX)])


@pytest.mark.parametrize("index", range(11))
def test_array_evaluation_matches_one_point_calls_bit_for_bit(ac6_specs,
                                                              index):
    spec = ac6_specs[index]
    ts, xs = spec.sampler()
    got = spec(ts, xs)
    want = np.array([spec(float(t), float(x)) for t, x in zip(ts, xs)])
    assert got.shape == ts.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64),
                                  err_msg=spec.kind)


# sha256 of json.dumps(describe(spec), sort_keys=True) for each AC6 spec, in
# AC6's order: every selected constant and every ledger margin, to the bit
AC6_DESCRIBE_SHA256 = [
    # pme-bump at PME, fde-plateau at FDE, appendix at MIX
    "3f46b392d3dfffcb1939d31cd8ae7acdfcb29854f30eccfc59c5f3311b60e5d3",
    "4c1abba70e68dd05d7ca1be4121a2e964bee1bf9f990ce65e3ca77ecad0b36bf",
    "4f7bfe6d5aa67cdd2bf0a3a2aba0c95dc616d9b7a66a142aa62a811d375ef0d2",
    # growth-super at PME, FDE, MIX
    "a67fd7197b050e9e566e8c4787ef5c44ba36971d20e784b353d09c824c081591",
    "fb7b8b474686bda56df25b22f25f1356263131e115fef5b14685d4434ca04998",
    "e5a3c6b27ccd7d9a834e381fe6c674db305d8af2e099d9cecd61c077c290a9c2",
    # const-super at NOACC
    "8512d9b812fd7d1b18868754b1d7b5463a604ff4765baeec301c29df4d259713",
    # right-tail at PME, FDE, NOACC, MIX
    "daad39020f3271cc106f744b7e800a7d1f53966d93989a5d6c99d31a968ee9bf",
    "287daea5321332a677b80cd476bb3025633ee2f5206539722b4df636108bf925",
    "daad39020f3271cc106f744b7e800a7d1f53966d93989a5d6c99d31a968ee9bf",
    "287daea5321332a677b80cd476bb3025633ee2f5206539722b4df636108bf925",
]


@pytest.mark.parametrize("index", range(11))
def test_ac6_descriptions_match_the_golden_hashes(ac6_specs, index):
    text = json.dumps(cf.describe(ac6_specs[index]), sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == AC6_DESCRIBE_SHA256[index]), text
