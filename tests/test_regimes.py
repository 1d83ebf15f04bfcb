import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from frontlab.closedform import constant_speed_super
from frontlab.errors import DomainError, RegimeMismatch
from frontlab.model import ModelParams, default_reaction
from frontlab.regimes import (
    KINDS,
    NUMBER_FIELD,
    Regime,
    RegimeKind,
    classify,
    classify_row,
    envelopes,
    gamma_effective,
)
from frontlab.waves import find_compact_support_speed, g_fn


def make_params(m, alpha, beta, **over):
    base = dict(m=m, alpha=alpha, beta=beta, r=1.0, r_bar=1.0,
                C=1.0, C_bar=1.0, s0=0.5, x0=2.0)
    base.update(over)
    return ModelParams(**base)


# --- pointwise classifications --------------------------------------------

@pytest.mark.parametrize("m,alpha,beta,regime", [
    (2.0, 2.0, 2.5, Regime.NO_ACCELERATION),
    (2.0, 2.0, 1.25, Regime.POLYNOMIAL),
    (0.5, 8.0, 1.0, Regime.EXPONENTIAL),
    (0.5, 3.0, 1.2, Regime.POLY_LOWER_ONLY),
    (0.5, 3.0, 1.4, Regime.INFINITE_SPEED),
    (0.5, 3.0, 1.6, Regime.NO_ACCELERATION),
    (1.0, 2.0, 1.0, Regime.EXPONENTIAL),
    (2.0, float("inf"), 1.0, Regime.NO_ACCELERATION),
])
def test_classify_examples(m, alpha, beta, regime):
    assert classify(m, alpha, beta).regime is regime


@pytest.mark.parametrize("m,alpha,beta,regime", [
    (2.0, 2.0, 2.5, Regime.NO_ACCELERATION),
    (2.0, float("inf"), 1.0, Regime.NO_ACCELERATION),
    (0.5, 3.0, 1.6, Regime.NO_ACCELERATION),
    (0.5, 3.0, 1.4, Regime.INFINITE_SPEED),
])
def test_number_free_kinds_are_shared_and_frozen(m, alpha, beta, regime):
    kind = classify(m, alpha, beta)
    assert kind == RegimeKind(regime)
    assert kind is classify(m, alpha, beta)
    with pytest.raises(dataclasses.FrozenInstanceError):
        kind.gamma = 1.0
    assert classify(m, alpha, beta) == RegimeKind(regime)


def test_polynomial_exponent_value():
    kind = classify(2.0, 2.0, 1.25)
    assert kind.exponent == pytest.approx(1.0 / (2.0 * 0.25))


def test_exponential_rate_uses_effective_tail():
    # Gamma = max((1-m)/2, 1/alpha): the faster of tail decay and fattening
    kind = classify(0.5, 8.0, 1.0)
    assert kind.gamma == pytest.approx(0.25)   # (1-m)/2 wins over 1/8
    kind = classify(0.5, 3.0, 1.0)
    assert kind.gamma == pytest.approx(1.0 / 3.0)


def test_gamma_is_tail_rate_for_m_at_least_one():
    for m in (1.0, 1.5, 2.0, 3.0):
        kind = classify(m, 5.0, 1.0)
        assert kind.regime is Regime.EXPONENTIAL
        assert kind.gamma == pytest.approx(0.2)  # (1-m)/2 <= 0 never binds


@pytest.mark.parametrize("m,alpha,beta", [
    (2.0, 2.0, 1.5),          # beta = 1 + 1/alpha
    (0.5, 4.0, 1.0),          # critical fast-diffusion KPP alpha = 2/(1-m)
    (0.5, 3.0, 4.0 / 3.0),    # beta = 1 + 1/gamma
    (0.5, 3.0, 0.5 + 2.0 / 3.0),  # beta = m + 2/gamma, bitwise equal
    (0.5, 3.0, 1.5),          # beta = 2 - m
])
def test_equalities_are_reported_as_boundary(m, alpha, beta):
    assert classify(m, alpha, beta).regime is Regime.BOUNDARY


def test_lower_only_band_starts_just_above_its_edge():
    # exact float equality with m + 2/gamma is flagged as a boundary; one
    # ulp above it the pair is an interior member of the lower-only band
    edge = classify(0.5, 3.0, 0.5 + 2.0 / 3.0)
    assert edge.regime is Regime.BOUNDARY
    assert edge.label == "beta=m+2/gamma"
    inside = classify(0.5, 3.0, 7.0 / 6.0)
    assert inside.regime is Regime.POLY_LOWER_ONLY
    assert inside.exponent == pytest.approx(2.0)


def test_gamma_effective_values_and_domain():
    assert gamma_effective(0.5, 3.0) == 3.0
    assert gamma_effective(0.5, 10.0) == 4.0
    assert gamma_effective(0.5, float("inf")) == 4.0
    assert gamma_effective(1.5, 3.0) == 3.0
    with pytest.raises(DomainError):
        gamma_effective(0.0, 3.0)


# --- the array classifier against the scalar ladder ------------------------

def oracle_exponent(gamma, beta, alpha):
    """1/(gamma (beta-1)); a DomainError where it overflows."""
    exponent = 1.0 / (gamma * (beta - 1.0))
    if math.isinf(exponent):
        raise DomainError(f"the exponent 1/(gamma (beta-1)) overflows at "
                          f"alpha={alpha}, beta={beta}")
    return exponent


def oracle_classify(m, alpha, beta):
    """The phase diagram as one scalar if-ladder per triple: the reference
    classify_row must match cell by cell, bit for bit."""
    if not m > 0:
        raise DomainError(f"m must be positive, got {m}")
    if not beta >= 1:
        raise DomainError(f"beta must be >= 1, got {beta}")
    if not (alpha > 0 and 1.0 / alpha < math.inf):
        raise DomainError(
            f"alpha must lie in (0, inf] with a finite 1/alpha, got {alpha}")

    if m >= 1:
        if beta == 1.0:
            if math.isinf(alpha):
                return RegimeKind(Regime.NO_ACCELERATION)
            return RegimeKind(Regime.EXPONENTIAL, gamma=1.0 / alpha)
        if math.isinf(alpha):
            return RegimeKind(Regime.NO_ACCELERATION)
        b1 = 1.0 + 1.0 / alpha
        if beta == b1:
            return RegimeKind(Regime.BOUNDARY, label="beta=1+1/alpha")
        if beta < b1:
            return RegimeKind(Regime.POLYNOMIAL,
                              exponent=oracle_exponent(alpha, beta, alpha))
        return RegimeKind(Regime.NO_ACCELERATION)

    saturation = 2.0 / (1.0 - m)
    gamma = min(alpha, saturation)
    if beta == 1.0:
        if alpha == saturation:
            return RegimeKind(Regime.BOUNDARY, label="alpha=2/(1-m)")
        return RegimeKind(Regime.EXPONENTIAL,
                          gamma=max((1.0 - m) / 2.0, 1.0 / alpha))

    b1 = 1.0 + 1.0 / gamma
    b2 = m + 2.0 / gamma
    b3 = 2.0 - m
    pinch = 1.0 / (1.0 - m)  # gamma at which b1 = b2 = b3
    if beta == b3 and gamma >= pinch:
        return RegimeKind(Regime.BOUNDARY, label="beta=2-m")
    if beta == b1:
        return RegimeKind(Regime.BOUNDARY, label="beta=1+1/gamma")
    if beta == b2 and gamma > pinch:
        return RegimeKind(Regime.BOUNDARY, label="beta=m+2/gamma")
    if beta < min(b1, b2):
        return RegimeKind(Regime.POLYNOMIAL,
                          exponent=oracle_exponent(gamma, beta, alpha))
    if b2 < beta < b1:
        return RegimeKind(Regime.POLY_LOWER_ONLY,
                          exponent=oracle_exponent(gamma, beta, alpha))
    if b1 < beta < b3:
        return RegimeKind(Regime.INFINITE_SPEED)
    return RegimeKind(Regime.NO_ACCELERATION)


@st.composite
def rows(draw):
    """One (m, alpha) and a few betas: random values, values exactly on
    every dividing curve, and values outside the domain. A drawn alpha
    stays at or above 1e-300, where 1/(gamma (beta-1)) cannot underflow its
    denominator to zero (the ladder would raise ZeroDivisionError there);
    the subnormal 1e-310 is outside the domain, since 1/alpha overflows, and
    1e-300 with beta = 1 + 1e-10 is, since the exponent overflows."""
    nan, inf = math.nan, math.inf
    m = draw(st.one_of(st.floats(0.01, 4.0),
                       st.sampled_from([0.5, 1.0, 2.0, 0.0, -0.5, nan])))
    alphas = [st.floats(1e-3, 1e3),
              st.sampled_from([inf, 0.0, -1.0, nan, 1e-310, 1e-300])]
    if 0 < m < 1:  # the critical alpha, and the one where b1 = b2 = b3
        alphas.append(st.sampled_from([2.0 / (1.0 - m), 1.0 / (1.0 - m)]))
    alpha = draw(st.one_of(alphas))
    edges = [1.0, 1.0 + 1e-10, 2.0 - m, 0.5, -inf, nan, inf]
    if m > 0 and alpha > 0:
        gamma = min(alpha, 2.0 / (1.0 - m)) if m < 1 else alpha
        edges += [1.0 + 1.0 / gamma, m + 2.0 / gamma, 1.0 + 1.0 / alpha]
    beta = st.one_of(st.floats(1.0, 4.0), st.sampled_from(edges),
                     st.floats(-2.0, 1.0))
    return m, alpha, draw(st.lists(beta, min_size=1, max_size=12))


def _bits(x):
    return None if x is None else x.hex()


@settings(max_examples=600, deadline=None)
@given(row=rows())
def test_classify_row_matches_the_scalar_ladder(row):
    m, alpha, betas = row
    codes, values = classify_row(m, alpha, np.array(betas))
    assert codes.shape == values.shape == (len(betas),)
    for beta, code, value in zip(betas, codes.tolist(), values.tolist()):
        try:
            want = oracle_classify(m, alpha, beta)
        except DomainError as exc:
            assert KINDS[code] is None
            with pytest.raises(DomainError) as got:
                classify(m, alpha, beta)
            assert str(got.value) == str(exc)
            continue
        kind = KINDS[code]
        assert (kind.regime, kind.label) == (want.regime, want.label)
        field = NUMBER_FIELD.get(kind.regime)
        numbers = {"gamma": want.gamma, "exponent": want.exponent}
        if field is None:
            assert numbers == {"gamma": None, "exponent": None}
        else:
            assert _bits(value) == _bits(numbers.pop(field))
            assert set(numbers.values()) == {None}
        got = classify(m, alpha, beta)
        assert got == want
        assert (_bits(got.gamma), _bits(got.exponent)) == (
            _bits(want.gamma), _bits(want.exponent))


@pytest.mark.parametrize("m,beta", [(2.0, 1.0), (0.5, 1.5), (0.5, 1.0)])
def test_alpha_with_an_overflowing_reciprocal_is_a_domain_error(m, beta):
    # 1/alpha overflows: gamma or the exponent would come out infinite
    with pytest.raises(DomainError, match="finite 1/alpha"):
        classify(m, 1e-310, beta)
    codes, values = classify_row(m, 1e-310, np.array([beta, 0.5]))
    assert [KINDS[c] for c in codes.tolist()] == [None, None]
    assert np.isnan(values).all()


@pytest.mark.parametrize("m", [2.0, 0.5])
def test_an_overflowing_exponent_is_a_domain_error(m):
    # 1/alpha is finite, but 1/(gamma (beta-1)) overflows
    with pytest.raises(DomainError, match=r"1/\(gamma \(beta-1\)\) overflows"):
        classify(m, 1e-300, 1.0 + 1e-10)
    codes, values = classify_row(m, 1e-300, np.array([1.0 + 1e-10, 1.5]))
    assert KINDS[codes[0]] is None
    assert np.isnan(values[0])
    assert KINDS[codes[1]].regime is Regime.POLYNOMIAL
    assert np.isfinite(values[1])


# --- partition / consistency properties -----------------------------------

ALPHAS = st.one_of(st.floats(0.2, 20.0), st.just(float("inf")))


@settings(max_examples=200, deadline=None)
@given(m=st.floats(0.1, 3.0), alpha=ALPHAS, beta=st.floats(1.0, 3.5))
def test_classify_total_and_deterministic(m, alpha, beta):
    kind = classify(m, alpha, beta)
    assert kind.regime in Regime
    again = classify(m, alpha, beta)
    assert again.regime is kind.regime
    assert again.exponent == kind.exponent


@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(0.3, 15.0), beta=st.floats(1.0, 3.5))
def test_m_equals_one_splits_at_linear_threshold(alpha, beta):
    kind = classify(1.0, alpha, beta)
    thr = 1.0 + 1.0 / alpha
    if abs(beta - thr) < 1e-9 or abs(beta - 1.0) < 1e-12:
        return  # boundary rows and the KPP line have their own cases
    if beta < thr:
        assert kind.regime in (Regime.POLYNOMIAL, Regime.EXPONENTIAL)
    else:
        assert kind.regime is Regime.NO_ACCELERATION


@settings(max_examples=80, deadline=None)
@given(m=st.floats(0.2, 3.0), alpha=st.floats(0.3, 12.0))
def test_no_acceleration_is_upward_closed_in_beta(m, alpha):
    betas = np.linspace(1.0, 3.5, 40)
    seen_none = False
    for b in betas:
        kind = classify(m, float(alpha), float(b))
        if kind.regime is Regime.NO_ACCELERATION:
            seen_none = True
        elif seen_none and kind.regime is not Regime.BOUNDARY:
            raise AssertionError(
                f"acceleration reappeared at beta={b} (m={m}, alpha={alpha})")


# --- envelopes --------------------------------------------------------------

def test_exponential_envelope_values():
    env = envelopes(make_params(0.5, 8.0, 1.0), epsilon=0.1)
    for t in (0.5, 1.0, 4.0):
        assert env.lower(t) == pytest.approx(math.exp(0.225 * t), rel=1e-12)
        assert env.upper(t) == pytest.approx(math.exp(0.275 * t), rel=1e-12)


def test_polynomial_envelope_values():
    env = envelopes(make_params(2.0, 2.0, 1.25), epsilon=0.2)
    for t in (1.0, 3.0, 10.0):
        assert env.lower(t) == pytest.approx((0.8 * 0.25 * t) ** 2, rel=1e-12)
        assert env.upper(t) == pytest.approx((1.2 * 0.25 * t) ** 2, rel=1e-12)


def test_lower_only_upper_exponent():
    env = envelopes(make_params(0.5, 3.0, 1.2), epsilon=0.1)
    # the upper envelope is a monomial (B t)^q: q is its log-log slope
    q = math.log(env.upper(8.0) / env.upper(2.0)) / math.log(4.0)
    assert q == pytest.approx((1.2 - 0.5 + 0.1) / (2.0 * 0.2), rel=1e-12)


def test_infinite_speed_has_only_linear_floor():
    p = make_params(0.5, 3.0, 1.4)
    env = envelopes(p, epsilon=0.1)
    c0 = find_compact_support_speed(g_fn(0.5, default_reaction(p)), 0.5).c0
    assert env.upper is None
    assert env.lower(4.0) == pytest.approx(4.0 * c0)


def test_envelopes_reject_no_acceleration():
    with pytest.raises(RegimeMismatch):
        envelopes(make_params(2.0, 2.0, 2.5), epsilon=0.1)


@settings(max_examples=120, deadline=None)
@given(
    m=st.floats(0.15, 3.0),
    alpha=st.floats(0.4, 12.0),
    beta=st.floats(1.0, 3.2),
    r=st.floats(0.3, 1.5),
    rgap=st.floats(0.0, 1.0),
    cgap=st.floats(0.0, 2.0),
)
def test_envelope_ordering(m, alpha, beta, r, rgap, cgap):
    p = make_params(m, alpha, beta, r=r, r_bar=r + rgap, C=1.0,
                    C_bar=1.0 + cgap)
    kind = classify(m, alpha, beta)
    if kind.regime not in (Regime.EXPONENTIAL, Regime.POLYNOMIAL,
                           Regime.POLY_LOWER_ONLY):
        return
    eps = 0.49 * min(r, 1.0)
    env = envelopes(p, epsilon=eps)
    # order is promised from T on (T > 1 for the lower-only pair, whose
    # mismatched exponents cross late); the 1.01 factor clears the float
    # dust at the crossing itself
    ts = [env.T * 1.01 * s for s in (1.0, 2.0, 7.0, 30.0)]
    # extreme polynomial exponents (1/(alpha(beta-1)) in the hundreds) push
    # both envelopes outside float64 range, where strict order is meaningless
    assume(env.lower(ts[0]) > 0.0 and math.isfinite(env.upper(ts[-1])))
    for t in ts:
        assert env.lower(t) < env.upper(t)


def test_lower_only_pair_orders_after_initial_crossing():
    env = envelopes(make_params(0.5, 3.0, 1.2), epsilon=0.1)
    # (0.18 t)^(5/3) vs (0.22 t)^2: the coarser upper bound starts below
    assert env.lower(1.0) > env.upper(1.0)
    for t in np.linspace(2.0, 100.0, 50):
        assert env.lower(t) < env.upper(t)
    # T brackets the actual crossing
    assert 1.0 < env.T < 2.0
    assert env.lower(0.999 * env.T) > env.upper(0.999 * env.T)
    assert env.lower(1.001 * env.T) < env.upper(1.001 * env.T)


# --- linear speed bound -----------------------------------------------------

def test_linear_speed_bound_exceeds_base():
    # the c_upper of a no-acceleration report: constant_speed_super's speed
    c = constant_speed_super(make_params(2.0, 2.0, 2.0)).constants["c"]
    assert c > 1.0  # base bound r_bar (beta-1) K^(beta-1) = 1
    p = make_params(2.0, 2.0, 3.0, r=2.0, r_bar=2.0, C=2.0, C_bar=2.0)
    assert constant_speed_super(p).constants["c"] > 16.0
