import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frontlab.errors import DomainError
from frontlab.model import (
    Field,
    Grid,
    ModelParams,
    default_reaction,
    field_build,
    grid_build,
    initial_data_build,
    params_from_dict,
    params_to_dict,
    reaction_eval,
    bundle_from_dict,
)


def make_params(**over):
    base = dict(m=2.0, alpha=2.0, beta=1.25, r=1.0, r_bar=1.0,
                C=1.0, C_bar=1.0, s0=0.5, x0=2.0)
    base.update(over)
    return ModelParams(**base)


@pytest.mark.parametrize("bad", [
    dict(m=0.0), dict(m=-1.0), dict(beta=0.9), dict(r=2.0, r_bar=1.0),
    dict(C=2.0, C_bar=1.0), dict(s0=0.0), dict(s0=1.0), dict(alpha=-1.0),
    dict(r=0.0), dict(m=math.inf), dict(beta=math.inf), dict(r_bar=math.inf),
    dict(r=math.inf, r_bar=math.inf), dict(C_bar=math.inf),
    dict(C=math.inf, C_bar=math.inf), dict(x0=math.inf),
])
def test_params_validation_rejects(bad):
    with pytest.raises(DomainError):
        make_params(**bad)


def test_params_accepts_infinite_alpha():
    p = make_params(alpha=float("inf"))
    assert math.isinf(p.alpha)


def test_params_dict_round_trip():
    p = make_params(alpha=3.5, beta=1.4)
    assert params_from_dict(params_to_dict(p)) == p
    pinf = make_params(alpha=float("inf"))
    doc = params_to_dict(pinf)
    assert doc["alpha"] == "inf"
    assert params_from_dict(doc) == pinf


# --- reaction family ------------------------------------------------------

def test_reaction_endpoints_and_sign():
    p = make_params(beta=1.7, r=0.8, r_bar=1.3)
    s = np.linspace(0.0, 1.0, 2001)
    f = reaction_eval(p, s)
    assert f[0] == 0.0 and f[-1] == 0.0
    assert np.all(f[1:-1] > 0.0)


def test_reaction_rejects_values_outside_unit_interval():
    p = make_params()
    with pytest.raises(DomainError):
        reaction_eval(p, np.array([-0.1]))
    with pytest.raises(DomainError):
        reaction_eval(p, np.array([1.1]))
    with pytest.raises(DomainError):
        reaction_eval(p, np.array([0.5, np.nan]))
    assert reaction_eval(p, np.array([])).size == 0


@settings(max_examples=60, deadline=None)
@given(
    beta=st.floats(1.0, 3.0),
    r=st.floats(0.2, 2.0),
    bump=st.floats(0.0, 1.5),
    s0=st.floats(0.1, 0.9),
)
def test_reaction_respects_certified_bounds(beta, r, bump, s0):
    p = make_params(beta=beta, r=r, r_bar=r + bump, s0=s0)
    fn = default_reaction(p)
    s = np.linspace(0.0, 1.0, 501)
    f = fn(s)
    # upper bound r_bar s^beta everywhere
    assert np.all(f <= p.r_bar * s ** beta + 1e-12)
    # lower bound r (1-s0) s^beta on [0, s0], since 1-s >= 1-s0 there
    rate = r * (1.0 - s0)
    low = s[s <= s0]
    assert np.all(fn(low) >= rate * low ** beta - 1e-12)


def test_default_reaction_meets_its_declared_bounds_on_a_dense_sample():
    p = make_params(beta=1.25)
    f = default_reaction(p)
    rate_lo, beta_lo, s0 = p.r * (1.0 - p.s0), p.beta, p.s0
    rate_up, beta_up = p.r_bar, p.beta
    s = np.linspace(0.0, 1.0, 20000)
    vals = np.asarray(f(s), dtype=float)
    low = s <= s0
    assert np.min(vals[low] - rate_lo * s[low] ** beta_lo) >= 0.0
    assert np.min(rate_up * s ** beta_up - vals) >= 0.0
    assert max(abs(vals[0]), abs(vals[-1])) <= 1e-15
    assert np.all(vals[1:-1] > 0.0)  # monostable: positive inside (0, 1)


# --- initial data ---------------------------------------------------------

def test_initial_data_exact_tail_and_plateau_cap():
    d = initial_data_build(1.0, 8.0, 2.0, 1.0)
    # requested plateau above the tail onset gets capped for continuity
    assert d.plateau == pytest.approx(2.0 ** -8)
    x = np.array([-5.0, 0.9, 3.0, 10.0])
    v = d(x)
    assert v[0] == pytest.approx(d.plateau)
    assert v[2] == pytest.approx(3.0 ** -8, rel=1e-14)
    assert v[3] == pytest.approx(10.0 ** -8, rel=1e-14)


def test_initial_data_monotone_nonincreasing():
    # monotone only when the requested plateau is at least the tail value
    # at x0, so the min() cap binds and the join decreases
    for alpha, plateau in [(2.0, 1.0), (8.0, 0.5), (float("inf"), 1.0)]:
        d = initial_data_build(1.0, alpha, 2.0, plateau)
        x = np.linspace(-8.0, 40.0, 4000)
        v = d(x)
        assert np.all(np.diff(v) <= 1e-15), f"alpha={alpha}"


def test_initial_data_light_tail_rate():
    d = initial_data_build(1.0, float("inf"), 2.0, 1.0)
    x = np.array([3.0, 4.0, 7.0])
    assert d(x) == pytest.approx(np.exp(-2.0 * (x - 2.0)), rel=1e-12)


@pytest.mark.parametrize("C, alpha, x0", [
    (1.0, 2.0, np.inf),
    (1.0, np.inf, np.inf),
    (np.inf, 2.0, np.inf),
])
def test_initial_data_rejects_non_finite_C_and_x0(C, alpha, x0):
    with pytest.raises(DomainError, match="finite"):
        initial_data_build(C, alpha, x0, 1.0)


def test_initial_data_values_stay_in_unit_band():
    d = initial_data_build(1.0, 2.0, 2.0, 1.0)
    x = np.linspace(-20.0, 500.0, 5000)
    v = d(x)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)


# --- grids and fields -----------------------------------------------------

def test_uniform_grid_spacing():
    g = grid_build("uniform", -1.0, 3.0, 8)
    assert g.x[0] == -1.0 and g.x[-1] == 3.0
    assert np.allclose(np.diff(g.x), 0.5)
    assert g.x.size - 1 == 8


def test_geometric_grid_constant_ratio():
    g = grid_build("geometric", 0.0, 100.0, 500, ratio=1.01)
    h = np.diff(g.x)
    assert np.allclose(h[1:] / h[:-1], 1.01, rtol=1e-9)
    assert g.x[0] == 0.0
    assert g.x[-1] == pytest.approx(100.0, rel=1e-12)


@pytest.mark.parametrize("ratio", [0.99, 1.0, 1.06])
def test_geometric_grid_ratio_bounds(ratio):
    with pytest.raises(DomainError):
        grid_build("geometric", 0.0, 10.0, 50, ratio=ratio)


def test_grid_rejects_degenerate_interval():
    with pytest.raises(DomainError):
        grid_build("uniform", 1.0, 1.0, 10)


@pytest.mark.parametrize("build", [
    lambda: Grid(x=np.array([0.0, np.nan, 1.0])),
    lambda: Grid(x=np.array([0.0, 1.0, np.inf])),
    lambda: Grid(x=np.array([-np.inf, 0.0, 1.0])),
    lambda: grid_build("uniform", 0.0, np.inf, 10),
    lambda: grid_build("geometric", 0.0, np.inf, 10),
    lambda: grid_build("uniform", -np.inf, 0.0, 10),
], ids=["nan-node", "inf-node", "minus-inf-node", "uniform-inf-right",
        "geometric-inf-right", "uniform-minus-inf-left"])
def test_grid_rejects_non_finite_nodes(build):
    with pytest.raises(DomainError, match="finite"):
        build()


def test_grid_is_read_only():
    g = grid_build("uniform", 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        g.x[0] = 5.0


def test_field_clips_round_off_band_only():
    v = np.array([0.0, 0.5, 1.0 + 5e-13])
    f = field_build(v, 0.0)
    assert f.values[-1] == 1.0
    with pytest.raises(DomainError):
        field_build(np.array([0.0, 1.2]), 0.0)
    with pytest.raises(DomainError):
        field_build(np.array([-0.5, 0.2]), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_rejects_non_finite_values(bad):
    with pytest.raises(DomainError, match="non-finite"):
        field_build(np.array([0.5, bad, 0.2]), 0.0)


def test_field_is_read_only():
    f = field_build(np.array([0.1, 0.2]), 0.0)
    with pytest.raises(ValueError):
        f.values[0] = 0.9


# --- config bundles -------------------------------------------------------

def test_bundle_requires_grid_section():
    doc = params_to_dict(make_params())
    with pytest.raises(DomainError):
        bundle_from_dict(doc)


def test_bundle_builds_grid_and_data():
    doc = params_to_dict(make_params())
    doc["plateau"] = 0.25
    doc["grid"] = {"kind": "uniform", "x_left": -5.0, "x_right": 20.0, "n": 100}
    b = bundle_from_dict(doc)
    assert b.grid.x.size == 101
    assert b.data.plateau == pytest.approx(0.25)
    assert b.params == make_params()


def _bundle_doc():
    doc = params_to_dict(make_params())
    doc["grid"] = {"kind": "uniform", "x_left": -5.0, "x_right": 20.0, "n": 100}
    return doc


@pytest.mark.parametrize("spoil, match", [
    (lambda d: d["grid"].pop("x_left"), "grid missing key 'x_left'"),
    (lambda d: d["grid"].update(n=float("nan")), "cell count must be finite"),
    (lambda d: d["grid"].update(n=100.9), "must be finite and whole"),
    (lambda d: d["grid"].update(n="many"), "'n' must be a number"),
    (lambda d: d["grid"].update(ratio=None), "'ratio' must be a number"),
    (lambda d: d.update(grid=[0.0, 1.0]), '"grid" object'),
    (lambda d: d.update(m="two"), "'m' must be a number"),
    (lambda d: d.update(alpha="infinite"), "'alpha' must be a number"),
    (lambda d: d.update(plateau=[1.0]), "'plateau' must be a number"),
    (lambda d: d.update(plateu=0.3), r"config has unknown key\(s\) 'plateu'"),
], ids=["no-x-left", "nan-n", "fractional-n", "word-n", "null-ratio", "grid-list", "word-m",
        "word-alpha", "list-plateau", "unknown-top-level-key"])
def test_bundle_rejects_malformed_documents(spoil, match):
    doc = _bundle_doc()
    spoil(doc)
    with pytest.raises(DomainError, match=match):
        bundle_from_dict(doc)
