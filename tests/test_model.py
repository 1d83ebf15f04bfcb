import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frontlab.errors import CertificateViolation, DomainError
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
    reaction_certify,
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
    assert not p.heavy_tail


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
    f = fn.fn(s)
    # upper bound r_bar s^beta everywhere
    assert np.all(f <= p.r_bar * s ** beta + 1e-12)
    # lower bound rate s^beta on [0, s0]
    rate = fn.lower[0]
    low = s[s <= s0]
    assert np.all(fn.fn(low) >= rate * low ** beta - 1e-12)


def test_reaction_certify_default_family():
    p = make_params(beta=1.25)
    rep = reaction_certify(default_reaction(p), p, n_samples=20000)
    assert rep.lower_margin >= 0.0
    assert rep.upper_margin >= 0.0
    assert abs(rep.endpoint_residual) <= 1e-15


def test_reaction_certify_flags_violations():
    p = make_params()
    bad = default_reaction(p)
    liar = type(bad)(fn=lambda s: 2.0 * np.asarray(s), lower=bad.lower,
                     upper=bad.upper)
    with pytest.raises(CertificateViolation):
        reaction_certify(liar, p, n_samples=2000)


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
    assert np.allclose(g.spacings, 0.5)
    assert g.n_cells == 8


def test_geometric_grid_constant_ratio():
    g = grid_build("geometric", 0.0, 100.0, 500, ratio=1.01)
    h = g.spacings
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
    lambda: Grid(x=np.array([0.0, np.nan, 1.0]), kind="loaded"),
    lambda: Grid(x=np.array([0.0, 1.0, np.inf]), kind="loaded"),
    lambda: Grid(x=np.array([-np.inf, 0.0, 1.0]), kind="loaded"),
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
