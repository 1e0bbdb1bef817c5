"""Orthonormal feature families, Christoffel density, rotation frames."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppls.bases import empty_rotation, extend_rotation, make_basis
from dppls.errors import DegeneratePointError, ValidationError
from dppls.measures import StandardGaussian, UniformInterval

import oracles


# ---------------------------------------------------------------------------
# pointwise feature values

def test_hermite_values_at_zero():
    b = make_basis("hermite", 3)
    assert b.eval_features(0.0) == pytest.approx([1.0, 0.0, -1.0 / math.sqrt(2.0)], abs=1e-15)


def test_legendre_values_at_one():
    b = make_basis("legendre", 2)
    assert b.eval_features(1.0) == pytest.approx([1.0, math.sqrt(3.0)], rel=1e-14)


def test_pwc_values_pick_owning_cell():
    b = make_basis("pwc", 4)
    assert b.eval_features(0.3).tolist() == [0.0, 2.0, 0.0, 0.0]


def test_pwc_last_cell_closed_at_one():
    b = make_basis("pwc", 4)
    assert b.eval_features(1.0).tolist() == [0.0, 0.0, 0.0, 2.0]


def test_hermite_closed_forms_small_degrees():
    """Recurrence vs hand-written He_0..He_4 / sqrt(k!) at 20 points."""
    b = make_basis("hermite", 5)
    xs = np.linspace(-6.0, 6.0, 20)
    he = np.stack([
        np.ones_like(xs),
        xs,
        (xs ** 2 - 1.0) / math.sqrt(2.0),
        (xs ** 3 - 3.0 * xs) / math.sqrt(6.0),
        (xs ** 4 - 6.0 * xs ** 2 + 3.0) / math.sqrt(24.0),
    ], axis=1)
    got = b.feature_matrix(xs)
    assert np.allclose(got, he, rtol=1e-12, atol=1e-12)


def test_legendre_closed_forms_small_degrees():
    b = make_basis("legendre", 5)
    xs = np.linspace(-1.0, 1.0, 20)
    p = np.stack([
        np.ones_like(xs),
        xs * math.sqrt(3.0),
        0.5 * (3.0 * xs ** 2 - 1.0) * math.sqrt(5.0),
        0.5 * (5.0 * xs ** 3 - 3.0 * xs) * math.sqrt(7.0),
        0.125 * (35.0 * xs ** 4 - 30.0 * xs ** 2 + 3.0) * 3.0,
    ], axis=1)
    got = b.feature_matrix(xs)
    assert np.allclose(got, p, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("family,m", [("hermite", 30), ("legendre", 30)])
def test_recurrence_matches_independent_route(family, m):
    """Feature rows vs numpy.polynomial with explicit normalization."""
    xs = np.linspace(-3.0, 3.0, 25) if family == "hermite" else np.linspace(-1.0, 1.0, 25)
    theirs = oracles.hermite_row(xs, m) if family == "hermite" else oracles.legendre_row(xs, m)
    ours = make_basis(family, m).feature_matrix(xs)
    assert np.allclose(ours, theirs, rtol=1e-11, atol=1e-11)


def test_family_measure_pairing_enforced():
    with pytest.raises(ValidationError):
        make_basis("hermite", 3, measure=UniformInterval(-1.0, 1.0))
    with pytest.raises(ValidationError):
        make_basis("legendre", 3, measure=StandardGaussian())


# ---------------------------------------------------------------------------
# orthonormality

def _gauss_rule(b, order):
    """(nodes, weights) of the order-point Gauss rule of b's measure: the
    package's Gauss-Legendre rule, or numpy's Gauss-Hermite rule for the
    Gaussian measure, which has no Gauss rule in the package."""
    if isinstance(b.measure, StandardGaussian):
        return oracles.hermite_gauss_rule(order)
    rule = b.measure.gauss_quadrature(order)
    return rule.nodes, rule.weights


@pytest.mark.parametrize("family", ["legendre", "hermite"])
@pytest.mark.parametrize("m", [1, 2, 5, 17, 30])
def test_quadrature_gram_is_identity(family, m):
    b = make_basis(family, m)
    nodes, weights = _gauss_rule(b, m + 1)
    feats = b.feature_matrix(nodes)
    G = (feats * weights[:, None]).T @ feats
    assert np.abs(G - np.eye(m)).max() < 1e-10


@pytest.mark.parametrize("m", [1, 4, 9])
def test_pwc_gram_is_identity(m):
    """Cell midpoints with weight 1/m integrate piecewise constants
    exactly."""
    b = make_basis("pwc", m)
    mids = (np.arange(m) + 0.5) / m
    feats = b.feature_matrix(mids)
    G = feats.T @ feats / m
    assert np.abs(G - np.eye(m)).max() == 0.0


# ---------------------------------------------------------------------------
# Christoffel density

def test_christoffel_constant_for_m1():
    for family in ("legendre", "hermite", "pwc"):
        b = make_basis(family, 1)
        xs = [0.1, 0.4] if family == "pwc" else [-0.5, 0.0, 0.5]
        assert b.christoffel(xs) == pytest.approx([1.0] * len(xs), abs=1e-14)


def test_christoffel_legendre_m2_at_zero():
    b = make_basis("legendre", 2)
    assert b.christoffel(0.0) == pytest.approx(0.5, abs=1e-15)


def test_pwc_christoffel_is_flat():
    b = make_basis("pwc", 4)
    assert b.christoffel([0.1, 0.6, 0.99]) == pytest.approx([1.0] * 3, abs=0)


@pytest.mark.parametrize("family,m", [
    ("legendre", 1), ("legendre", 5), ("legendre", 30), ("legendre", 50),
    ("hermite", 1), ("hermite", 5), ("hermite", 30), ("hermite", 50),
])
def test_christoffel_integrates_to_one(family, m):
    b = make_basis(family, m)
    nodes, weights = _gauss_rule(b, m + 1)
    mass = float(weights @ b.christoffel(nodes))
    assert mass == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# rotation frames

def _residual2(b, state, x):
    """||phi(x) - P_{W_k} phi(x)||^2 against the frame's own vectors."""
    phi = b.eval_features(x)
    r = phi - state.vectors.T @ (state.vectors @ phi)
    return float(r @ r)


def test_residual_with_empty_state_is_feature_norm():
    b = make_basis("legendre", 4)
    state = empty_rotation(4)
    for x in (-0.7, 0.0, 0.2):
        want = 4.0 * b.christoffel(x)
        assert _residual2(b, state, x) == pytest.approx(want, rel=1e-13)


def test_residual_two_dimensional_hand_example():
    b = make_basis("legendre", 2)
    state = extend_rotation(empty_rotation(2), b, 0.0)
    assert _residual2(b, state, 1.0) == pytest.approx(3.0, rel=1e-12)


def test_residual_zero_on_occupied_pwc_cell():
    b = make_basis("pwc", 4)
    state = extend_rotation(empty_rotation(4), b, 0.3)
    assert _residual2(b, state, 0.4) == pytest.approx(0.0, abs=1e-14)


def test_extend_from_empty_normalizes_features():
    b = make_basis("legendre", 3)
    state = extend_rotation(empty_rotation(3), b, 0.5)
    phi = b.eval_features(0.5)
    assert state.k == 1
    assert np.allclose(state.vectors[0], phi / np.linalg.norm(phi), atol=1e-14)


def test_extend_same_pwc_cell_degenerate():
    b = make_basis("pwc", 4)
    state = extend_rotation(empty_rotation(4), b, 0.3)
    with pytest.raises(DegeneratePointError):
        extend_rotation(state, b, 0.45)


def test_full_frame_is_orthonormal_basis():
    b = make_basis("legendre", 6)
    state = empty_rotation(6)
    for x in (-0.9, -0.45, -0.1, 0.3, 0.62, 0.98):
        state = extend_rotation(state, b, x)
    V = np.array(state.vectors)
    assert np.abs(V @ V.T - np.eye(6)).max() < 1e-10
    assert np.abs(V.T @ V - np.eye(6)).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=5, unique=True))
def test_frames_stay_orthonormal(points):
    """Frames remain orthonormal after every extension, whatever the
    point sequence (degenerate points are simply skipped)."""
    b = make_basis("legendre", 5)
    state = empty_rotation(5)
    for x in points:
        try:
            state = extend_rotation(state, b, x)
        except DegeneratePointError:
            continue
        V = np.array(state.vectors)
        assert np.abs(V @ V.T - np.eye(state.k)).max() < 1e-12


def test_extension_past_m_rejected():
    b = make_basis("legendre", 2)
    state = empty_rotation(2)
    state = extend_rotation(state, b, -0.3)
    state = extend_rotation(state, b, 0.8)
    with pytest.raises((ValidationError, DegeneratePointError)):
        extend_rotation(state, b, 0.1)
