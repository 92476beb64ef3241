"""Transform-diagonal preconditioners: weights, powers, and dense agreement."""

import math

import numpy as np
import pytest

from abslap.dst import laplacian_eigenvalues
from abslap.grid import (
    GridSpec,
    assemble_laplacian_2d_constant,
    constant_coefficient,
    separable_quadratic_coefficient,
)
from abslap.oracle import dense_abs, ideal_preconditioner_dense
from abslap.precond import build_averaged, build_ideal
from abslap.saddle import SaddleOperator, Shift


def test_single_mode_weight():
    p = build_ideal(GridSpec(1, 2), Shift(1.0, 2.0))
    np.testing.assert_allclose(p.weights, [math.sqrt(293.0)], rtol=1e-15)
    assert p.gamma == 1.0


def test_zero_shift_reduces_to_plain_eigenvalues():
    grid = GridSpec(5, 2)
    p = build_ideal(grid, Shift(0.0, 0.0))
    np.testing.assert_allclose(p.weights, laplacian_eigenvalues(grid), rtol=1e-15)


def test_singular_construction_rejected_with_mode_information():
    # beta = 0 and alpha cancelling the sole eigenvalue (about 16) is singular;
    # shift by the eigenvalue as computed so the cancellation is exact
    lam = float(laplacian_eigenvalues(GridSpec(1, 2))[0])
    with pytest.raises(ValueError) as err:
        build_ideal(GridSpec(1, 2), Shift(-lam, 0.0))
    assert "16" in str(err.value)


def test_inverse_forward_round_trip_and_zero():
    grid = GridSpec(7, 2)
    p = build_ideal(grid, Shift(-100.0, 1.0))
    rng = np.random.default_rng(1)
    for _ in range(5):
        w = rng.standard_normal(2 * grid.m)
        back = p.materialize() @ p.apply_inverse(w)
        assert np.linalg.norm(back - w) <= 1e-12 * np.linalg.norm(w)
    np.testing.assert_array_equal(p.apply_inverse(np.zeros(2 * grid.m)), np.zeros(2 * grid.m))


def test_dense_materialization_matches_absolute_value_oracle():
    grid = GridSpec(3, 2)
    shift = Shift(100.0, 100.0)
    k_op = assemble_laplacian_2d_constant(grid)
    a_dense = SaddleOperator(k_op, shift).dense()

    built = build_ideal(grid, shift).materialize()
    oracle = dense_abs(a_dense)
    scale = np.abs(oracle).max()
    assert np.abs(built - oracle).max() <= 1e-10 * scale

    direct = ideal_preconditioner_dense(k_op.dense(), shift)
    assert np.abs(built - direct).max() <= 1e-10 * scale


def test_averaged_on_unit_coefficient_equals_ideal():
    grid = GridSpec(5, 2)
    shift = Shift(-100.0, 100.0)
    ideal = build_ideal(grid, shift)
    averaged = build_averaged(grid, constant_coefficient(1.0), shift)
    assert averaged.gamma == 1.0
    np.testing.assert_allclose(averaged.weights, ideal.weights, rtol=0, atol=1e-15 * ideal.weights.max())


def test_averaged_geometric_mean_scaling():
    grid = GridSpec(3, 2)
    p = build_averaged(grid, separable_quadratic_coefficient(), Shift(-100.0, 100.0))
    assert p.gamma == 420.0
    lam = laplacian_eigenvalues(grid)
    np.testing.assert_allclose(p.weights, np.hypot(420.0 * lam - 100.0, 100.0), rtol=1e-15)
    # every weight is at least |beta|
    assert p.weights.min() >= 100.0


def test_power_semigroup_relations():
    grid = GridSpec(7, 2)
    p = build_averaged(grid, separable_quadratic_coefficient(), Shift(-600.0, 150.0))
    rng = np.random.default_rng(8)
    w = rng.standard_normal(2 * grid.m)

    half = p.materialize(0.5)
    forward = half @ (half @ w)
    assert np.linalg.norm(forward - p.materialize(1.0) @ w) <= 1e-12 * np.linalg.norm(forward)

    inv_half = p.materialize(-0.5)
    inv_half_twice = inv_half @ (inv_half @ w)
    inv = p.apply_inverse(w)
    assert np.linalg.norm(inv_half_twice - inv) <= 1e-12 * np.linalg.norm(inv)

    # the fast transform path agrees with the dense inverse
    assert np.linalg.norm(p.materialize(-1.0) @ w - inv) <= 1e-13 * np.linalg.norm(inv)


def test_quadratic_form_positive():
    grid = GridSpec(5, 2)
    p = build_averaged(grid, separable_quadratic_coefficient(), Shift(-100.0, -25.0))
    forward = p.materialize()
    rng = np.random.default_rng(12)
    for _ in range(20):
        z = rng.standard_normal(2 * grid.m)
        assert float(z @ (forward @ z)) > 0.0
        assert float(z @ p.apply_inverse(z)) > 0.0


def test_weights_are_blended_component_magnitudes():
    """The weight vector is exactly hypot of the two commuting diagonal parts."""
    grid = GridSpec(7, 2)
    shift = Shift(-600.0, 150.0)
    p = build_averaged(grid, separable_quadratic_coefficient(), shift)
    lam = laplacian_eigenvalues(grid)
    h1 = np.abs(420.0 * lam + shift.alpha)
    h2 = np.full_like(lam, abs(shift.beta))
    np.testing.assert_allclose(p.weights, np.hypot(h1, h2), rtol=1e-15)
    # sandwich ordering of the quadratic forms in the transform basis
    rng = np.random.default_rng(31)
    lower = math.sqrt(2.0) / 2.0
    for _ in range(50):
        z = rng.standard_normal(lam.size)
        mid = float(np.dot(p.weights * z, z))
        outer = float(np.dot((h1 + h2) * z, z))
        assert lower * outer <= mid + 1e-12 * outer
        assert mid <= outer * (1.0 + 1e-12)


def test_materialize_block_power_consistency():
    grid = GridSpec(3, 2)
    p = build_averaged(grid, separable_quadratic_coefficient(), Shift(100.0, -100.0))
    b1 = p.materialize_block(1.0)
    b_half = p.materialize_block(0.5)
    b_inv = p.materialize_block(-1.0)
    scale = np.abs(b1).max()
    assert np.abs(b_half @ b_half - b1).max() <= 1e-11 * scale
    assert np.abs(b1 @ b_inv - np.eye(grid.m)).max() <= 1e-11


def test_length_and_dimension_validation():
    p = build_ideal(GridSpec(3, 2), Shift(1.0, 1.0))
    with pytest.raises(ValueError):
        p.apply_inverse(np.zeros(17))
    with pytest.raises(ValueError):
        build_averaged(GridSpec(3, 1), separable_quadratic_coefficient(), Shift(1.0, 1.0))
