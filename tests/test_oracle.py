"""Dense reference path: |H|, sqrt, complex solve and the dense block builders."""

import numpy as np
import pytest

from abslap.grid import (
    GridSpec,
    assemble_laplacian_2d_constant,
    assemble_laplacian_2d_variable,
    separable_quadratic_coefficient,
)
from abslap.oracle import (
    ORDER_CAP,
    averaged_preconditioner_dense,
    dense_abs,
    dense_complex_solve,
    dense_sqrt,
    ideal_preconditioner_dense,
    saddle_block_dense,
)
from abslap.precond import build_averaged, build_ideal
from abslap.saddle import SaddleOperator, Shift


def _random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


def test_dense_abs_examples():
    np.testing.assert_allclose(dense_abs(np.diag([3.0, -2.0])), np.diag([3.0, 2.0]),
                               rtol=0, atol=1e-13)
    rng = np.random.default_rng(1)
    spd = _random_symmetric(rng, 6)
    spd = spd @ spd.T + 0.5 * np.eye(6)
    np.testing.assert_allclose(dense_abs(spd), spd, rtol=0, atol=1e-12 * np.abs(spd).max())


def test_dense_abs_square_property():
    rng = np.random.default_rng(8)
    for n in (2, 7, 16, 64):
        h = _random_symmetric(rng, n, scale=3.0)
        lhs = dense_abs(h) @ dense_abs(h)
        rhs = h @ h
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())


def test_dense_abs_rejects_asymmetric():
    with pytest.raises(ValueError):
        dense_abs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dense_sqrt_examples():
    np.testing.assert_allclose(dense_sqrt(np.eye(3)), np.eye(3), rtol=0, atol=1e-13)
    np.testing.assert_allclose(dense_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                               rtol=0, atol=1e-13)
    rng = np.random.default_rng(2)
    h = _random_symmetric(rng, 9)
    psd = h @ h.T
    root = dense_sqrt(psd)
    assert np.abs(root @ root - psd).max() <= 1e-9 * max(1.0, np.abs(psd).max())
    with pytest.raises(ValueError):
        dense_sqrt(np.diag([1.0, -1.0]))


def test_dense_sqrt_matches_transform_weights():
    grid = GridSpec(3, 2)
    shift = Shift(100.0, 100.0)
    l_dense = assemble_laplacian_2d_constant(grid).dense()
    shifted = l_dense + shift.alpha * np.eye(grid.m)
    target = shifted @ shifted + shift.beta ** 2 * np.eye(grid.m)
    block = build_ideal(grid, shift).materialize_block(1.0)
    assert np.abs(dense_sqrt(target) - block).max() <= 1e-10 * np.abs(block).max()


def test_complex_solve_examples():
    f = np.array([1.0 + 1.0j, 2.0 - 3.0j])
    np.testing.assert_allclose(dense_complex_solve(np.eye(2), Shift(0.0, 0.0), f), f,
                               rtol=0, atol=1e-14)
    out = dense_complex_solve(np.array([[8.0]]), Shift(1.0, 2.0),
                              np.array([9.0 + 2.0j]))
    np.testing.assert_allclose(out, [1.0 + 0.0j], rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        dense_complex_solve(np.array([[8.0]]), Shift(-8.0, 0.0), np.array([1.0 + 0.0j]))
    with pytest.raises(ValueError):
        dense_complex_solve(np.eye(2), Shift(0.0, 0.0), np.ones(3, dtype=complex))


def test_complex_solve_residual_contract():
    grid = GridSpec(5, 2)
    k = assemble_laplacian_2d_variable(grid, separable_quadratic_coefficient()).dense()
    shift = Shift(-100.0, -25.0)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    z = dense_complex_solve(k, shift, f)
    lam = shift.alpha + 1j * shift.beta
    residual = np.linalg.norm(k @ z + lam * z - f) / np.linalg.norm(f)
    assert residual <= 1e-10


def test_order_cap_enforced():
    big = np.zeros((ORDER_CAP + 1, ORDER_CAP + 1))
    with pytest.raises(ValueError):
        dense_abs(big)


def test_dense_helper_blocks_match_modules():
    grid = GridSpec(3, 2)
    shift = Shift(-100.0, 100.0)
    k_op = assemble_laplacian_2d_constant(grid)
    k_dense = k_op.dense()

    np.testing.assert_allclose(saddle_block_dense(k_dense, shift),
                               SaddleOperator(k_op, shift).dense(), rtol=0, atol=0)

    ideal = ideal_preconditioner_dense(k_dense, shift)
    built = build_ideal(grid, shift).materialize()
    assert np.abs(ideal - built).max() <= 1e-10 * np.abs(built).max()

    poly = separable_quadratic_coefficient()
    averaged = averaged_preconditioner_dense(k_dense, 420.0, shift)
    built_avg = build_averaged(grid, poly, shift).materialize()
    assert np.abs(averaged - built_avg).max() <= 1e-10 * np.abs(built_avg).max()
