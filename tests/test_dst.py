"""Sine transform correctness: involution, fast path, and diagonalization."""

import math

import numpy as np
import pytest

from abslap.dst import SineTransform, laplacian_eigenvalues, sine_matrix
from abslap.grid import GridSpec, assemble_laplacian_2d_constant, smallest_laplacian_eigenvalue


def test_matrix_symmetric_and_involutory():
    for n in (1, 2, 3, 8, 15, 31):
        s = sine_matrix(n)
        np.testing.assert_allclose(s, s.T, rtol=0, atol=1e-15)
        np.testing.assert_allclose(s @ s, np.eye(n), rtol=0, atol=1e-12)


def test_normalization_and_size():
    # entry (1, 4) of the order-7 matrix is the normalization times sin(pi/2)
    assert sine_matrix(7)[0, 3] == pytest.approx(math.sqrt(2.0 / 8.0))
    assert SineTransform(7).size == 49


def test_unit_vector_value():
    # the corner unit vector maps to the outer square of the first column
    t = SineTransform(3)
    e = np.zeros(9)
    e[0] = 1.0
    column = np.array([0.5, math.sqrt(2.0) / 2.0, 0.5])
    np.testing.assert_allclose(t.apply(e), np.outer(column, column).ravel(),
                               rtol=0, atol=1e-14)


def test_zero_maps_to_zero():
    for n in (1, 5):
        t = SineTransform(n)
        np.testing.assert_array_equal(t.apply(np.zeros(t.size)), np.zeros(t.size))


def test_involution_on_random_vectors():
    rng = np.random.default_rng(42)
    for n in (1, 3, 7, 15, 31, 63, 127):
        t = SineTransform(n)
        for _ in range(5):
            v = rng.standard_normal(t.size)
            back = t.apply(t.apply(v))
            assert np.abs(back - v).max() <= 1e-12 * max(1.0, np.abs(v).max())


def test_fast_path_matches_reference():
    rng = np.random.default_rng(3)
    # non power-of-two-minus-one sizes exercise the generic embedding too
    for n in (1, 2, 3, 4, 7, 12, 15, 31, 63, 127):
        t = SineTransform(n)
        for _ in range(3):
            v = rng.standard_normal(n * n)
            fast = t.apply(v)
            ref = t.apply_reference(v)
            assert np.linalg.norm(fast - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


def test_two_dimensional_action_is_tensor_square():
    # matrix() stays one-dimensional; the 2D action equals kron(s, s)
    n = 4
    t2 = SineTransform(n)
    s = sine_matrix(n)
    assert t2.matrix().shape == (n, n)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(n * n)
    np.testing.assert_allclose(t2.apply(v), np.kron(s, s) @ v, rtol=0, atol=1e-12)


def test_diagonalization_of_the_stencil():
    for grid in (GridSpec(7, 2), GridSpec(15, 2)):
        op = assemble_laplacian_2d_constant(grid)
        t = SineTransform(grid.n)
        lam = laplacian_eigenvalues(grid)
        rng = np.random.default_rng(grid.n)
        for _ in range(5):
            v = rng.standard_normal(grid.m)
            left = t.apply(op.apply(t.apply(v)))
            assert np.linalg.norm(left - lam * v) <= 1e-11 * np.linalg.norm(lam * v)


def test_eigenvalue_examples():
    # diagonal modes (p, p) carry twice the one-axis eigenvalue
    lam_diagonal = np.diag(laplacian_eigenvalues(GridSpec(3, 2)).reshape(3, 3)) / 2.0
    np.testing.assert_allclose(lam_diagonal, [9.3726, 32.0, 54.6274], atol=1e-4)

    lam_single = laplacian_eigenvalues(GridSpec(1, 2))
    np.testing.assert_allclose(lam_single, [16.0], rtol=0, atol=1e-12)

    grid = GridSpec(3, 2)
    lam2 = laplacian_eigenvalues(grid)
    assert lam2.min() == pytest.approx(18.7452, abs=1e-4)
    assert lam2.min() == pytest.approx(smallest_laplacian_eigenvalue(grid), rel=1e-14)
    assert np.all(lam2 > 0.0)
    # eigenvalue multiset matches the dense operator's spectrum
    dense_eigs = np.linalg.eigvalsh(assemble_laplacian_2d_constant(grid).dense())
    np.testing.assert_allclose(np.sort(lam2), dense_eigs, rtol=1e-11)


def test_length_mismatch_rejected():
    t = SineTransform(3)
    with pytest.raises(ValueError):
        t.apply(np.zeros(3))
    with pytest.raises(ValueError):
        t.apply(np.zeros(10))


def test_invalid_construction():
    with pytest.raises(ValueError):
        SineTransform(0)
    with pytest.raises(ValueError):
        SineTransform(-3)
