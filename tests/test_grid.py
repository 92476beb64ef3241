"""Grid geometry, stencil assembly, and dense materialization checks."""

import math

import numpy as np
import pytest

from abslap.dst import SineTransform, laplacian_eigenvalues
from abslap.grid import (
    KIND_CONSTANT,
    KIND_VARIABLE,
    CoefficientField,
    GridSpec,
    assemble_laplacian_2d_constant,
    assemble_laplacian_2d_variable,
    constant_coefficient,
    separable_quadratic_coefficient,
    smallest_laplacian_eigenvalue,
)


def test_grid_spec_mesh_width_and_unknown_count():
    for n in (1, 2, 3, 7, 63, 100):
        grid = GridSpec(n, 2)
        assert abs(grid.h * (n + 1) - 1.0) <= 2.0 ** -52
        assert grid.m == n ** 2


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 2)
    with pytest.raises(ValueError):
        GridSpec(-3, 2)
    # only the unit square is supported
    with pytest.raises(ValueError):
        GridSpec(4, 1)
    with pytest.raises(ValueError):
        GridSpec(4, 3)


def test_coefficient_fields():
    unit = constant_coefficient(1.0)
    assert unit.is_constant_one
    assert unit.gamma == 1.0
    assert unit.a_min == unit.a_max == 1.0

    five = constant_coefficient(5.0)
    assert not five.is_constant_one
    assert five.gamma == 5.0

    poly = separable_quadratic_coefficient()
    assert not poly.is_constant_one
    assert poly.a_min == 400.0
    assert poly.a_max == 441.0
    assert poly.gamma == 420.0
    assert poly.evaluator(0.0, 0.0) == 400.0
    assert poly.evaluator(1.0, 1.0) == 441.0

    with pytest.raises(ValueError):
        CoefficientField(lambda x1, x2: x1, a_min=0.0, a_max=1.0)
    with pytest.raises(ValueError):
        CoefficientField(lambda x1, x2: x1, a_min=2.0, a_max=1.0)


def test_2d_constant_stencil_structure():
    tiny = assemble_laplacian_2d_constant(GridSpec(1, 2))
    np.testing.assert_allclose(tiny.dense(), [[16.0]], rtol=0, atol=0)
    np.testing.assert_allclose(tiny.apply(np.array([1.0])), [16.0], rtol=0, atol=1e-12)

    op = assemble_laplacian_2d_constant(GridSpec(3, 2))
    assert op.kind == KIND_CONSTANT
    # corner unit vector: 4/h^2 on itself, -1/h^2 on its two neighbors
    corner = np.zeros(9)
    corner[0] = 1.0
    np.testing.assert_allclose(op.apply(corner).reshape(3, 3),
                               [[64.0, -16.0, 0.0], [-16.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                               rtol=0, atol=1e-12)
    dense = op.dense()
    h = GridSpec(3, 2).h
    np.testing.assert_allclose(np.diag(dense), np.full(9, 4.0 / h ** 2), rtol=1e-15)
    # the center node has all four neighbors, so its row sums to zero
    assert abs(dense[4, :].sum()) <= 1e-10


def test_2d_smallest_eigenvalue_matches_dense():
    grid = GridSpec(3, 2)
    dense_min = np.linalg.eigvalsh(assemble_laplacian_2d_constant(grid).dense())[0]
    closed = smallest_laplacian_eigenvalue(grid)
    assert abs(closed - 128.0 * math.sin(math.pi / 8.0) ** 2) <= 1e-12
    assert abs(closed - dense_min) <= 1e-10 * dense_min
    assert abs(closed - 18.7452) <= 1e-3


def test_smallest_eigenvalue_examples():
    assert smallest_laplacian_eigenvalue(GridSpec(1, 2)) == pytest.approx(16.0, abs=1e-12)
    assert smallest_laplacian_eigenvalue(GridSpec(63, 2)) == pytest.approx(19.73525, abs=1e-4)
    # approaches 2 pi^2 from below as the grid refines
    assert smallest_laplacian_eigenvalue(GridSpec(511, 2)) < 2.0 * math.pi ** 2


def test_variable_reduces_to_constant_for_unit_coefficient():
    grid = GridSpec(5, 2)
    const = assemble_laplacian_2d_constant(grid)
    var = assemble_laplacian_2d_variable(grid, constant_coefficient(1.0))
    assert var.kind == KIND_VARIABLE
    np.testing.assert_allclose(var.dense(), const.dense(), rtol=0, atol=1e-14 * 16.0 / grid.h ** 2)
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.standard_normal(grid.m)
        np.testing.assert_allclose(var.apply(u), const.apply(u), rtol=1e-14, atol=1e-12)


def test_variable_scales_linearly_in_coefficient():
    grid = GridSpec(4, 2)
    const = assemble_laplacian_2d_constant(grid)
    scaled = assemble_laplacian_2d_variable(grid, constant_coefficient(3.5))
    np.testing.assert_allclose(scaled.dense(), 3.5 * const.dense(), rtol=1e-14)


def test_variable_rayleigh_quotient_ordering():
    poly = separable_quadratic_coefficient()
    for n in (3, 7):
        grid = GridSpec(n, 2)
        l_op = assemble_laplacian_2d_constant(grid)
        k_op = assemble_laplacian_2d_variable(grid, poly)
        c0 = smallest_laplacian_eigenvalue(grid)
        rng = np.random.default_rng(100 + n)
        for _ in range(200):
            z = rng.standard_normal(grid.m)
            zlz = float(z @ l_op.apply(z))
            zkz = float(z @ k_op.apply(z))
            assert 400.0 * zlz <= zkz + 1e-12 * zlz
            assert zkz <= 441.0 * zlz + 1e-12 * zlz
            assert zlz >= c0 * float(z @ z) - 1e-12 * float(z @ z)


def test_operator_symmetry_and_definiteness():
    grid = GridSpec(6, 2)
    ops = (assemble_laplacian_2d_constant(grid),
           assemble_laplacian_2d_variable(grid, separable_quadratic_coefficient()))
    rng = np.random.default_rng(7)
    norm_est = 441.0 * 8.0 / grid.h ** 2  # generous operator-norm estimate for both kinds
    for op in ops:
        for _ in range(20):
            u = rng.standard_normal(grid.m)
            v = rng.standard_normal(grid.m)
            lhs = float(u @ op.apply(v))
            rhs = float(v @ op.apply(u))
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v) * norm_est
            z = rng.standard_normal(grid.m)
            assert float(z @ op.apply(z)) > 0.0


def test_matrix_free_matches_dense():
    for n, assemble in ((31, assemble_laplacian_2d_constant), (8, None)):
        grid = GridSpec(n, 2)
        if assemble is not None:
            op = assemble(grid)
        else:
            op = assemble_laplacian_2d_variable(grid, separable_quadratic_coefficient())
        dense = op.dense()
        rng = np.random.default_rng(n)
        for _ in range(5):
            u = rng.standard_normal(grid.m)
            np.testing.assert_allclose(op.apply(u), dense @ u,
                                       rtol=1e-13, atol=1e-13 * np.abs(dense).max())


def test_transform_diagonalizes_constant_operator():
    for n in (3, 7, 15):
        grid = GridSpec(n, 2)
        dense = assemble_laplacian_2d_constant(grid).dense()
        s1 = SineTransform(n).matrix()
        w = np.kron(s1, s1)
        diag = w @ dense @ w
        lam = laplacian_eigenvalues(grid)
        off = diag - np.diag(np.diag(diag))
        assert np.abs(off).max() <= 1e-12 * lam.max()
        np.testing.assert_allclose(np.diag(diag), lam, rtol=1e-12)


def test_dense_materialization_caps():
    with pytest.raises(ValueError):
        assemble_laplacian_2d_constant(GridSpec(64, 2)).dense()
    # matrix-free application has no such cap
    big = assemble_laplacian_2d_constant(GridSpec(64, 2))
    out = big.apply(np.ones(64 * 64))
    assert out.shape == (4096,)


def test_coefficient_sample_validation():
    grid = GridSpec(3, 2)
    # declared bounds exclude the actual samples -> assembly must refuse
    liar = CoefficientField(lambda x1, x2: np.full(np.broadcast(x1, x2).shape, 0.5),
                            a_min=1.0, a_max=2.0)
    with pytest.raises(ValueError):
        assemble_laplacian_2d_variable(grid, liar)

