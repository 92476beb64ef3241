"""Block real form of the complex-shifted system and the stacking maps."""

import numpy as np
import pytest

from abslap.grid import (
    GridSpec,
    assemble_laplacian_2d_constant,
    assemble_laplacian_2d_variable,
    separable_quadratic_coefficient,
)
from abslap.saddle import (
    SaddleOperator,
    Shift,
    apply_complex_shifted,
    complex_to_real,
    real_to_complex,
    saddle_rhs,
)


class _ZeroStencil:
    """Stencil stand-in whose application is identically zero."""

    def __init__(self, grid):
        self.grid = grid

    def apply(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))


def test_degenerate_blocks_with_zero_stencil():
    op = SaddleOperator(_ZeroStencil(GridSpec(2, 2)), Shift(0.0, 1.0))
    v = np.arange(1.0, 9.0)
    np.testing.assert_allclose(op.apply(v),
                               [1.0, 2.0, 3.0, 4.0, -5.0, -6.0, -7.0, -8.0], rtol=0, atol=0)


def test_hand_assembled_two_by_two():
    k_op = assemble_laplacian_2d_constant(GridSpec(1, 2))  # K = [[16]]
    op = SaddleOperator(k_op, Shift(1.0, 2.0))
    assert op.size == 2
    np.testing.assert_allclose(op.dense(), [[2.0, 17.0], [17.0, -2.0]], rtol=0, atol=0)
    np.testing.assert_allclose(op.apply(np.array([1.0, 0.0])), [2.0, 17.0], rtol=0, atol=0)


def test_block_apply_matches_dense_quadratic_form():
    grid = GridSpec(3, 2)
    k_op = assemble_laplacian_2d_constant(grid)
    op = SaddleOperator(k_op, Shift(-7.0, 4.0))
    dense = op.dense()
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.standard_normal(op.size)
        lhs = float(v @ op.apply(v))
        rhs = float(v @ (dense @ v))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


def test_operator_symmetry():
    grid = GridSpec(4, 2)
    k_op = assemble_laplacian_2d_variable(grid, separable_quadratic_coefficient())
    op = SaddleOperator(k_op, Shift(-100.0, 50.0))
    rng = np.random.default_rng(9)
    scale = 441.0 * 8.0 / grid.h ** 2
    for _ in range(20):
        u = rng.standard_normal(op.size)
        v = rng.standard_normal(op.size)
        lhs = float(u @ op.apply(v))
        rhs = float(v @ op.apply(u))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v) * scale


def test_indefinite_when_beta_nonzero():
    grid = GridSpec(3, 2)
    op = SaddleOperator(assemble_laplacian_2d_constant(grid), Shift(0.0, 50.0))
    eigs = np.linalg.eigvalsh(op.dense())
    assert eigs[0] < 0.0 < eigs[-1]


def test_stacking_round_trips():
    f = np.array([1.0 + 2.0j])
    np.testing.assert_array_equal(complex_to_real(f), [1.0, 2.0])
    np.testing.assert_array_equal(complex_to_real(np.zeros(3, dtype=complex)), np.zeros(6))

    rng = np.random.default_rng(2)
    z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    np.testing.assert_array_equal(real_to_complex(complex_to_real(z)), z)
    w = rng.standard_normal(10)
    np.testing.assert_array_equal(complex_to_real(real_to_complex(w)), w)

    np.testing.assert_array_equal(real_to_complex(np.array([1.0, 2.0])), [1.0 + 2.0j])
    with pytest.raises(ValueError):
        real_to_complex(np.zeros(5))


def test_apply_complex_shifted_examples():
    k_op = assemble_laplacian_2d_constant(GridSpec(1, 2))
    out = apply_complex_shifted(k_op, Shift(1.0, 2.0), np.array([1.0 + 0.0j]))
    np.testing.assert_allclose(out, [17.0 + 2.0j], rtol=0, atol=0)

    grid = GridSpec(3, 2)
    k2 = assemble_laplacian_2d_constant(grid)
    z = np.arange(1.0, 10.0)  # purely real input
    out2 = apply_complex_shifted(k2, Shift(3.0, 0.0), z)
    np.testing.assert_allclose(out2.imag, 0.0, rtol=0, atol=0)
    np.testing.assert_allclose(out2.real, k2.apply(z) + 3.0 * z, rtol=1e-14)


def test_block_solution_recovers_complex_solution():
    """Solving the block system must reproduce the complex solution."""
    rng = np.random.default_rng(17)
    for n, shift in ((3, Shift(100.0, 100.0)), (7, Shift(-100.0, 1.0)), (5, Shift(2.0, -3.0))):
        grid = GridSpec(n, 2)
        k_op = assemble_laplacian_2d_constant(grid)
        z = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
        f = apply_complex_shifted(k_op, shift, z)

        op = SaddleOperator(k_op, shift)
        stacked = np.linalg.solve(op.dense(), saddle_rhs(f))
        recovered = real_to_complex(stacked)
        assert np.linalg.norm(recovered - z) <= 1e-10 * np.linalg.norm(z)


def test_block_apply_consistent_with_complex_apply():
    """A(Re z; Im z) equals the block right-hand side built from (K + lambda I) z."""
    grid = GridSpec(4, 2)
    k_op = assemble_laplacian_2d_variable(grid, separable_quadratic_coefficient())
    shift = Shift(-600.0, 150.0)
    op = SaddleOperator(k_op, shift)
    rng = np.random.default_rng(23)
    for _ in range(5):
        z = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
        f = apply_complex_shifted(k_op, shift, z)
        lhs = op.apply(complex_to_real(z))
        rhs = saddle_rhs(f)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * max(1.0, np.linalg.norm(rhs))


def test_length_validation():
    op = SaddleOperator(_ZeroStencil(GridSpec(2, 2)), Shift(0.0, 1.0))
    with pytest.raises(ValueError):
        op.apply(np.zeros(4))
