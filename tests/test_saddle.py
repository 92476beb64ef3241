"""Block real form of the complex-shifted system and the stacking maps."""

import numpy as np
import pytest

from abslap import grid as grid_module
from abslap import precond as precond_module
from abslap.dst import sine_matrix
from abslap.grid import (
    GridSpec,
    assemble_laplacian_2d_constant,
    assemble_laplacian_2d_variable,
    axis_eigenvalues,
    separable_quadratic_coefficient,
)
from abslap.precond import build_ideal, sine_basis
from abslap.saddle import SaddleOperator, Shift, real_to_complex, saddle_rhs
from test_grid import BOUNDARY_SIZES, _reference_apply, fixed_blocks


class _ZeroStencil:
    """Stencil stand-in whose application is identically zero."""

    def __init__(self, grid):
        self.grid = grid

    def apply_in_blocks(self, v, out, extra=0):
        out[...] = 0.0
        yield slice(0, self.grid.n)


def test_degenerate_blocks_with_zero_stencil():
    op = SaddleOperator(_ZeroStencil(GridSpec(2, 2)), Shift(0.0, 1.0))
    v = np.arange(1.0, 9.0)
    np.testing.assert_allclose(op.apply(v),
                               [1.0, 2.0, 3.0, 4.0, -5.0, -6.0, -7.0, -8.0], rtol=0, atol=0)


def test_hand_assembled_two_by_two():
    k_op = assemble_laplacian_2d_constant(GridSpec(1, 2))  # K = [[16]]
    op = SaddleOperator(k_op, Shift(1.0, 2.0))
    np.testing.assert_allclose(op.dense(), [[2.0, 17.0], [17.0, -2.0]], rtol=0, atol=0)
    np.testing.assert_allclose(op.apply(np.array([1.0, 0.0])), [2.0, 17.0], rtol=0, atol=0)


def test_block_apply_matches_dense_quadratic_form():
    grid = GridSpec(3, 2)
    k_op = assemble_laplacian_2d_constant(grid)
    op = SaddleOperator(k_op, Shift(-7.0, 4.0))
    dense = op.dense()
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.standard_normal(2 * grid.m)
        lhs = float(v @ op.apply(v))
        rhs = float(v @ (dense @ v))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


def test_block_apply_matches_per_half_formula():
    # [(K+alpha) v2 + beta v1; (K+alpha) v1 - beta v2] from single-half stencil applies
    grid = GridSpec(7, 2)
    k_op = assemble_laplacian_2d_variable(grid, separable_quadratic_coefficient())
    alpha, beta = -600.0, 150.0
    op = SaddleOperator(k_op, Shift(alpha, beta))
    v = np.random.default_rng(6).standard_normal(2 * grid.m)
    kept = v.copy()
    v1, v2 = v[:grid.m], v[grid.m:]
    expected = np.concatenate([k_op.apply(v2) + alpha * v2 + beta * v1,
                               k_op.apply(v1) + alpha * v1 - beta * v2])
    out = op.apply(v)
    np.testing.assert_array_equal(v, kept)
    np.testing.assert_allclose(out, expected, rtol=1e-14, atol=1e-14 * np.abs(expected).max())


def _sine_basis_apply(op, v):
    """W A W v through the basis sine_basis gives op and its ideal preconditioner."""
    return sine_basis(op, build_ideal(op.k_op.grid, op.shift)).apply_a(v)


def test_sine_basis_apply_is_the_rotated_operator():
    grid = GridSpec(7, 2)
    shift = Shift(-7.0, 4.0)
    op = SaddleOperator(assemble_laplacian_2d_constant(grid), shift)
    s = sine_matrix(grid.n)
    w = np.kron(np.eye(2), np.kron(s, s))
    v = np.random.default_rng(8).standard_normal(2 * grid.m)
    kept = v.copy()
    expected = w @ (op.dense() @ (w @ v))
    out = _sine_basis_apply(op, v)
    np.testing.assert_array_equal(v, kept)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
    with pytest.raises(ValueError):
        _sine_basis_apply(op, v[:-1])
    # the transform does not diagonalize a variable stencil: no basis
    variable = assemble_laplacian_2d_variable(grid, separable_quadratic_coefficient())
    assert sine_basis(SaddleOperator(variable, shift), build_ideal(grid, shift)) is None


def test_operator_symmetry():
    grid = GridSpec(4, 2)
    k_op = assemble_laplacian_2d_variable(grid, separable_quadratic_coefficient())
    op = SaddleOperator(k_op, Shift(-100.0, 50.0))
    rng = np.random.default_rng(9)
    scale = 441.0 * 8.0 / grid.h ** 2
    for _ in range(20):
        u = rng.standard_normal(2 * grid.m)
        v = rng.standard_normal(2 * grid.m)
        lhs = float(u @ op.apply(v))
        rhs = float(v @ op.apply(u))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v) * scale


def test_indefinite_when_beta_nonzero():
    grid = GridSpec(3, 2)
    op = SaddleOperator(assemble_laplacian_2d_constant(grid), Shift(0.0, 50.0))
    eigs = np.linalg.eigvalsh(op.dense())
    assert eigs[0] < 0.0 < eigs[-1]


def test_stacking_round_trips():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    np.testing.assert_array_equal(real_to_complex(np.concatenate([z.real, z.imag])), z)
    w = rng.standard_normal(10)
    unstacked = real_to_complex(w)
    np.testing.assert_array_equal(np.concatenate([unstacked.real, unstacked.imag]), w)

    np.testing.assert_array_equal(real_to_complex(np.array([1.0, 2.0])), [1.0 + 2.0j])
    with pytest.raises(ValueError):
        real_to_complex(np.zeros(5))


def _complex_shifted(k_op, shift, z):
    """(K + (alpha + beta i) I) z from the dense stencil, not its apply."""
    return (k_op.dense() + (shift.alpha + 1j * shift.beta) * np.eye(z.size)) @ z


def test_block_solution_recovers_complex_solution():
    """Solving the block system must reproduce the complex solution."""
    rng = np.random.default_rng(17)
    for n, shift in ((3, Shift(100.0, 100.0)), (7, Shift(-100.0, 1.0)), (5, Shift(2.0, -3.0))):
        grid = GridSpec(n, 2)
        k_op = assemble_laplacian_2d_constant(grid)
        z = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
        f = _complex_shifted(k_op, shift, z)

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
        f = _complex_shifted(k_op, shift, z)
        lhs = op.apply(np.concatenate([z.real, z.imag]))
        rhs = saddle_rhs(f)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * max(1.0, np.linalg.norm(rhs))


def test_apply_complex_shifted_examples():
    # (K + (alpha + beta i) I) z through the block operator: f is stacked as (Im f; Re f)
    # n=1, K = [[16]]: (16 + 1 + 2i) * 1 = 17 + 2i
    one = SaddleOperator(assemble_laplacian_2d_constant(GridSpec(1, 2)), Shift(1.0, 2.0))
    np.testing.assert_array_equal(one.apply(np.array([1.0, 0.0])), [2.0, 17.0])
    # a real z with a real shift gives a real f: the Im f half is exactly 0
    k2 = assemble_laplacian_2d_constant(GridSpec(3, 2))
    z = np.arange(1.0, 10.0)
    out = SaddleOperator(k2, Shift(3.0, 0.0)).apply(np.concatenate([z, np.zeros(9)]))
    np.testing.assert_array_equal(out[:9], 0.0)
    np.testing.assert_allclose(out[9:], _complex_shifted(k2, Shift(3.0, 0.0), z).real,
                               rtol=1e-14)


def test_length_validation():
    op = SaddleOperator(_ZeroStencil(GridSpec(2, 2)), Shift(0.0, 1.0))
    with pytest.raises(ValueError):
        op.apply(np.zeros(4))


def _reference_block_apply(op, v):
    """A v by the whole-array formulas: the stencil on both halves, then the shift."""
    alpha, beta = op.shift.alpha, op.shift.beta
    swapped = v.reshape(2, op.k_op.grid.m)[::-1]
    out = _reference_apply(op.k_op, swapped)
    scratch = alpha * swapped
    out += scratch
    np.multiply(swapped[1], beta, out=scratch[0])
    out[0] += scratch[0]
    np.multiply(swapped[0], beta, out=scratch[1])
    out[1] -= scratch[1]
    return out.ravel()


def _reference_sine_basis_apply(op, v):
    """W A W v by the whole-array formulas, Lambda + alpha formed for the whole grid."""
    alpha, beta = op.shift.alpha, op.shift.beta
    n = op.k_op.grid.n
    swapped = v.reshape(2, n, n)[::-1]
    lam1 = axis_eigenvalues(op.k_op.grid)
    scratch = lam1[:, None] + lam1[None, :]
    scratch += alpha
    out = swapped * scratch
    np.multiply(swapped[1], beta, out=scratch)
    out[0] += scratch
    np.multiply(swapped[0], beta, out=scratch)
    out[1] -= scratch
    return out.ravel()


def _check_blocked_applies(grid, rng):
    coefficient = separable_quadratic_coefficient()
    for shift in (Shift(-600.0, 150.0), Shift(100.0, -100.0), Shift(0.0, 1.0)):
        for k_op in (assemble_laplacian_2d_constant(grid),
                     assemble_laplacian_2d_variable(grid, coefficient)):
            op = SaddleOperator(k_op, shift)
            v = rng.standard_normal(2 * grid.m)
            kept = v.copy()
            np.testing.assert_array_equal(op.apply(v), _reference_block_apply(op, v))
            if k_op.kind == "constant_laplacian":
                np.testing.assert_array_equal(_sine_basis_apply(op, v),
                                              _reference_sine_basis_apply(op, v))
            np.testing.assert_array_equal(v, kept)


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_blocked_applies_match_whole_array_formulas_at_block_boundaries(n, monkeypatch):
    monkeypatch.setattr(grid_module, "blocks", fixed_blocks)
    monkeypatch.setattr(precond_module, "blocks", fixed_blocks)
    _check_blocked_applies(GridSpec(n, 2), np.random.default_rng(60 + n))


def test_blocked_applies_match_whole_array_formulas_over_many_blocks():
    grid = GridSpec(255, 2)
    assert len(grid_module.blocks(grid.n, 8 * grid.n * 2 * 3)) > 2
    _check_blocked_applies(grid, np.random.default_rng(61))
