"""Grid geometry, stencil assembly, and dense materialization checks."""

import math
import tracemalloc

import numpy as np
import pytest

from abslap import grid as grid_module
from abslap.dst import sine_matrix
from abslap.grid import (
    KIND_CONSTANT,
    KIND_VARIABLE,
    CoefficientField,
    GridSpec,
    StencilOperator,
    assemble_laplacian_2d_constant,
    assemble_laplacian_2d_variable,
    axis_eigenvalues,
    constant_coefficient,
    laplacian_eigenvalues,
    separable_quadratic_coefficient,
    smallest_laplacian_eigenvalue,
    swap_blocks,
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
    # a float n, even a whole one, would give a float unknown count
    for n in (3.0, 3.5):
        with pytest.raises(ValueError, match="must be an integer"):
            GridSpec(n)
    for n in (np.int64(3), np.int32(3)):
        assert GridSpec(n).m == 9


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
    # an infinite bound makes the weights inf and P^-1 zero, which a
    # certificate over [0, inf] would pass
    for a_min, a_max in ((400.0, math.inf), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="need 0 < a_min <= a_max < inf"):
            CoefficientField(lambda x1, x2: x1, a_min=a_min, a_max=a_max)
    # a constant field's positivity is CoefficientField's bound check
    for value in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="need 0 < a_min <= a_max"):
            constant_coefficient(value)


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


def test_smallest_eigenvalue_is_pinned_bit_for_bit():
    # the closed form as written before the one-axis eigenvalues moved into
    # grid, kept here as the reference every grid size must match exactly
    def reference(grid):
        h = grid.h
        return 2.0 * (4.0 / h ** 2) * math.sin(0.5 * math.pi * h) ** 2

    for n in range(1, 2048):
        grid = GridSpec(n, 2)
        assert smallest_laplacian_eigenvalue(grid) == reference(grid), n


def test_variable_reduces_to_constant_for_unit_coefficient():
    # unit edges are the Laplacian's edges: every form of K has the same bits
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 31):
        grid = GridSpec(n, 2)
        const = StencilOperator(grid)
        var = assemble_laplacian_2d_variable(grid, constant_coefficient())
        assert (const.kind, var.kind) == (KIND_CONSTANT, KIND_VARIABLE)
        for shape in ((grid.m,), (3, grid.m)):
            u = rng.standard_normal(shape)
            assert var.apply(u).tobytes() == const.apply(u).tobytes()
        assert var.dense().tobytes() == const.dense().tobytes()
        assert var.swap_symmetric and const.swap_symmetric
        for basis in swap_blocks(n, True):
            assert var.block(*basis).tobytes() == const.block(*basis).tobytes()


def test_laplacian_stencil_allocates_no_edge_arrays():
    # its edges and diagonal are zero-stride views of one number each
    grid = GridSpec(1023)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        op = StencilOperator(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert op.kind == KIND_CONSTANT
    assert peak - base < 4096


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


def test_stacked_apply_matches_per_half_applies():
    rng = np.random.default_rng(5)
    for n in (1, 2, 15, 200, 255):
        grid = GridSpec(n, 2)
        for op in (assemble_laplacian_2d_constant(grid),
                   assemble_laplacian_2d_variable(grid, separable_quadratic_coefficient())):
            stack = rng.standard_normal((2, grid.m))
            kept = stack.copy()
            out = op.apply(stack)
            assert out.shape == stack.shape
            np.testing.assert_array_equal(stack, kept)
            for row, u in zip(out, stack):
                np.testing.assert_array_equal(row, op.apply(u))


def test_apply_to_an_empty_stack_is_empty():
    # a stack of no rows is a block of 0 bytes, which fits the budget
    grid = GridSpec(7, 2)
    for op in (assemble_laplacian_2d_constant(grid),
               assemble_laplacian_2d_variable(grid, separable_quadratic_coefficient())):
        out = op.apply(np.empty((0, grid.m)))
        assert out.shape == (0, grid.m)


def test_transform_diagonalizes_constant_operator():
    for n in (3, 7, 15):
        grid = GridSpec(n, 2)
        dense = assemble_laplacian_2d_constant(grid).dense()
        s1 = sine_matrix(n)
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
    # a zero sample lies within the range's slack of a_min = 1e-13, so only
    # the positivity check refuses it
    zero = CoefficientField(lambda x1, x2: 0.0 * x1 * x2, 1e-13, 1.0)
    with pytest.raises(ValueError, match="sample <= 0"):
        assemble_laplacian_2d_variable(grid, zero)


def _reference_apply(op, u):
    """K u by the whole-array formulas, one numpy call per stencil term."""
    n = op.grid.n
    v = np.asarray(u, dtype=float).reshape(-1, n, n)
    if op.kind == KIND_CONSTANT:
        out = 4.0 * v
        out[:, :-1, :] -= v[:, 1:, :]
        out[:, 1:, :] -= v[:, :-1, :]
        out[:, :, :-1] -= v[:, :, 1:]
        out[:, :, 1:] -= v[:, :, :-1]
    else:
        ax, ay = op._edges
        out = op._diag * v
        out[:, :-1, :] -= ax[1:-1, :] * v[:, 1:, :]
        out[:, 1:, :] -= ax[1:-1, :] * v[:, :-1, :]
        out[:, :, :-1] -= ay[:, 1:-1] * v[:, :, 1:]
        out[:, :, 1:] -= ay[:, 1:-1] * v[:, :, :-1]
    out *= op.scale
    return out.reshape(np.shape(u))


# Units per block forced by fixed_blocks, and grid sizes on either side of
# one and two blocks' worth of rows.
BLOCK_ROWS = 5
BOUNDARY_SIZES = (1, 2, 3, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1)


def fixed_blocks(length, unit_bytes):
    return [slice(lo, min(lo + BLOCK_ROWS, length)) for lo in range(0, length, BLOCK_ROWS)]


def _operators(grid):
    return (assemble_laplacian_2d_constant(grid),
            assemble_laplacian_2d_variable(grid, separable_quadratic_coefficient()))


def _check_blocked_apply(op, rng):
    for shape in ((op.grid.m,), (1, op.grid.m), (2, op.grid.m), (3, op.grid.m)):
        u = rng.standard_normal(shape)
        kept = u.copy()
        out = op.apply(u)
        assert out.shape == shape
        np.testing.assert_array_equal(out, _reference_apply(op, u))
        np.testing.assert_array_equal(u, kept)


def test_blocks_cover_the_range_within_the_budget():
    # the stencil's rows, the transform's columns and MINRES's vector entries
    for length, unit_bytes in ((1, 8 * 1 * 1 * 2), (31, 8 * 31 * 2 * 8), (255, 8 * 255 * 2 * 8),
                               (1023, 8 * 1023 * 1 * 2), (600, 8 * 600 * 3 * 6),
                               (1023, 16 * 1024 + 16 * 1025 + 8 * 1023),
                               (130050, 8 * 7)):
        blocks = grid_module.blocks(length, unit_bytes)
        units = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == length
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert max(units) == units[0] and min(units) >= 1
        if len(blocks) > 1:
            assert unit_bytes * units[0] <= grid_module.BLOCK_BYTES
    # a range that fits is one block, whatever its size
    assert grid_module.blocks(31, 8 * 31 * 2 * 8) == [slice(0, 31)]
    # a unit of 0 bytes, as in an empty stack, fits
    assert grid_module.blocks(7, 0) == [slice(0, 7)]
    assert grid_module.blocks(0, 0) == []
    # a unit larger than the budget is a block of its own
    assert grid_module.blocks(3, 2 * grid_module.BLOCK_BYTES) == [slice(0, 1), slice(1, 2),
                                                                  slice(2, 3)]


def test_aligned_empty_starts_on_a_cache_line():
    # malloc may hand out any 16-byte offset; the array always starts on 64
    assert grid_module.aligned_empty(0).shape == (0,)
    for size in (1, 7, 1000, 2 ** 20):
        for _ in range(8):
            a = grid_module.aligned_empty(size)
            assert a.shape == (size,) and a.dtype == np.float64
            assert a.ctypes.data % 64 == 0
    # the Laplacian eigenvalues, in which the preconditioner builds its
    # weights, start on one too, with the whole-array sum's bits
    for n in (1, 7, 63):
        lam, lam1 = laplacian_eigenvalues(GridSpec(n)), axis_eigenvalues(GridSpec(n))
        assert lam.ctypes.data % 64 == 0
        assert lam.tobytes() == (lam1[:, None] + lam1[None, :]).tobytes()


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_blocked_apply_matches_whole_array_formulas_at_block_boundaries(n, monkeypatch):
    monkeypatch.setattr(grid_module, "blocks", fixed_blocks)
    rng = np.random.default_rng(40 + n)
    for op in _operators(GridSpec(n, 2)):
        _check_blocked_apply(op, rng)


def test_blocked_apply_matches_whole_array_formulas_over_many_blocks():
    grid = GridSpec(255, 2)
    rng = np.random.default_rng(41)
    for op in _operators(grid):
        assert len(grid_module.blocks(grid.n, 8 * grid.n * 1 * 2)) > 1
        _check_blocked_apply(op, rng)
