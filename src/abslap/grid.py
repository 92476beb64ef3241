"""Uniform Dirichlet grids and five-point finite difference operators.

The domain is the open unit square with homogeneous Dirichlet boundary
conditions, discretized on n interior points per dimension with mesh width
h = 1/(n+1).  Operators carry the 1/h^2 scaling of the continuous problem,
so eigenvalues approach those of -div(a grad .) as the grid is refined.
Variable coefficients are sampled at edge midpoints, which keeps the
assembled operator symmetric and preserves the a_min * L <= K <= a_max * L
ordering against the constant-coefficient Laplacian L.

There is one stencil representation: edges and a row diagonal.  The
Laplacian is the five-point stencil whose edges are all 1, held as
zero-stride views that allocate nothing; it differs from a variable
stencil only in apply(), which skips the multiplies by unit edges.
StencilOperator owns every matrix form of K, and no other module reads its
edge arrays: apply() is matrix-free, block() is the one scatter of K onto a
basis of grid arrays from swap_blocks, dense() is block() on the plain
basis, and swap_symmetric says whether K commutes with the axis swap, so
that the two swap bases split it in two.

The constant-coefficient stencil's spectrum is known in closed form, since
the 2D sine transform of abslap.dst diagonalizes it.  axis_eigenvalues
evaluates the one-axis eigenvalues, the one place their formula is
written; laplacian_eigenvalues sums the two axes' modes in transform
order, and smallest_laplacian_eigenvalue is the lowest of them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Hard cap for dense materialization; above it the quadratic storage is no
# longer desk-scale.
DENSE_CAP_2D = 63

KIND_CONSTANT = "constant_laplacian"
KIND_VARIABLE = "variable_laplacian"


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the unit square: n interior points per dimension, h = 1/(n+1).

    dim is fixed at 2; it stays a field so callers can state it.
    """

    n: int
    dim: int = 2

    def __post_init__(self):
        # a float n would give a float m and fail far from here, in numpy
        if not isinstance(self.n, numbers.Integral):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"need at least one interior point, got n={self.n}")
        if self.dim != 2:
            raise ValueError(f"only the unit square is supported (dim=2), got dim={self.dim}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def m(self) -> int:
        """Number of scalar unknowns, n**2."""
        return self.n * self.n


@dataclass(frozen=True)
class CoefficientField:
    """Scalar diffusion coefficient with certified bounds 0 < a_min <= a <= a_max.

    The evaluator must accept numpy arrays of coordinates and evaluate
    elementwise.  The bounds are trusted by the spectral bound machinery, so
    assembly re-checks every sample against them.
    """

    evaluator: Callable[..., np.ndarray]
    a_min: float
    a_max: float

    def __post_init__(self):
        # an infinite a_max makes every weight inf and P^-1 zero, which a
        # certificate over [0, inf] would then pass
        if not (0.0 < self.a_min <= self.a_max < math.inf):
            raise ValueError(
                f"need 0 < a_min <= a_max < inf, got [{self.a_min}, {self.a_max}]"
            )

    @property
    def gamma(self) -> float:
        """Geometric mean of the coefficient bounds, sqrt(a_min * a_max)."""
        return math.sqrt(self.a_min * self.a_max)

    @property
    def is_constant_one(self) -> bool:
        return self.a_min == 1.0 and self.a_max == 1.0


def constant_coefficient(value: float = 1.0) -> CoefficientField:
    """Constant field a(x) = value; CoefficientField refuses a value that is not positive."""

    def evaluator(*coords):
        shape = np.broadcast(*(np.asarray(c, float) for c in coords)).shape
        return np.full(shape, value)

    return CoefficientField(evaluator, value, value)


def separable_quadratic_coefficient() -> CoefficientField:
    """a(x1, x2) = (20 + x1^2)(20 + x2^2), range [400, 441] on the closed unit square."""
    return CoefficientField(lambda x1, x2: (20.0 + x1 ** 2) * (20.0 + x2 ** 2),
                            400.0, 441.0)


# Bytes one block of a pass touches: about a quarter of a core's 2 MB L2
# cache, so a block is read from memory once and its temporaries stay in
# cache.  The stencil, the block operator, MINRES's vector updates and the
# sine transform's column blocks and groups of arrays all cut their ranges
# by it, through blocks().
BLOCK_BYTES = 512 * 1024


def aligned_empty(size: int) -> np.ndarray:
    """np.empty(size) of float64 that starts on a 64-byte cache line.

    malloc aligns only to 16 bytes, so where a large array starts follows the
    heap's history; numpy's vector loops run slower on one that straddles
    cache lines, and the time of a pass then moves with unrelated code.
    """
    buf = np.empty(size + 7)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + size]


def blocks(length: int, unit_bytes: int) -> list[slice]:
    """Slices covering range(length), each of as many units as fit in
    BLOCK_BYTES when one unit touches unit_bytes bytes, and at least one;
    a range that fits is one slice.  A unit of 0 bytes, as in an empty
    stack, always fits."""
    step = max(1, BLOCK_BYTES // max(unit_bytes, 1))
    return [slice(lo, min(lo + step, length)) for lo in range(0, length, step)]


def grid_stack(v, n: int) -> np.ndarray:
    """Validate a flat grid vector (m,) or a stack (B, m), m = n*n, as float64;
    view it as the (B, n, n) stack of its grid arrays."""
    v = np.asarray(v, dtype=float)
    m = n * n
    if v.ndim not in (1, 2) or v.shape[-1] != m:
        raise ValueError(f"expected shape ({m},) or (B, {m}), got {v.shape}")
    return v.reshape(-1, n, n)


def stacked_halves(w, m: int) -> np.ndarray:
    """Validate a stacked block vector of length 2m as float64; view it as its
    (2, m) halves."""
    w = np.asarray(w, dtype=float)
    if w.shape != (2 * m,):
        raise ValueError(f"expected stacked vector of length {2 * m}, got shape {w.shape}")
    return w.reshape(2, m)


class StencilOperator:
    """Matrix-free symmetric positive definite five-point operator.

    Every stencil is held as its unscaled edges and row diagonal: ax, of
    shape (n+1, n), on the edge between (i-1, j) and (i, j); ay, of shape
    (n, n+1), on the edge between (i, j-1) and (i, j); and diag, of shape
    (n, n), the sum of a point's four edges.  Built from coefficient samples
    at edge midpoints, (ax, ay), its kind is "variable_laplacian".  Built
    from none, it is the plain Laplacian, kind "constant_laplacian": its
    edges are read-only zero-stride views of 1 and its diagonal one of 4,
    so it allocates no array, and apply() skips its edge multiplies.
    Instances are immutable after assembly.  apply() walks its input in
    row blocks sized by BLOCK_BYTES, so its products are block-sized
    temporaries; it allocates only those and its output and keeps no state,
    so sharing one operator across solves is safe.
    """

    def __init__(self, grid: GridSpec, edge_coefficients=None):
        self.grid = grid
        n = grid.n
        self.kind = KIND_CONSTANT if edge_coefficients is None else KIND_VARIABLE
        if edge_coefficients is None:
            self._edges = (np.broadcast_to(1.0, (n + 1, n)), np.broadcast_to(1.0, (n, n + 1)))
            self._diag = np.broadcast_to(4.0, (n, n))
        else:
            ax, ay = self._edges = edge_coefficients
            self._diag = ax[1:, :] + ax[:-1, :]
            self._diag += ay[:, 1:]
            self._diag += ay[:, :-1]

    @property
    def scale(self) -> float:
        return (self.grid.n + 1.0) ** 2  # 1/h^2

    def apply(self, u: np.ndarray) -> np.ndarray:
        """K u for a flat vector (m,) or for each row of a stack (B, m); same shape out."""
        v = grid_stack(u, self.grid.n)
        out = np.empty(v.shape)
        for _ in self.apply_in_blocks(v, out):
            pass
        return out.reshape(np.shape(u))

    def apply_in_blocks(self, v: np.ndarray, out: np.ndarray, extra: int = 0):
        """Write K v into out for a (B, n, n) stack v, one row block at a time.

        Yields each block's row slice once those rows of out hold K v, so a
        caller can add its own terms while they are in cache; `extra` is the
        number of stacks it touches per element there, counted in the block
        size.  Each element goes through the same operations, in the same
        order, as in a whole-array evaluation.
        """
        n, scale = self.grid.n, self.scale
        variable = self.kind == KIND_VARIABLE
        (ax, ay), diag = self._edges, self._diag

        def weighted(a, x):
            """A neighbour term: x times its edges, or x itself on unit edges."""
            return a * x if variable else x

        for rows in blocks(n, 8 * n * len(v) * ((6 if variable else 2) + extra)):
            lo, hi = rows.start, rows.stop
            top = min(hi, n - 1) - lo  # rows lo..lo+top-1 have a successor
            low = max(lo, 1)  # rows low..hi-1 have a predecessor
            o, x = out[:, lo:hi], v[:, lo:hi]
            np.multiply(diag[lo:hi], x, out=o)
            o[:, :top] -= weighted(ax[lo + 1:lo + top + 1], v[:, lo + 1:lo + top + 1])
            o[:, low - lo:] -= weighted(ax[low:hi], v[:, low - 1:hi - 1])
            a = ay[lo:hi, 1:-1]
            o[:, :, :-1] -= weighted(a, x[:, :, 1:])
            o[:, :, 1:] -= weighted(a, x[:, :, :-1])
            o *= scale
            yield rows

    @property
    def swap_symmetric(self) -> bool:
        """Whether K = Pi K Pi for the axis swap Pi, (ij) -> (ji), tested exactly on
        the stencil's edges.  Pi maps K's off-diagonal entries, the interior edges
        ax[1:-1], onto ay[:, 1:-1]^T, and its diagonal onto the diagonal's
        transpose.  The constant stencil always passes."""
        (ax, ay), diag = self._edges, self._diag
        return np.array_equal(ax[1:-1], ay[:, 1:-1].T) and np.array_equal(diag, diag.T)

    def block(self, i, j, sign: float, c) -> np.ndarray:
        """K_b on one basis of swap_blocks, scattered from the stencil's edges.

        Basis vector r sits on the pair (i_r, j_r), and pos[p, q] = pos[q, p] is
        the basis vector on {p, q}; the plain basis writes pos[q, p] first and
        pos[p, q] last, so each of its arrays keeps its own.  Row r's five
        stencil entries K[i_r j_r, pq] go to K_b[r, pos[p, q]] times c_r c_r'
        and a factor: 1 when (p, q) is that basis vector's own pair, the block's
        sign when it is the swapped pair, and 1 + sign when p == q, both at once.
        A point of the antisymmetric block's diagonal has no basis vector; its
        factor 1 + sign is 0.  No m-by-m matrix is formed unless the basis has
        m vectors, as the plain one does.
        """
        n = self.grid.n
        (ax, ay), diag = self._edges, self._diag
        size = i.size
        r = np.arange(size)
        pos = np.full((n, n), -1)
        pos[j, i] = r
        pos[i, j] = r
        # (row, p, q, value) of the diagonal and of the four neighbours inside the grid
        entries = [(r, i, j, diag[i, j])]
        for p, q, edge in ((i + 1, j, ax[i + 1, j]), (i - 1, j, ax[i, j]),
                           (i, j + 1, ay[i, j + 1]), (i, j - 1, ay[i, j])):
            inside = (p >= 0) & (p < n) & (q >= 0) & (q < n)
            entries.append((r[inside], p[inside], q[inside], -edge[inside]))
        rows, p, q, value = (np.concatenate(parts) for parts in zip(*entries))
        cols = pos[p, q]
        kept = cols >= 0
        rows, p, cols, value = rows[kept], p[kept], cols[kept], value[kept]
        factor = (i[cols] == p) + sign * (j[cols] == p)
        k = np.zeros((size, size))
        np.add.at(k, (rows, cols), factor * value * (c[rows] * c[cols] * self.scale))
        return k

    def dense(self) -> np.ndarray:
        """Materialize the full m-by-m matrix, block() on the plain basis.
        Guarded by the dense cap."""
        n = self.grid.n
        if n > DENSE_CAP_2D:
            raise ValueError(f"dense operator capped at n={DENSE_CAP_2D}, got {n}")
        (plain,) = swap_blocks(n, False)
        return self.block(*plain)


def swap_blocks(n: int, swap_symmetric: bool):
    """Bases of the n-by-n arrays in which a matrix is block diagonal: one
    (i, j, sign, c) per block, basis vector r built on the pair (i_r, j_r).

    For a matrix that commutes with the axis swap these are the symmetric
    arrays, (e_ij + e_ji) / sqrt(2) for i < j and e_ii, sign +1, and the
    antisymmetric ones, (e_ij - e_ji) / sqrt(2) for i < j, sign -1.  The
    gather weight c is 1 off the diagonal and 1/sqrt(2) on it.  Otherwise
    there is one block, the plain basis e_ij, with sign 0 and c = 1.
    """
    if not swap_symmetric:
        i, j = np.divmod(np.arange(n * n), n)
        return [(i, j, 0.0, np.ones(n * n))]
    i, j = np.triu_indices(n)
    off = i < j
    return [(i, j, 1.0, np.where(off, 1.0, math.sqrt(0.5))),
            (i[off], j[off], -1.0, np.ones(int(off.sum())))]


def assemble_laplacian_2d_constant(grid: GridSpec) -> StencilOperator:
    """Five-point Laplacian on the unit square, L = L1 x I + I x L1 scaled by 1/h^2."""
    return StencilOperator(grid)


def assemble_laplacian_2d_variable(grid: GridSpec, coefficient: CoefficientField) -> StencilOperator:
    """Conservative five-point operator for -div(a grad u), a sampled at edge midpoints.

    Interior point (i, j), zero-based, sits at (x1, x2) = ((i+1)h, (j+1)h).
    The edge between (i, j) and its neighbor in the first coordinate carries
    a((i+1/2)h, (j+1)h); analogously in the second coordinate.
    """
    n, h = grid.n, grid.h
    centers = (np.arange(n) + 1.0) * h
    half = (np.arange(n + 1) + 0.5) * h
    ax = np.asarray(coefficient.evaluator(half[:, None], centers[None, :]), dtype=float)
    ay = np.asarray(coefficient.evaluator(centers[:, None], half[None, :]), dtype=float)
    # every comparison with NaN is False, so each check is written to fail
    # on a NaN sample, which min and max propagate
    for direction, arr in (("first-coordinate", ax), ("second-coordinate", ay)):
        if not arr.min() > 0.0:
            raise ValueError(f"coefficient sample <= 0 on a {direction} edge midpoint")
    lo, hi = coefficient.a_min, coefficient.a_max
    slack = 1e-12 * max(1.0, hi)
    for arr in (ax, ay):
        if not (arr.min() >= lo - slack and arr.max() <= hi + slack):
            raise ValueError(
                f"coefficient sample outside certified range [{lo}, {hi}]: "
                f"saw [{arr.min()}, {arr.max()}]"
            )
    return StencilOperator(grid, (ax, ay))


def axis_eigenvalues(grid: GridSpec) -> np.ndarray:
    """Eigenvalues (4/h^2) sin^2(p pi h / 2), p = 1..n, of the Laplacian along one axis."""
    h = grid.h
    p = np.arange(1, grid.n + 1)
    return (4.0 / h ** 2) * np.sin(0.5 * math.pi * h * p) ** 2


def laplacian_eigenvalues(grid: GridSpec) -> np.ndarray:
    """Eigenvalues of the Dirichlet Laplacian on this grid, in DST basis order.

    Mode ordering matches the row-major vectorization used by the grid
    operators, so dst(L dst(v)) scales coordinates by exactly this vector:
    entry (i, j) of its n-by-n view is lam1[i] + lam1[j], lam1 the
    axis_eigenvalues.
    """
    lam1 = axis_eigenvalues(grid)
    out = aligned_empty(grid.m)  # the preconditioner's weights are built in it
    np.add(lam1[:, None], lam1[None, :], out=out.reshape(grid.n, grid.n))
    return out


def smallest_laplacian_eigenvalue(grid: GridSpec) -> float:
    """Exact smallest eigenvalue of the discrete Dirichlet Laplacian on this grid:
    the smallest mode along each of the two axes, summed."""
    return float(2.0 * axis_eigenvalues(grid)[0])
