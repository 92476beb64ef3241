"""Orthonormal two-dimensional discrete sine transform (DST-I).

The length-n transform matrix S has entries sqrt(2/(n+1)) sin(jk pi/(n+1)),
j, k = 1..n.  With this normalization it is symmetric and orthogonal, hence
its own inverse, and a single code path serves forward and backward
transforms.  Applied along both axes it diagonalizes the
constant-coefficient Dirichlet Laplacian on the unit square: along one axis
the eigenvalue of mode p is (4/h^2) sin^2(p pi h / 2) with h = 1/(n+1),
and the two axes' modes combine additively.

Two evaluation routes are kept deliberately separate so they can check each
other: a fast path built on a real FFT of length 2(n+1), and an explicit
O(n^2) matrix product.  The fast path is one pass, X -> X^T S, run twice:
(X^T S)^T S = S X S.  A pass walks the columns of X a block at a time.  Each
block is copied, transposed, into a small reused buffer as rows of the odd
extension [0, col, 0, -reverse(col)]; the imaginary part of that buffer's
FFT carries -2 times the sine sums, which land in the matching rows of the
output.  The block is sized so that the buffer, its spectrum and the output
rows stay in a core's L2 cache, so no full-size extension or transposed copy
is ever made.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridSpec


def sine_matrix(n: int) -> np.ndarray:
    """Dense orthonormal DST-I matrix of order n."""
    if n < 1:
        raise ValueError(f"transform size must be >= 1, got {n}")
    j = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * (math.pi / (n + 1)))


# Bytes of odd-extension buffer, spectrum and output rows one block touches.
# Smaller blocks pay numpy's per-call FFT overhead more often.
_BLOCK_BYTES = 512 * 1024


def _transpose_dst(x: np.ndarray) -> np.ndarray:
    """out[b] = x[b].T @ S for a stack x of n-by-n arrays, one column block at a time."""
    n = x.shape[-1]
    rows = max(1, min(n, _BLOCK_BYTES // (16 * (n + 1) + 16 * (n + 2) + 8 * n)))
    scale = -0.5 * math.sqrt(2.0 / (n + 1))
    ext = np.zeros((rows, 2 * (n + 1)))
    out = np.empty(x.shape)
    for xb, ob in zip(x, out):
        for i in range(0, n, rows):
            e = ext[:min(rows, n - i)]
            e[:, 1:n + 1] = xb[:, i:i + rows].T
            np.negative(e[:, n:0:-1], out=e[:, n + 2:])
            np.multiply(np.fft.rfft(e).imag[:, 1:n + 1], scale, out=ob[i:i + rows])
    return out


class SineTransform:
    """Involutory 2D DST-I plan on an n-by-n grid, acting on flat vectors.

    Both routes take a flat vector of length n*n or a stack of them, shape
    (B, n*n), and transform each row.  apply() uses the FFT embedding;
    apply_reference() multiplies by the dense transform matrix one axis at a
    time and exists as the independent slow route for tests.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"transform size must be >= 1, got {n}")
        self.n = n
        self._matrix = None

    @property
    def size(self) -> int:
        return self.n * self.n

    def matrix(self) -> np.ndarray:
        """Cached dense one-dimensional transform matrix."""
        if self._matrix is None:
            self._matrix = sine_matrix(self.n)
        return self._matrix

    def _check(self, v: np.ndarray) -> np.ndarray:
        """Validate a flat vector (m,) or a stack (B, m); view it as (B, n, n)."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != self.size:
            raise ValueError(
                f"expected shape ({self.size},) or (B, {self.size}), got {v.shape}"
            )
        return v.reshape(-1, self.n, self.n)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """2D transform of a flat vector or of each row of a stack; same shape out."""
        x = self._check(v)
        return _transpose_dst(_transpose_dst(x)).reshape(np.shape(v))

    def apply_reference(self, v: np.ndarray) -> np.ndarray:
        s = self.matrix()
        return (s @ self._check(v) @ s).reshape(np.shape(v))


def laplacian_eigenvalues(grid: GridSpec) -> np.ndarray:
    """Eigenvalues of the Dirichlet Laplacian on this grid, in DST basis order.

    Mode ordering matches the row-major vectorization used by the grid
    operators, so dst(L dst(v)) scales coordinates by exactly this vector.
    """
    h = grid.h
    p = np.arange(1, grid.n + 1)
    lam1 = (4.0 / h ** 2) * np.sin(0.5 * math.pi * h * p) ** 2
    return (lam1[:, None] + lam1[None, :]).ravel()
