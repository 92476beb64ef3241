"""Orthonormal two-dimensional discrete sine transform (DST-I).

The length-n transform matrix has entries sqrt(2/(n+1)) sin(jk pi/(n+1)),
j, k = 1..n.  With this normalization it is symmetric and orthogonal, hence
its own inverse, and a single code path serves forward and backward
transforms.  Applied along both axes it diagonalizes the
constant-coefficient Dirichlet Laplacian on the unit square: along one axis
the eigenvalue of mode p is (4/h^2) sin^2(p pi h / 2) with h = 1/(n+1),
and the two axes' modes combine additively.

Two evaluation routes are kept deliberately separate so they can check each
other: a fast path that embeds the transform into a real FFT of length
2(n+1) via odd extension, and an explicit O(n^2) matrix product.
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


def _dst1_last_axis(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis via odd extension into a real FFT.

    The signal is embedded as [0, x, 0, -reverse(x)] of length 2(n+1); the
    imaginary part of the FFT then carries -2 times the sine sum.
    """
    n = x.shape[-1]
    w = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    w[..., 1:n + 1] = x
    w[..., n + 2:] = -x[..., ::-1]
    spectrum = np.fft.rfft(w)[..., 1:n + 1]
    return spectrum.imag * (-0.5 * math.sqrt(2.0 / (n + 1)))


class SineTransform:
    """Involutory 2D DST-I plan on an n-by-n grid, acting on flat vectors.

    apply() uses the FFT embedding; apply_reference() multiplies by the
    dense transform matrix one axis at a time and exists as the independent
    slow route for tests.
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
        v = np.asarray(v, dtype=float)
        if v.shape != (self.size,):
            raise ValueError(
                f"expected vector of length {self.size}, got shape {v.shape}"
            )
        return v

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = self._check(v)
        x = v.reshape(self.n, self.n)
        x = _dst1_last_axis(x)
        x = _dst1_last_axis(x.T).T
        return x.ravel()

    def apply_reference(self, v: np.ndarray) -> np.ndarray:
        v = self._check(v)
        s = self.matrix()
        x = v.reshape(self.n, self.n)
        return (s @ x @ s).ravel()


def laplacian_eigenvalues(grid: GridSpec) -> np.ndarray:
    """Eigenvalues of the Dirichlet Laplacian on this grid, in DST basis order.

    Mode ordering matches the row-major vectorization used by the grid
    operators, so dst(L dst(v)) scales coordinates by exactly this vector.
    """
    h = grid.h
    p = np.arange(1, grid.n + 1)
    lam1 = (4.0 / h ** 2) * np.sin(0.5 * math.pi * h * p) ** 2
    return (lam1[:, None] + lam1[None, :]).ravel()
