"""Absolute-value block preconditioners applied through the sine transform.

For the block system with blocks K + alpha I and +-beta I, the ideal
preconditioner is the matrix absolute value of the block operator, which is
block diagonal with two copies of sqrt((K + alpha I)^2 + beta^2 I).  For
constant coefficients K is diagonalized by the DST, so applying any real
power costs two transforms and one diagonal scaling per half: weights are
sqrt((lam + alpha)^2 + beta^2) over the Laplacian eigenvalues lam.

For variable coefficients bounded by 0 < a_min <= a <= a_max the averaged
variant replaces K with gamma L, gamma = sqrt(a_min a_max), keeping the
same diagonal application while the spectral bounds control the quality of
the approximation.
"""

from __future__ import annotations

import numpy as np

from .dst import SineTransform, laplacian_eigenvalues
from .grid import DENSE_CAP_2D, CoefficientField, GridSpec
from .saddle import Shift


class SpectralPreconditioner:
    """Block-diagonal operator W diag(weights) W per half, W the 2D DST."""

    def __init__(self, grid: GridSpec, shift: Shift, weights: np.ndarray, gamma: float):
        self.grid = grid
        self.shift = shift
        self.weights = weights
        self.gamma = gamma
        self.transform = SineTransform(grid.n)
        self.m = grid.m

    def apply_inverse(self, w: np.ndarray) -> np.ndarray:
        """Apply P^-1 to a stacked vector, one transform pair per block half."""
        w = np.asarray(w, dtype=float)
        if w.shape != (2 * self.m,):
            raise ValueError(
                f"expected stacked vector of length {2 * self.m}, got shape {w.shape}"
            )
        t = self.transform
        weights = 1.0 / self.weights
        top = t.apply(weights * t.apply(w[:self.m]))
        bot = t.apply(weights * t.apply(w[self.m:]))
        return np.concatenate([top, bot])

    def materialize_block(self, exponent: float = 1.0) -> np.ndarray:
        """Dense m-by-m matrix of one diagonal block at the given power.

        Uses the reference transform matrix, so this is the slow route;
        guarded by the dense cap.
        """
        if self.grid.n > DENSE_CAP_2D:
            raise ValueError(f"dense block capped at n={DENSE_CAP_2D}, got {self.grid.n}")
        s = self.transform.matrix()
        d = self.weights ** exponent
        w2 = np.kron(s, s)
        return (w2 * d) @ w2

    def materialize(self, exponent: float = 1.0) -> np.ndarray:
        """Dense 2m-by-2m block-diagonal materialization."""
        block = self.materialize_block(exponent)
        out = np.zeros((2 * self.m, 2 * self.m))
        out[:self.m, :self.m] = block
        out[self.m:, self.m:] = block
        return out


def _build(grid: GridSpec, shift: Shift, gamma: float) -> SpectralPreconditioner:
    lam = laplacian_eigenvalues(grid)
    weights = np.hypot(gamma * lam + shift.alpha, shift.beta)
    if np.any(weights == 0.0):
        idx = int(np.argmin(weights))
        raise ValueError(
            "singular preconditioner: beta = 0 and alpha cancels the Laplacian "
            f"eigenvalue {float(gamma * lam[idx]):g} (mode index {idx})"
        )
    return SpectralPreconditioner(grid, shift, weights, gamma)


def build_ideal(grid: GridSpec, shift: Shift) -> SpectralPreconditioner:
    """Exact absolute-value preconditioner for the constant-coefficient case K = L."""
    return _build(grid, shift, 1.0)


def build_averaged(grid: GridSpec, coefficient: CoefficientField, shift: Shift) -> SpectralPreconditioner:
    """Averaged preconditioner: K replaced by gamma L, gamma = sqrt(a_min a_max)."""
    return _build(grid, shift, coefficient.gamma)
