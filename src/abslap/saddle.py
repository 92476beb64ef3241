"""Real symmetric block form of the complex-shifted system (K + lambda I) z = f.

With lambda = alpha + beta i and z = z1 + z2 i, the complex equation is
equivalent to the symmetric indefinite block system

    [ beta I     K + alpha I ] [z1]   [Im f]
    [ K + alpha I   -beta I  ] [z2] = [Re f].

The first block row matches the imaginary part of the complex equation and
the second the real part; saddle_rhs builds that right-hand side, and
real_to_complex unstacks the solution (z1; z2) into z1 + z2 i.

For the constant-coefficient stencil K = L the 2D sine transform W
diagonalizes K, so W A W (W on each half) has four diagonal blocks;
SaddleOperator.apply_in_sine_basis applies it elementwise.

Both applies walk the (2, n, n) stack of halves in row blocks sized by
grid.BLOCK_BYTES, so their temporaries are block-sized.  apply adds the
alpha and beta terms to each block of the stencil's output while it is
still in cache, so each input row is read from memory once per block.  Every
element goes through the same operations, in the same order, as in a
whole-array evaluation, so the results do not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import KIND_CONSTANT, StencilOperator, axis_eigenvalues, blocks, stacked_halves


@dataclass(frozen=True)
class Shift:
    """Complex shift lambda = alpha + beta i, with alpha and beta finite."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"shift must be finite, got ({self.alpha:g}, {self.beta:g})")


class SaddleOperator:
    """Symmetric indefinite block operator for a given stencil and shift."""

    def __init__(self, k_op: StencilOperator, shift: Shift):
        self.k_op = k_op
        self.shift = shift

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A v, the alpha and beta terms added to each row block of the
        stencil's output while it is in cache."""
        n = self.k_op.grid.n
        swapped = stacked_halves(v, n * n).reshape(2, n, n)[::-1]  # (v2; v1)
        out = np.empty(swapped.shape)
        # (K v2 + alpha v2 + beta v1; K v1 + alpha v1 - beta v2)
        for rows in self.k_op.apply_in_blocks(swapped, out, extra=2):
            o = out[:, rows]
            o += swapped[:, rows] * self.shift.alpha
            self._add_beta_terms(swapped, rows, o)
        return out.ravel()

    def apply_in_sine_basis(self, v: np.ndarray) -> np.ndarray:
        """W A W v, W the 2D sine transform on each half, for the constant stencil.

        The transform diagonalizes K = L with the Laplacian eigenvalues
        Lambda, so in that basis the operator is [[beta I, Lambda + alpha I],
        [Lambda + alpha I, -beta I]] and applies elementwise, one row block
        at a time.  Each block forms its rows of Lambda + alpha from the
        one-axis eigenvalues, so no m-length array but the output is made.
        Raises ValueError for a variable-coefficient stencil, which the
        transform does not diagonalize.
        """
        if self.k_op.kind != KIND_CONSTANT:
            raise ValueError("the sine transform diagonalizes only the "
                             f"constant-coefficient stencil, not {self.k_op.kind!r}")
        n = self.k_op.grid.n
        swapped = stacked_halves(v, n * n).reshape(2, n, n)[::-1]  # (v2; v1)
        lam1 = axis_eigenvalues(self.k_op.grid)
        out = np.empty(swapped.shape)
        for rows in blocks(n, 8 * n * 2 * 3):  # rows of three (2, n, n) stacks
            o = out[:, rows]
            lam = lam1[rows, None] + lam1[None, :]
            lam += self.shift.alpha  # Lambda + alpha, rounded as the preconditioner's weights
            np.multiply(swapped[:, rows], lam, out=o)
            self._add_beta_terms(swapped, rows, o)
        return out.ravel()

    def _add_beta_terms(self, swapped, rows, o) -> None:
        """o += (beta v1; -beta v2) on one row block of both halves."""
        o[0] += swapped[1, rows] * self.shift.beta
        o[1] -= swapped[0, rows] * self.shift.beta

    def dense(self) -> np.ndarray:
        k = self.k_op.dense()
        alpha, beta = self.shift.alpha, self.shift.beta
        eye = np.eye(len(k))
        shifted = k + alpha * eye
        return np.block([[beta * eye, shifted], [shifted, -beta * eye]])


def real_to_complex(w: np.ndarray) -> np.ndarray:
    """Unstack a real vector (real part; imaginary part) into a complex one."""
    w = np.asarray(w, dtype=float)
    if w.size % 2 != 0:
        raise ValueError(f"stacked vector must have even length, got {w.size}")
    m = w.size // 2
    return w[:m] + 1j * w[m:]


def saddle_rhs(f: np.ndarray) -> np.ndarray:
    """Block right-hand side for the symmetric system: (imag part; real part).

    Solving the block system with this right-hand side yields the stacked
    solution (Re z; Im z), recoverable with real_to_complex.
    """
    f = np.asarray(f)
    out = np.empty(2 * f.size)
    out[:f.size] = np.imag(f)
    out[f.size:] = np.real(f)
    return out

