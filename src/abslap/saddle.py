"""Real symmetric block form of the complex-shifted system (K + lambda I) z = f.

With lambda = alpha + beta i and z = z1 + z2 i, the complex equation is
equivalent to the symmetric indefinite block system

    [ beta I     K + alpha I ] [z1]   [Im f]
    [ K + alpha I   -beta I  ] [z2] = [Re f].

The first block row matches the imaginary part of the complex equation and
the second the real part; saddle_rhs builds that right-hand side, and
real_to_complex unstacks the solution (z1; z2) into z1 + z2 i.

apply walks the (2, n, n) stack of halves in row blocks sized by
grid.BLOCK_BYTES, so its temporaries are block-sized.  It adds the alpha
and beta terms to each block of the stencil's output while it is still in
cache, so each input row is read from memory once per block.  Every element
goes through the same operations, in the same order, as in a whole-array
evaluation, so the result does not depend on the block size.  The operator
in the sine basis, where the constant stencil makes it diagonal, belongs to
precond.sine_basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import StencilOperator, stacked_halves


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
            o[0] += swapped[1, rows] * self.shift.beta
            o[1] -= swapped[0, rows] * self.shift.beta
        return out.ravel()

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

