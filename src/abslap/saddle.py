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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dst import axis_eigenvalues
from .grid import KIND_CONSTANT, StencilOperator


@dataclass(frozen=True)
class Shift:
    """Complex shift lambda = alpha + beta i."""

    alpha: float
    beta: float


class SaddleOperator:
    """Symmetric indefinite block operator for a given stencil and shift."""

    def __init__(self, k_op: StencilOperator, shift: Shift):
        self.k_op = k_op
        self.shift = shift
        self.m = k_op.grid.m

    @property
    def size(self) -> int:
        return 2 * self.m

    def _check(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.size,):
            raise ValueError(f"expected vector of length {self.size}, got shape {v.shape}")
        return v

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = self._check(v)
        alpha, beta = self.shift.alpha, self.shift.beta
        swapped = v.reshape(2, self.m)[::-1]  # (v2; v1)
        out = self.k_op.apply(swapped)  # (K v2; K v1)
        scratch = alpha * swapped
        out += scratch
        np.multiply(swapped[1], beta, out=scratch[0])
        out[0] += scratch[0]
        np.multiply(swapped[0], beta, out=scratch[1])
        out[1] -= scratch[1]
        return out.ravel()

    def apply_in_sine_basis(self, v: np.ndarray) -> np.ndarray:
        """W A W v, W the 2D sine transform on each half, for the constant stencil.

        The transform diagonalizes K = L with the Laplacian eigenvalues
        Lambda, so in that basis the operator is [[beta I, Lambda + alpha I],
        [Lambda + alpha I, -beta I]] and applies elementwise.  Lambda + alpha
        is formed from the one-axis eigenvalues in one grid-sized scratch per
        call, which the beta terms then reuse; no m-length array is kept.
        Raises ValueError for a variable-coefficient stencil, which the
        transform does not diagonalize.
        """
        if self.k_op.kind != KIND_CONSTANT:
            raise ValueError("the sine transform diagonalizes only the "
                             f"constant-coefficient stencil, not {self.k_op.kind!r}")
        v = self._check(v)
        alpha, beta = self.shift.alpha, self.shift.beta
        n = self.k_op.grid.n
        swapped = v.reshape(2, n, n)[::-1]  # (v2; v1)
        lam1 = axis_eigenvalues(self.k_op.grid)
        scratch = lam1[:, None] + lam1[None, :]
        scratch += alpha  # Lambda + alpha, rounded as the preconditioner's weights
        out = swapped * scratch
        np.multiply(swapped[1], beta, out=scratch)
        out[0] += scratch
        np.multiply(swapped[0], beta, out=scratch)
        out[1] -= scratch
        return out.ravel()

    def dense(self) -> np.ndarray:
        k = self.k_op.dense()
        alpha, beta = self.shift.alpha, self.shift.beta
        shifted = k + alpha * np.eye(self.m)
        eye = np.eye(self.m)
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
    return np.concatenate([np.imag(f).astype(float), np.real(f).astype(float)])

