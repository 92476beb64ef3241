"""Real symmetric block form of the complex-shifted system (K + lambda I) z = f.

With lambda = alpha + beta i and z = z1 + z2 i, the complex equation is
equivalent to the symmetric indefinite block system

    [ beta I     K + alpha I ] [z1]   [Im f]
    [ K + alpha I   -beta I  ] [z2] = [Re f].

The first block row matches the imaginary part of the complex equation and
the second the real part; saddle_rhs builds that right-hand side, while
complex_to_real / real_to_complex are the plain real-part-first stacking
bijection used for solution vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import StencilOperator


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

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.size,):
            raise ValueError(f"expected vector of length {self.size}, got shape {v.shape}")
        v1, v2 = v[:self.m], v[self.m:]
        alpha, beta = self.shift.alpha, self.shift.beta
        top = beta * v1 + self.k_op.apply(v2) + alpha * v2
        bot = self.k_op.apply(v1) + alpha * v1 - beta * v2
        return np.concatenate([top, bot])

    def dense(self) -> np.ndarray:
        k = self.k_op.dense()
        alpha, beta = self.shift.alpha, self.shift.beta
        shifted = k + alpha * np.eye(self.m)
        eye = np.eye(self.m)
        return np.block([[beta * eye, shifted], [shifted, -beta * eye]])


def complex_to_real(f: np.ndarray) -> np.ndarray:
    """Stack a complex vector as (real part; imaginary part)."""
    f = np.asarray(f)
    return np.concatenate([np.real(f).astype(float), np.imag(f).astype(float)])


def real_to_complex(w: np.ndarray) -> np.ndarray:
    """Inverse of complex_to_real: first half is the real part."""
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


def apply_complex_shifted(k_op: StencilOperator, shift: Shift, z: np.ndarray) -> np.ndarray:
    """Evaluate (K + (alpha + beta i) I) z through real stencil applies."""
    z = np.asarray(z)
    zr = np.real(z).astype(float)
    zi = np.imag(z).astype(float)
    alpha, beta = shift.alpha, shift.beta
    real = k_op.apply(zr) + alpha * zr - beta * zi
    imag = k_op.apply(zi) + alpha * zi + beta * zr
    return real + 1j * imag
