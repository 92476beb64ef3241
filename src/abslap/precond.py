"""Absolute-value block preconditioners applied through the sine transform.

For the block system with blocks K + alpha I and +-beta I, the ideal
preconditioner is the matrix absolute value of the block operator, which is
block diagonal with two copies of sqrt((K + alpha I)^2 + beta^2 I).  For
constant coefficients K is diagonalized by the DST, so applying any real
power costs two transforms and one diagonal scaling per half: weights are
sqrt((lam + alpha)^2 + beta^2) over the Laplacian eigenvalues lam.  An
apply makes one stacked vector, its result, and no other full-size array:
the first transform runs in a copy of its input, and the scaling and the
second transform work in place in that copy.

For variable coefficients bounded by 0 < a_min <= a <= a_max the averaged
variant replaces K with gamma L, gamma = sqrt(a_min a_max), keeping the
same diagonal application while the spectral bounds control the quality of
the approximation.

In the sine basis itself any such preconditioner is a divide by its
weights, and for the constant stencil K = L the block operator is diagonal
there too.  sine_basis is the one place that knows this: it decides from
the stencil whether the basis applies, and bundles the transform and both
diagonal applies for minres_solve, which then makes two transforms per
solve instead of two per preconditioner apply.  The operator's apply there
walks its stacks in row blocks sized by grid.BLOCK_BYTES, and each element
goes through the same operations as in a whole-array evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .dst import SineTransform, sine_matrix
from .grid import (DENSE_CAP_2D, KIND_CONSTANT, CoefficientField, GridSpec, axis_eigenvalues,
                   blocks, laplacian_eigenvalues, stacked_halves)
from .minres import Basis
from .saddle import SaddleOperator, Shift


class SpectralPreconditioner:
    """Block-diagonal operator W diag(weights) W per half, W the 2D DST.

    weights holds one positive weight per sine mode, in the order of
    grid.laplacian_eigenvalues; build_ideal and build_averaged make the
    absolute value's, and any other rule's weights make a preconditioner
    the same way.
    """

    def __init__(self, grid: GridSpec, weights: np.ndarray):
        self.grid = grid
        self.weights = weights
        self.transform = SineTransform(grid.n)

    def apply_inverse(self, w: np.ndarray) -> np.ndarray:
        """Apply P^-1 to a stacked vector: one transform pair over both block halves.

        The first transform runs in place in a copy of w, and the divide
        and the second transform in that copy, which is returned; w is not
        modified.
        """
        t = self.transform
        x = t.apply(stacked_halves(w, self.grid.m))
        x /= self.weights
        return t.apply(x, out=x).ravel()

    def materialize_block(self, exponent: float = 1.0) -> np.ndarray:
        """Dense m-by-m matrix of one diagonal block at the given power.

        Uses the reference transform matrix, so this is the slow route;
        guarded by the dense cap.
        """
        if self.grid.n > DENSE_CAP_2D:
            raise ValueError(f"dense block capped at n={DENSE_CAP_2D}, got {self.grid.n}")
        s = sine_matrix(self.grid.n)
        d = self.weights ** exponent
        w2 = np.kron(s, s)
        return (w2 * d) @ w2

    def materialize(self, exponent: float = 1.0) -> np.ndarray:
        """Dense 2m-by-2m block-diagonal materialization."""
        block = self.materialize_block(exponent)
        m = self.grid.m
        out = np.zeros((2 * m, 2 * m))
        out[:m, :m] = out[m:, m:] = block
        return out


def _build(grid: GridSpec, shift: Shift, gamma: float) -> SpectralPreconditioner:
    # sqrt((gamma lam + alpha)^2 + beta^2), built in the eigenvalue array;
    # np.hypot is four times slower.  A square that overflows would make a
    # weight inf and P^-1 zero on its mode, so it raises instead: numpy's
    # FloatingPointError, or an inf beta * beta, which Python returns without
    # raising.  beta * beta, not beta ** 2, is correctly rounded everywhere.
    weights = laplacian_eigenvalues(grid)
    beta_sq = shift.beta * shift.beta
    try:
        if not math.isfinite(beta_sq):
            raise FloatingPointError
        with np.errstate(over="raise"):
            weights *= gamma
            weights += shift.alpha
            weights *= weights
            weights += beta_sq
    except FloatingPointError:
        raise ValueError(
            f"preconditioner weights overflow: shift ({shift.alpha:g}, {shift.beta:g}) "
            "is too large for float64"
        ) from None
    np.sqrt(weights, out=weights)
    idx = int(np.argmin(weights))
    if weights[idx] == 0.0:
        raise ValueError(
            "singular preconditioner: beta = 0 and alpha cancels the Laplacian "
            f"eigenvalue {-shift.alpha:g} (mode index {idx})"
        )
    return SpectralPreconditioner(grid, weights)


def sine_basis(operator: SaddleOperator, precond: SpectralPreconditioner) -> Basis | None:
    """MINRES's operators in the 2D sine basis, or None unless the operator's
    stencil is the constant one, the only stencil the transform diagonalizes.

    W is the preconditioner's transform on both halves of a stacked vector.
    There W P^-1 W divides by the weights, for any weight rule, since the
    weights are P's eigenvalues in that basis.  W A W is [[beta I, Lambda +
    alpha I], [Lambda + alpha I, -beta I]], Lambda the Laplacian eigenvalues,
    and applies elementwise one row block at a time; each block forms its
    rows of Lambda + alpha from the one-axis eigenvalues, rounded as the
    weights are, so no m-length array but the output is made.
    """
    if operator.k_op.kind != KIND_CONSTANT:
        return None
    t = precond.transform
    grid, shift = operator.k_op.grid, operator.shift
    n = grid.n
    lam1 = axis_eigenvalues(grid)

    def transform(v, out=None):
        halves = None if out is None else out.reshape(2, -1)
        return t.apply(v.reshape(2, -1), out=halves).ravel()

    def apply_a(v):
        swapped = stacked_halves(v, n * n).reshape(2, n, n)[::-1]  # (v2; v1)
        out = np.empty(swapped.shape)
        for rows in blocks(n, 8 * n * 2 * 3):  # rows of three (2, n, n) stacks
            o = out[:, rows]
            lam = lam1[rows, None] + lam1[None, :]
            lam += shift.alpha
            np.multiply(swapped[:, rows], lam, out=o)
            o[0] += swapped[1, rows] * shift.beta
            o[1] -= swapped[0, rows] * shift.beta
        return out.ravel()

    def apply_pinv(w):
        return (stacked_halves(w, precond.grid.m) / precond.weights).ravel()

    return Basis(transform, apply_a, apply_pinv)


def build_ideal(grid: GridSpec, shift: Shift) -> SpectralPreconditioner:
    """Exact absolute-value preconditioner for the constant-coefficient case K = L."""
    return _build(grid, shift, 1.0)


def build_averaged(grid: GridSpec, coefficient: CoefficientField, shift: Shift) -> SpectralPreconditioner:
    """Averaged preconditioner: K replaced by gamma L, gamma = sqrt(a_min a_max)."""
    return _build(grid, shift, coefficient.gamma)
