"""Dense brute-force references used only by the test suite.

Everything here is independent of the transform-based fast path: |H| and
square roots come from numpy's symmetric eigendecomposition of the dense
matrix and the complex solve from numpy's dense LU solver, so no sine
transform, eigenvalue formula or stencil apply enters a reference.  Orders
are capped at desk scale.
"""

from __future__ import annotations

import numpy as np

from .saddle import Shift

ORDER_CAP = 2048


def _check_square(a: np.ndarray, cap: int = ORDER_CAP) -> np.ndarray:
    a = np.asarray(a)
    a = np.atleast_2d(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > cap:
        raise ValueError(f"dense oracle capped at order {cap}, got {a.shape[0]}")
    return a


def _symmetric_part(h: np.ndarray, what: str) -> np.ndarray:
    h = _check_square(h).astype(float)
    scale = max(1.0, float(np.abs(h).max()))
    if float(np.abs(h - h.T).max()) > 1e-10 * scale:
        raise ValueError(f"{what} requires a symmetric matrix")
    return 0.5 * (h + h.T)


def dense_abs(h: np.ndarray) -> np.ndarray:
    """Matrix absolute value via eigendecomposition: |H| = Q |diag| Q^T."""
    sym = _symmetric_part(h, "dense_abs")
    w, q = np.linalg.eigh(sym)
    return (q * np.abs(w)[None, :]) @ q.T


def dense_sqrt(h: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix; tiny negative eigenvalues clamp to 0."""
    sym = _symmetric_part(h, "dense_sqrt")
    w, q = np.linalg.eigh(sym)
    floor = -1e-10 * max(1.0, float(np.abs(w).max()))
    if w.min() < floor:
        raise ValueError(
            f"dense_sqrt needs a positive semidefinite matrix; smallest eigenvalue {w.min()}"
        )
    return (q * np.sqrt(np.clip(w, 0.0, None))[None, :]) @ q.T


def dense_complex_solve(k_dense: np.ndarray, shift: Shift, f: np.ndarray) -> np.ndarray:
    """Direct solve of (K + (alpha + beta i) I) z = f with a residual check."""
    k = _check_square(k_dense).astype(float)
    f = np.asarray(f, dtype=complex)
    if f.shape != (k.shape[0],):
        raise ValueError(f"right-hand side shape {f.shape} does not match order {k.shape[0]}")
    a = k + (shift.alpha + 1j * shift.beta) * np.eye(k.shape[0])
    # np.linalg.LinAlgError, raised on an exactly singular system, is a ValueError
    z = np.linalg.solve(a, f)
    fnorm = float(np.linalg.norm(f))
    if fnorm > 0.0:
        rel = float(np.linalg.norm(a @ z - f)) / fnorm
        if rel > 1e-10:
            raise RuntimeError(f"dense solve residual {rel} exceeds 1e-10; system near singular")
    return z


def saddle_block_dense(k_dense: np.ndarray, shift: Shift) -> np.ndarray:
    """Assemble the symmetric block matrix directly from a dense K."""
    k = _check_square(k_dense).astype(float)
    m = k.shape[0]
    eye = np.eye(m)
    shifted = k + shift.alpha * eye
    return np.block([[shift.beta * eye, shifted], [shifted, -shift.beta * eye]])


def ideal_preconditioner_dense(k_dense: np.ndarray, shift: Shift) -> np.ndarray:
    """Block-diagonal |blocks| built from dense_sqrt((K + alpha I)^2 + beta^2 I)."""
    k = _check_square(k_dense).astype(float)
    m = k.shape[0]
    eye = np.eye(m)
    shifted = k + shift.alpha * eye
    half = dense_sqrt(shifted @ shifted + shift.beta ** 2 * eye)
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m] = half
    out[m:, m:] = half
    return out


def averaged_preconditioner_dense(l_dense: np.ndarray, gamma: float, shift: Shift) -> np.ndarray:
    """Same construction with K replaced by gamma L."""
    l = _check_square(l_dense).astype(float)
    return ideal_preconditioner_dense(gamma * l, shift)
