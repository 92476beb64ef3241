"""Preconditioned MINRES for symmetric indefinite systems.

Two-term Lanczos recurrence with a symmetric positive definite
preconditioner and Givens-rotation QR of the tridiagonal, no restarts.
The monitored quantity is the residual of the current iterate measured in
the inverse-preconditioner norm, which the recurrence tracks for free and
which the two-interval convergence bound controls.  A nonpositive
preconditioned inner product aborts the run, since it certifies the
preconditioner is not positive definite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    residual_history: np.ndarray
    final_true_residual: float
    wall_time: float


def minres_solve(apply_a, apply_pinv, rhs, config: SolverConfig = SolverConfig()):
    """Solve A x = rhs with symmetric A and SPD preconditioner P, x0 = 0.

    apply_a and apply_pinv are callables on flat vectors; apply_pinv=None
    means no preconditioning.  Returns (x, SolveReport).  Convergence is
    declared when the monitored residual drops below tol times its initial
    value.
    """
    start = time.perf_counter()
    rhs = np.asarray(rhs, dtype=float)
    if apply_pinv is None:
        apply_pinv = lambda w: w

    x = np.zeros_like(rhs)
    v = rhs.copy()
    z = apply_pinv(v)
    gamma_sq = float(np.dot(z, v))
    _check_inner_product(gamma_sq, v, z)
    gamma0 = math.sqrt(max(gamma_sq, 0.0))
    history = [gamma0]

    if gamma0 == 0.0:
        report = SolveReport(0, True, np.asarray(history), 0.0,
                             time.perf_counter() - start)
        return x, report

    # Not in-place: an identity apply_pinv hands back the same array, so z
    # may alias v and an in-place divide would scale the shared buffer twice.
    v = v / gamma0
    z = z / gamma0
    v_prev = np.zeros_like(rhs)
    w_prev = np.zeros_like(rhs)
    w_curr = np.zeros_like(rhs)
    # Rotation state: (c_prev, s_prev) is the rotation two steps back.
    c_prev, c_curr = 1.0, 1.0
    s_prev, s_curr = 0.0, 0.0
    beta = 0.0  # subdiagonal entry of the Lanczos tridiagonal
    eta = gamma0
    target = config.tol * gamma0
    converged = False
    iterations = 0

    for j in range(1, config.max_iter + 1):
        q = apply_a(z)
        delta = float(np.dot(q, z))
        v_next = q - delta * v - beta * v_prev
        z_next = apply_pinv(v_next)
        gamma_sq = float(np.dot(z_next, v_next))
        _check_inner_product(gamma_sq, v_next, z_next)
        beta_next = math.sqrt(max(gamma_sq, 0.0))

        alpha0 = c_curr * delta - c_prev * s_curr * beta
        alpha1 = math.hypot(alpha0, beta_next)
        alpha2 = s_curr * delta + c_prev * c_curr * beta
        alpha3 = s_prev * beta
        if alpha1 == 0.0:
            raise ValueError("singular reduced system: operator is singular on the Krylov space")
        c_next = alpha0 / alpha1
        s_next = beta_next / alpha1

        w_next = (z - alpha3 * w_prev - alpha2 * w_curr) / alpha1
        x += (c_next * eta) * w_next
        eta = -s_next * eta
        iterations = j
        history.append(abs(eta))

        if abs(eta) <= target:
            converged = True
            break
        if beta_next == 0.0:
            # Krylov space exhausted: the iterate is exact up to roundoff.
            converged = abs(eta) <= target
            break

        v_prev = v
        v = v_next / beta_next
        z = z_next / beta_next
        w_prev, w_curr = w_curr, w_next
        c_prev, c_curr = c_curr, c_next
        s_prev, s_curr = s_curr, s_next
        beta = beta_next

    residual = rhs - apply_a(x)
    true_rel = float(np.linalg.norm(residual) / np.linalg.norm(rhs))
    report = SolveReport(iterations, converged, np.asarray(history), true_rel,
                         time.perf_counter() - start)
    return x, report


def _check_inner_product(value: float, v: np.ndarray, z: np.ndarray) -> None:
    """Negative (z, v) beyond roundoff means the preconditioner is not SPD."""
    if value >= 0.0:
        return
    scale = float(np.linalg.norm(v) * np.linalg.norm(z))
    if abs(value) > 1e-13 * max(scale, 1e-300):
        raise ValueError(
            f"preconditioned inner product {value} < 0: preconditioner is not "
            "symmetric positive definite"
        )


def symmetrize_intervals(neg_outer, neg_inner, pos_inner, pos_outer):
    """Widen [-neg_outer, -neg_inner] u [pos_inner, pos_outer] to equal lengths.

    Only outer endpoints grow, so any spectrum contained before is contained
    after.  All four arguments are positive magnitudes.
    """
    if not (0.0 < neg_inner <= neg_outer and 0.0 < pos_inner <= pos_outer):
        raise ValueError("interval magnitudes must satisfy 0 < inner <= outer")
    width = max(neg_outer - neg_inner, pos_outer - pos_inner)
    return neg_inner + width, neg_inner, pos_inner, pos_inner + width


def bound_iterations(a1: float, a2: float, a3: float, a4: float, tol: float) -> int:
    """Iterations guaranteeing relative residual tol on [-a1,-a2] u [a3,a4].

    Requires equal interval lengths a1 - a2 = a4 - a3 (symmetrize_intervals
    widens first if needed).  The contraction factor per two iterations is
    rho = (sqrt(a1 a4) - sqrt(a2 a3)) / (sqrt(a1 a4) + sqrt(a2 a3)) and the
    result is the smallest even k with 2 rho^(k/2) <= tol; rho = 0 gives 2.
    """
    if not (0.0 < a2 <= a1 and 0.0 < a3 <= a4):
        raise ValueError(f"need 0 < a2 <= a1 and 0 < a3 <= a4, got {(a1, a2, a3, a4)}")
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    lengths = (a1 - a2, a4 - a3)
    if abs(lengths[0] - lengths[1]) > 1e-9 * max(1.0, a1, a4):
        raise ValueError(
            f"interval lengths differ ({lengths[0]} vs {lengths[1]}); "
            "symmetrize_intervals first"
        )
    outer = math.sqrt(a1 * a4)
    inner = math.sqrt(a2 * a3)
    rho = (outer - inner) / (outer + inner)
    if rho <= 0.0:
        return 2
    # Smallest integer half-count with 2 rho^half <= tol, guarded against
    # floating point drift in the logarithm.
    half = max(1, math.ceil(math.log(tol / 2.0) / math.log(rho)))
    while 2.0 * rho ** half > tol:
        half += 1
    while half > 1 and 2.0 * rho ** (half - 1) <= tol:
        half -= 1
    return 2 * half
