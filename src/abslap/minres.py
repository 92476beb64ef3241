"""Preconditioned MINRES for symmetric indefinite systems.

Two-term Lanczos recurrence with a symmetric positive definite
preconditioner and Givens-rotation QR of the tridiagonal, no restarts.
The monitored quantity is the residual of the current iterate measured in
the inverse-preconditioner norm, which the recurrence tracks for free and
which the two-interval convergence bound controls.  A nonpositive
preconditioned inner product aborts the run, since it certifies the
preconditioner is not positive definite.

A caller that knows an orthogonal basis W = W^T = W^-1 in which A and P are
cheap passes it as `basis`.  The one recurrence then runs on
(W A W, W P^-1 W, W rhs), whose iterates are W x_k, and the solve still
takes rhs and returns x in the original basis, one transform each way.  The
true residual at the end is always computed with the caller's apply_a, so
it does not trust the rotated operator.

The vector updates of a step run in chunks cut by grid.blocks, sized by
grid.BLOCK_BYTES over the seven vectors they touch: one loop builds the
next Lanczos vector, and one updates w and x and rescales the new pair.
Each element goes through the same operations, in the same order, as in
whole-vector updates, so the iterates do not depend on the chunk size.
The zero vectors the recurrence starts from, v_prev, w_prev and w_curr,
are never made, and their terms, exactly zero, are skipped.  Nor is x made
at the start: after step 1 it is exactly 0.0 + step_1 w_1, so w_1 carries
it until step 2 makes x.

The recurrence reads only a few vectors back (Paige and Saunders, 1975),
and each work vector is dropped after its last read: v_prev once the next
Lanczos vector is built, z when the next w is built in its buffer, and on
the final step v and the new pair before w is updated.  minres_solve lists
the vectors a step holds.

Inner products and norms go through np.einsum, never np.dot or
np.linalg.norm: those call the threaded BLAS dot, whose worker then
busy-waits on a core that the sine transform's threads need.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import blocks


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        # a float max_iter would fail far from here, in the loop's range()
        if not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    residual_history: np.ndarray
    final_true_residual: float


@dataclass(frozen=True)
class Basis:
    """An orthogonal change of basis W = W^T = W^-1 and the solve's operators in it.

    transform(v) = W v, apply_a(v) = W A W v and apply_pinv(v) = W P^-1 W v,
    each on a flat vector and returning a new array.  transform also takes
    out=, as in numpy: W v is written into out, which may be v itself.
    """

    transform: Callable[..., np.ndarray]
    apply_a: Callable[[np.ndarray], np.ndarray]
    apply_pinv: Callable[[np.ndarray], np.ndarray]


def minres_solve(apply_a, apply_pinv, rhs, config: SolverConfig = SolverConfig(),
                 basis: Basis | None = None):
    """Solve A x = rhs with symmetric A and SPD preconditioner P, x0 = 0.

    apply_a and apply_pinv are callables on flat vectors; apply_pinv=None
    means no preconditioning.  Each must return a new array or its own
    input: the solver reuses returned arrays as its work vectors.  rhs is
    never modified.  Returns (x, SolveReport).  Convergence is declared when
    the monitored residual drops below tol times its initial value.

    With a basis W, the recurrence runs on (W A W, W P^-1 W, W rhs) and
    apply_pinv is not called.  Its iterates are W x_k, with the same
    monitored residuals as in the original basis, up to roundoff.  The
    solve makes one transform of rhs and one of the result, and still
    returns x in the original basis.  The true residual is taken with
    apply_a in the original basis, never with basis.apply_a, so it checks
    the rotated operator against the one the caller gave.

    Full-size work vectors live only while the recurrence still reads
    them.  A step starts from x, v_prev, the Lanczos pair (v, z), w_prev
    and w_curr, and apply_a's output becomes v_next.  v_prev dies as soon
    as v_next is built, before apply_pinv makes z_next, and on the step
    that ends the loop v, v_next and z_next die before w_next is made.
    w_next is built in z's buffer, unless z is v, as under the identity
    preconditioner.  x is made at step 2, in w_1's buffer when step 2 is
    the last; until then w_1 carries it.  Besides rhs and the temporaries
    of apply_a and apply_pinv, a two-step solve peaks at 5 full-size
    vectors and a longer one at 7 per step.  With a basis, the closing
    transform writes x in place.
    """
    rhs = np.asarray(rhs, dtype=float)
    if apply_pinv is None:
        apply_pinv = lambda w: w
    if basis is None:
        x, history, converged = _lanczos(apply_a, apply_pinv, rhs, np.copy, config)
    else:
        x, history, converged = _lanczos(basis.apply_a, basis.apply_pinv, rhs,
                                         basis.transform, config)
        basis.transform(x, out=x)

    # taken whenever rhs is nonzero, also when the recurrence saw a zero
    # first residual: a preconditioner that maps rhs to zero stops it at x = 0
    true_rel = 0.0
    rhs_norm = math.sqrt(_dot(rhs, rhs))
    if rhs_norm > 0.0:
        ax = apply_a(x)
        # in apply_a's output, unless it handed back x itself
        residual = np.subtract(rhs, ax, out=None if ax is x else ax)
        true_rel = math.sqrt(_dot(residual, residual)) / rhs_norm
    report = SolveReport(len(history) - 1, converged, np.asarray(history), true_rel)
    return x, report


def _lanczos(apply_a, apply_pinv, rhs, first, config: SolverConfig):
    """The MINRES recurrence from v = first(rhs), a new array the loop owns.

    Returns (x, residual history, converged).  The work vectors are local,
    so they are freed when it returns.
    """
    v = first(rhs)
    z = apply_pinv(v)
    gamma_sq = _dot(z, v)
    _check_inner_product(gamma_sq, v, z)
    gamma0 = math.sqrt(max(gamma_sq, 0.0))
    history = [gamma0]
    if gamma0 == 0.0:
        return np.zeros_like(rhs), history, True

    _scale_pair(v, z, gamma0)
    chunks = blocks(rhs.size, 8 * 7)  # seven vectors per entry
    # x, v_prev, w_prev and w_curr start as zero vectors; None stands for
    # them, and their terms, exactly zero, are skipped.  Until step 2 makes
    # x, it is 0.0 + step_1 w_1, which w_1 carries.
    x = v_prev = w_prev = w_curr = None
    # Rotation state: (c_prev, s_prev) is the rotation two steps back.
    c_prev, c_curr = 1.0, 1.0
    s_prev, s_curr = 0.0, 0.0
    beta = 0.0  # subdiagonal entry of the Lanczos tridiagonal
    eta = gamma0
    target = config.tol * gamma0
    converged = False

    for k in range(config.max_iter):
        q = apply_a(z)
        if np.may_share_memory(q, z):
            q = q.copy()  # q becomes v_next below, and z is still needed
        delta = _dot(q, z)
        # v_next = q - delta v - beta v_prev, built in q
        for c in chunks:
            part = q[c]
            part -= v[c] * delta
            if v_prev is not None:
                part -= v_prev[c] * beta
        v_next = q
        # v_prev is never read again: free it before apply_pinv makes z_next
        v_prev = q = None
        z_next = apply_pinv(v_next)
        gamma_sq = _dot(z_next, v_next)
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
        step = c_next * eta
        if k == 0:
            step_1 = step
        eta = -s_next * eta
        history.append(abs(eta))
        converged = abs(eta) <= target
        # Krylov space exhausted at beta_next = 0: the iterate is exact up to
        # roundoff, and the loop ends either way
        last = converged or beta_next == 0.0

        # w_next = (z - alpha3 w_prev - alpha2 w_curr) / alpha1 is z's last
        # read, so it is built in z's buffer.  Under the identity
        # preconditioner z is v, which a next step reads; w_next then takes
        # the buffer of w_prev, dead after this step, or a new one.
        if last or not np.may_share_memory(z, v):
            w_next = z
        else:
            w_next = np.empty_like(rhs) if w_prev is None else w_prev
        if last:
            # no further step reads them: free them before x is made
            v = v_next = z_next = None
        if k == 1:
            # x = (step_1 w_1 + 0.0) + step w_2, in w_1's buffer if no step
            # reads w_1 again; the + 0.0 turns a -0.0 into 0.0, as x += does
            x = w_curr if last else np.empty_like(rhs)
        # then, from step 2 on, x += step w_next; and unless this step is the
        # last, v_next and z_next scaled by 1/beta_next
        for c in chunks:
            w = w_next[c]
            if w_prev is not None:
                np.subtract(z[c], w_prev[c] * alpha3, out=w)
            elif w_next is not z:
                w[...] = z[c]
            if w_curr is not None:
                w -= w_curr[c] * alpha2
            w /= alpha1
            if k == 1:
                part = np.multiply(w_curr[c], step_1, out=x[c])
                part += 0.0
            if x is not None:
                part = x[c]
                part += w * step
            if not last:
                _scale_pair(v_next[c], z_next[c], beta_next)
        if last:
            break

        v_prev, v, z = v, v_next, z_next
        w_prev, w_curr = w_curr, w_next
        c_prev, c_curr = c_curr, c_next
        s_prev, s_curr = s_curr, s_next
        beta = beta_next

    if x is None:  # one step: x = step_1 w_1 + 0.0, in w_1's buffer
        x = w_next
        x *= step_1
        x += 0.0
    return x, history, converged


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two flat vectors without BLAS."""
    return float(np.einsum("i,i->", a, b))


def _scale_pair(v: np.ndarray, z: np.ndarray, norm: float) -> None:
    """Divide v and z = P^-1 v by norm in place.  An identity preconditioner
    hands back its input, so z may be v itself: scale it only once.
    """
    v /= norm
    if not np.may_share_memory(z, v):
        z /= norm


def _check_inner_product(value: float, v: np.ndarray, z: np.ndarray) -> None:
    """A non-finite (z, v) means the vectors' squares overflow float64, and a
    negative one beyond roundoff that the preconditioner is not SPD."""
    if not math.isfinite(value):
        raise ValueError(
            f"preconditioned inner product is {value}: the Krylov vectors "
            "overflow float64"
        )
    if value >= 0.0:
        return
    scale = math.sqrt(_dot(v, v)) * math.sqrt(_dot(z, z))
    if abs(value) > 1e-13 * max(scale, 1e-300):
        raise ValueError(
            f"preconditioned inner product {value} < 0: preconditioner is not "
            "symmetric positive definite"
        )


def bound_iterations(a1: float, a2: float, a3: float, a4: float, tol: float) -> int:
    """Iterations guaranteeing relative residual tol on [-a1,-a2] u [a3,a4].

    Requires equal interval lengths a1 - a2 = a4 - a3.  The contraction
    factor per two iterations is
    rho = (sqrt(a1 a4) - sqrt(a2 a3)) / (sqrt(a1 a4) + sqrt(a2 a3)) and the
    result is the smallest even k with 2 rho^(k/2) <= tol; rho = 0 gives 2.
    """
    if not (0.0 < a2 <= a1 and 0.0 < a3 <= a4):
        raise ValueError(f"need 0 < a2 <= a1 and 0 < a3 <= a4, got {(a1, a2, a3, a4)}")
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    lengths = (a1 - a2, a4 - a3)
    if abs(lengths[0] - lengths[1]) > 1e-9 * max(1.0, a1, a4):
        raise ValueError(f"interval lengths differ ({lengths[0]} vs {lengths[1]})")
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
