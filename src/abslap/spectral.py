"""Spectral theory checks for the absolute-value preconditioned block system.

Four pieces of machinery live here:

* abs_block_2x2: the constructive eigendecomposition of a two-by-two block
  matrix [[theta I, A*], [A, -theta I]] from the SVD of A.  Its absolute
  value is block diagonal and the preconditioned matrix |M|^-1 M has
  eigenvalues exactly +-1.

* compute_bounds: closed-form interval bounds for the spectrum of the
  averaged-preconditioner system, branching on the sign of the real shift.
  For alpha < 0 the bounds are certified only under sign conditions that
  are all checked before the branch is declared valid.

* iteration_bound: the a-priori MINRES iteration count the certified
  interval proves, the bound column of bench rows.  It and verify_spectrum
  read one helper, _certified_bounds, which owns the interval and whether
  it proves anything: an exact coefficient (a_min equal to a_max) always
  does, a variable one only off the violated branch.

* verify_spectrum / verify_sandwich: dense desk-scale verification that
  the preconditioned block spectrum, +- the singular values of a complex
  m-by-m matrix taken in two half-size blocks, falls inside the certified
  intervals, and a randomized check of the norm-equivalence sandwich
  sqrt(2)/2 <= z*sqrt(H1^2+H2^2)z / z*(H1+H2)z <= 1 for commuting PSD pairs.
  Each block B takes its K_b from the stencil's own scatter,
  StencilOperator.block, and its W_b from the 1D sine matrix; this module
  reads none of the stencil's arrays.  W_b K_b W_b does not depend on the
  shift: certificate_blocks builds it once per grid, and a sweep hands it to
  every shift's verify_spectrum.  B's singular values are the square
  roots of the eigenvalues of the Hermitian B*B, one eigensolve per block.
  Squaring puts an error of about eps sigma_max^2 / sigma_k on sigma_k, far
  below SPECTRUM_SLACK while sigma_min >~ 1e-7 sigma_max; an eigenvalue
  that rounding takes below 0 is clipped there, so no sigma is NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dst import sine_matrix
from .grid import (CoefficientField, GridSpec, StencilOperator, assemble_laplacian_2d_variable,
                   blocks as row_blocks, smallest_laplacian_eigenvalue, swap_blocks)
from .minres import bound_iterations
from .precond import build_averaged
from .saddle import Shift

BRANCH_ALPHA_NONNEG = "alpha_nonneg"
BRANCH_ALPHA_NEG_VALID = "alpha_neg_valid"
BRANCH_VIOLATED = "assumptions_violated"

ABS_BLOCK_CAP = 128
VERIFY_CAP_2D = 31
SPECTRUM_SLACK = 1e-9


@dataclass(frozen=True)
class BoundSet:
    """Interval bounds for the preconditioned spectrum and derived rates."""

    branch: str
    mu0: float
    mu0_tilde: float
    mu1_tilde: float
    theta1: float
    theta2: float

    @property
    def interval(self):
        """(inner, outer) magnitudes of the certified two-sided interval."""
        if self.branch == BRANCH_ALPHA_NONNEG:
            return 1.0 / self.mu0, self.mu0
        return self.mu1_tilde, self.mu0_tilde


@dataclass(frozen=True)
class SpectrumCertificate:
    eigenvalues: np.ndarray
    # the certified set is symmetric: [-hi, -lo] u [lo, hi]
    interval_lo_pos: float
    interval_hi_pos: float
    max_violation: float
    branch: str
    # False when the interval carries no proof (sign conditions violated for
    # a genuinely variable coefficient); containment is then informational.
    certified: bool

    @property
    def all_inside(self) -> bool:
        """Every eigenvalue lies in the interval, up to SPECTRUM_SLACK."""
        return self.max_violation <= SPECTRUM_SLACK

    @property
    def verdict(self) -> str:
        """The certificate's verdict: "pass" or "fail" for a certified interval,
        "skipped" for one that proves nothing."""
        if not self.certified:
            return "skipped"
        return "pass" if self.all_inside else "fail"


def block_matrix(theta: float, a_n: np.ndarray) -> np.ndarray:
    """Assemble [[theta I, A*], [A, -theta I]] for tests and demos."""
    a = np.atleast_2d(np.asarray(a_n))
    n = a.shape[0]
    eye = np.eye(n)
    return np.block([[theta * eye, a.conj().T], [a, -theta * eye]])


def abs_block_2x2(theta: float, a_n: np.ndarray):
    """Eigendecomposition of M = [[theta I, A*], [A, -theta I]] from the SVD of A.

    Returns (q, eigenvalues, abs_m) with M = q Lambda q* and
    abs_m = |M| = q |Lambda| q*, Lambda the diagonal matrix of the
    eigenvalues.  With A = U Sigma V* the eigenvalues are
    +-s, s = sqrt(sigma^2 + theta^2), and eigenvectors combine the singular
    vector pairs: on (v_k; u_k) mode k's block [[theta, sigma_k], [sigma_k,
    -theta]] is s_k times the reflection by phi_k = atan2(sigma_k, theta),
    whose eigenvectors are (cos, sin)(phi_k / 2) for +s_k and
    (-sin, cos)(phi_k / 2) for -s_k.
    """
    a = np.atleast_2d(np.asarray(a_n))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"block must be square, got shape {a.shape}")
    n = a.shape[0]
    if n > ABS_BLOCK_CAP:
        raise ValueError(f"constructive decomposition capped at n={ABS_BLOCK_CAP}, got {n}")
    u, sig, vh = np.linalg.svd(a)
    v = vh.conj().T
    if theta == 0.0 and sig.min(initial=np.inf) == 0.0:
        raise ValueError("singular block: theta = 0 and A has a zero singular value")

    s = np.hypot(sig, theta)
    half = 0.5 * np.arctan2(sig, theta)
    cos, sin = np.cos(half), np.sin(half)
    q = np.block([[v * cos, -v * sin], [u * sin, u * cos]])
    eigenvalues = np.concatenate([s, -s])
    abs_m = (q * np.abs(eigenvalues)[None, :]) @ q.conj().T
    if not np.iscomplexobj(a):
        abs_m = abs_m.real
        q = q.real
    return q, eigenvalues, abs_m


def compute_bounds(coefficient: CoefficientField, c0: float, shift: Shift) -> BoundSet:
    """Closed-form spectrum intervals for the averaged preconditioner.

    mu0 = sqrt(2 a_max / a_min) certifies [-mu0, -1/mu0] u [1/mu0, mu0] when
    alpha >= 0.  For alpha < 0 the tilde pair certifies
    [-mu0~, -mu1~] u [mu1~, mu0~], but only when every sign condition the
    derivation uses holds; otherwise the values are reported and flagged.
    """
    if c0 <= 0.0:
        raise ValueError(f"smallest Laplacian eigenvalue must be positive, got {c0}")
    a_min, a_max = coefficient.a_min, coefficient.a_max
    gamma = coefficient.gamma
    alpha, beta = shift.alpha, shift.beta
    abs_alpha, abs_beta = abs(alpha), abs(beta)

    mu0 = math.sqrt(2.0 * a_max / a_min)
    theta1 = (mu0 ** 2 - 1.0) / (mu0 ** 2 + 1.0)

    denom0 = c0 * gamma + abs_beta + alpha
    denom1 = 2.0 * (c0 * gamma + abs_beta - alpha)
    mu0_tilde = math.sqrt(2.0) * (c0 * a_max + abs_beta - alpha) / denom0 \
        if denom0 != 0.0 else math.inf
    mu1_tilde = math.sqrt(2.0) * (c0 * a_min + abs_beta + alpha) / denom1 \
        if denom1 != 0.0 else math.inf
    if math.isfinite(mu0_tilde) and math.isfinite(mu1_tilde) and mu0_tilde + mu1_tilde != 0.0:
        theta2 = (mu0_tilde - mu1_tilde) / (mu0_tilde + mu1_tilde)
    else:
        theta2 = math.nan

    if alpha >= 0.0:
        branch = BRANCH_ALPHA_NONNEG
    else:
        # Conservative: every sign condition used anywhere in the alpha < 0
        # derivation must hold, not only the headline one.
        conditions = (
            a_min * c0 + abs_beta + alpha > 0.0,
            gamma * c0 + abs_beta - abs_alpha > 0.0,
            a_min * c0 + abs_beta - abs_alpha > 0.0,
        )
        branch = BRANCH_ALPHA_NEG_VALID if all(conditions) else BRANCH_VIOLATED

    return BoundSet(branch, mu0, mu0_tilde, mu1_tilde, theta1, theta2)


def _certified_bounds(grid: GridSpec, coefficient: CoefficientField, shift: Shift):
    """(BoundSet, exact, certified) for one grid, coefficient and shift.

    exact: the coefficient's bounds coincide, so the averaged preconditioner
    is the exact block absolute value and the spectrum is +-1.  certified:
    the interval proves something, that is the coefficient is exact or the
    sign conditions of compute_bounds' branch hold.  verify_spectrum and
    iteration_bound both read this, and nothing else decides either flag.
    """
    bounds = compute_bounds(coefficient, smallest_laplacian_eigenvalue(grid), shift)
    exact = coefficient.a_min == coefficient.a_max
    return bounds, exact, exact or bounds.branch != BRANCH_VIOLATED


def iteration_bound(grid: GridSpec, coefficient: CoefficientField, shift: Shift,
                    tol: float) -> int | None:
    """A-priori MINRES iteration bound for the averaged preconditioner.

    2 for an exact coefficient, whose spectrum is +-1; otherwise
    bound_iterations on the certified interval; None when the interval
    proves nothing.
    """
    bounds, exact, certified = _certified_bounds(grid, coefficient, shift)
    if exact:
        return bound_iterations(1.0, 1.0, 1.0, 1.0, tol)
    if not certified:
        return None
    inner, outer = bounds.interval
    return bound_iterations(outer, inner, inner, outer, tol)


def _wkw_block(k_op: StencilOperator, s: np.ndarray, i, j, sign: float, c, out: np.ndarray):
    """W_b K_b W_b on one basis of swap_blocks, written into out: K_b scattered
    by k_op.block, W_b from products of S's entries (W[ij, kl] = S[i, k] S[j, l])."""
    w = s[np.ix_(i, i)] * s[np.ix_(j, j)]
    if sign:
        w += sign * (s[np.ix_(i, j)] * s[np.ix_(j, i)])
    w *= np.outer(c, c)
    return np.matmul(w @ k_op.block(i, j, sign, c), w, out=out)


def certificate_blocks(grid: GridSpec, coefficient: CoefficientField) -> tuple:
    """The shift-independent part of verify_spectrum: one (i, j, G0) per block
    of grid.swap_blocks, basis vector r on the pair (i_r, j_r) and
    G0 = W_b K_b W_b.  They depend on the grid and the coefficient alone, so
    a sweep builds them once per grid and hands them to every shift's
    verify_spectrum.  The G0 are views of one contiguous store, and every
    array is read-only, so no certificate can change another's input.
    Capped at n <= VERIFY_CAP_2D like verify_spectrum."""
    if grid.n > VERIFY_CAP_2D:
        raise ValueError(f"dense verification capped at n={VERIFY_CAP_2D}, got {grid.n}")
    k_op = assemble_laplacian_2d_variable(grid, coefficient)
    s = sine_matrix(grid.n)
    bases = swap_blocks(grid.n, k_op.swap_symmetric)
    store = np.empty(sum(i.size ** 2 for i, *_ in bases))
    blocks, lo = [], 0
    for i, j, sign, c in bases:
        g0 = store[lo:lo + i.size ** 2].reshape(i.size, i.size)
        lo += i.size ** 2
        _wkw_block(k_op, s, i, j, sign, c, g0)
        for a in (i, j, g0):
            a.flags.writeable = False
        blocks.append((i, j, g0))
    store.flags.writeable = False
    return tuple(blocks)


def verify_spectrum(grid: GridSpec, coefficient: CoefficientField, shift: Shift,
                    blocks: tuple | None = None) -> SpectrumCertificate:
    """Dense check that the preconditioned spectrum sits in the certified intervals.

    The spectrum of T = P^(-1/2) A P^(-1/2) is +-sigma, sigma the singular
    values of the complex m-by-m M_hat = D^(-1/2) (W K W + lambda I) D^(-1/2),
    lambda = alpha + beta i, W = kron(S, S) the dense sine matrix and D the
    preconditioner's weights.  P = blockdiag(Q, Q) with Q = W D W, so
    T = [[beta Q^-1, G], [G, -beta Q^-1]], G = Q^(-1/2) (K + alpha I) Q^(-1/2).
    J T J^T = -T for J = [[0, I], [-I, 0]]: the spectrum is +- symmetric.
    T^2 is the real form of M*M, M = Q^(-1/2) (K + lambda I) Q^(-1/2), so it
    has each sigma^2 twice; M_hat = W M W (W^2 = I) has M's singular values.
    No transform or stencil apply of the fast path enters.  Capped at n <= 31.
    K is assembled from the coefficient's edge samples for every coefficient;
    the unit coefficient's samples give the Laplacian's K bit for bit.

    Let Pi swap the grid's two axes, (ij) -> (ji).  W[ij, kl] = S[i, k] S[j, l]
    and D[ij], a function of lam_i + lam_j, are unchanged by it, and so is
    lambda I; K is when the stencil's swap_symmetric holds, an exact test
    that grid makes on the stencil's own arrays.
    Then M_hat commutes with Pi and maps the symmetric and the antisymmetric
    arrays into themselves.  With U the real orthogonal matrix of both
    orthonormal bases of grid.swap_blocks, U^T M_hat U = blockdiag(B_s, B_a), of
    orders n(n+1)/2 and n(n-1)/2.  Each factor commutes with Pi, so
    B = D_b^(-1/2) (W_b K_b W_b + lambda I) D_b^(-1/2), each factor X_b
    gathered from X: as X = Pi X Pi, X_b[ij, kl] = c c' (X[ij, kl] +- X[ij, lk]).
    K_b is scattered by k_op.block, the stencil's one scatter of K, and W_b
    is gathered from S, so neither K, M_hat nor W is formed.  Singular values
    are unchanged by the unitary change of basis, so sigma is the union of
    the blocks' singular values.  A K that fails the test has one block,
    M_hat itself, in the plain basis.

    Each block's sigma comes from one Hermitian eigensolve in place of an
    SVD.  With d_b = D_b^(-1/2), B = G + iE for the real symmetric
    G = d_b (W_b K_b W_b + alpha I) d_b and the diagonal E = beta d_b^2, so
    B*B = G G + E^2 + i (G E - E G) takes one real matrix product, and
    sigma = sqrt(eigvalsh(B*B)).  Squaring costs accuracy only near
    sigma = 0: eigvalsh's absolute error in sigma_k^2 is about
    eps sigma_max^2, so the error in sigma_k is about
    eps sigma_max^2 / sigma_k (Golub & Van Loan, Matrix Computations, 4th
    ed., section 8.6).  That is far below SPECTRUM_SLACK for any
    sigma_min >~ 1e-7 sigma_max; the certified intervals keep sigma near 1.
    B*B is positive semidefinite, but a sigma^2 below eps sigma_max^2 can come
    back slightly negative, so it is clipped at 0 before the square root,
    which would otherwise return NaN.

    blocks is the grid's certificate_blocks, the blocks' W_b K_b W_b, which
    do not depend on the shift; when None they are built here.  A shift
    sweep builds them once per grid and passes them to every shift: each
    shift then forms d_b (G0 + alpha I) d_b from them, and the bits are
    those of a call that builds its own.  The weights come first,
    so a shift they cannot take is refused before any dense work.

    For an exact coefficient (a_min equal to a_max) P is the exact block
    absolute value (spectrum +-1), so the sqrt(2 a_max / a_min) interval
    (1/mu0, mu0) certifies every shift.  A variable coefficient failing the
    negative-shift sign conditions is still measured, but its interval
    proves nothing and the certificate is marked uncertified.
    """
    if grid.n > VERIFY_CAP_2D:
        raise ValueError(f"dense verification capped at n={VERIFY_CAP_2D}, got {grid.n}")

    # the weights refuse a shift they cannot take before any dense work
    scale = build_averaged(grid, coefficient, shift).weights ** -0.5
    if blocks is None:
        blocks = certificate_blocks(grid, coefficient)
    elif (given := sum(i.size for i, _, _ in blocks)) != grid.m:
        raise ValueError(f"blocks of {given} basis vectors given for a grid of {grid.m} points")
    n = grid.n
    sigma = []
    for i, j, g0 in blocks:
        size = i.size
        d = scale[i * n + j]
        # h is allocated before g: in that order glibc's allocator reuses the
        # previous block's freed memory for both, and a certify_n31
        # experiment faults in about 14k fresh pages, against 17k with g
        # first and 31k when h is also freed at the end of each block
        h = np.empty(g0.shape, complex)
        # g = d_b (G0 + alpha I) d_b a row chunk at a time, from the products
        # the whole-matrix steps take: G0 d_r d_c off the diagonal and
        # (G0 + alpha) d_r^2 on it
        g = np.empty(g0.shape)
        for rows in row_blocks(size, 2 * 8 * size):
            np.multiply(g0[rows], np.outer(d[rows], d), out=g[rows])
        g.flat[::size + 1] = (g0.diagonal() + shift.alpha) * (d * d)
        e = shift.beta * (d * d)
        h.real = g @ g
        h.real.flat[::size + 1] += e * e
        # elementwise, so row chunks, two temporaries and h's row in flight,
        # give the whole product's bits
        for rows in row_blocks(size, 3 * 8 * size):
            h.imag[rows] = g[rows] * (e[None, :] - e[rows, None])
        del g  # before the eigensolve's own copy of h
        sigma.append(np.sqrt(np.maximum(np.linalg.eigvalsh(h), 0.0)))
    sigma = np.sort(np.concatenate(sigma))
    eigenvalues = np.concatenate([-sigma[::-1], sigma])

    bounds, exact, certified = _certified_bounds(grid, coefficient, shift)
    inner, outer = (1.0 / bounds.mu0, bounds.mu0) if exact else bounds.interval
    magnitudes = np.abs(eigenvalues)
    violations = np.maximum(np.maximum(inner - magnitudes, magnitudes - outer), 0.0)
    return SpectrumCertificate(
        eigenvalues=eigenvalues,
        interval_lo_pos=inner,
        interval_hi_pos=outer,
        max_violation=float(violations.max()),
        branch=bounds.branch,
        certified=certified,
    )


def verify_sandwich(h1_diag: np.ndarray, h2_diag: np.ndarray, trials: int = 1000,
                    seed: int = 0) -> float:
    """Worst sandwich violation over random vectors for commuting PSD pairs.

    Both operators are given by their diagonals in a common eigenbasis.
    For each random z the ratio z*sqrt(H1^2+H2^2)z / z*(H1+H2)z must lie in
    [sqrt(2)/2, 1]; the return value is the largest observed excursion
    outside that interval (0.0 when none).
    """
    h1 = np.asarray(h1_diag, dtype=float)
    h2 = np.asarray(h2_diag, dtype=float)
    if h1.shape != h2.shape or h1.ndim != 1:
        raise ValueError("diagonals must be one-dimensional and of equal length")
    if np.any(h1 < 0.0) or np.any(h2 < 0.0):
        raise ValueError("diagonals must be entrywise nonnegative")
    if np.any(h1 + h2 == 0.0):
        raise ValueError("H1 and H2 must not both vanish in the same entry")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")

    mixed = np.hypot(h1, h2)
    summed = h1 + h2
    lower = math.sqrt(2.0) / 2.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        z = rng.standard_normal(h1.size)
        den = float(np.dot(summed * z, z))
        if den == 0.0:
            continue
        ratio = float(np.dot(mixed * z, z)) / den
        worst = max(worst, lower - ratio, ratio - 1.0)
    return worst


def certificate_payload(grid: GridSpec, shift: Shift, cert: SpectrumCertificate) -> dict:
    """JSON-ready summary of one dense spectrum verification."""
    magnitudes = np.abs(cert.eigenvalues)
    return {
        "grid": {"n": grid.n, "dim": grid.dim},
        "alpha": shift.alpha,
        "beta": shift.beta,
        "branch": cert.branch,
        "certified": cert.certified,
        "mu_bounds": {"inner": cert.interval_lo_pos, "outer": cert.interval_hi_pos},
        "eigenvalue_extremes": {
            "min": float(cert.eigenvalues.min()),
            "max": float(cert.eigenvalues.max()),
            "min_abs": float(magnitudes.min()),
            "max_abs": float(magnitudes.max()),
        },
        "all_inside": cert.all_inside,
        "max_violation": cert.max_violation,
    }
