"""Spectral theory checks for the absolute-value preconditioned block system.

Three pieces of machinery live here:

* abs_block_2x2: the constructive eigendecomposition of a two-by-two block
  matrix [[theta I, A*], [A, -theta I]] from the SVD of A.  Its absolute
  value is block diagonal and the preconditioned matrix |M|^-1 M has
  eigenvalues exactly +-1.

* compute_bounds: closed-form interval bounds for the spectrum of the
  averaged-preconditioner system, branching on the sign of the real shift.
  For alpha < 0 the bounds are certified only under sign conditions that
  are all checked before the branch is declared valid.

* verify_spectrum / verify_sandwich: dense desk-scale verification that
  computed spectra actually fall inside the certified intervals, and a
  randomized check of the norm-equivalence sandwich
  sqrt(2)/2 <= z*sqrt(H1^2+H2^2)z / z*(H1+H2)z <= 1 for commuting PSD pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (CoefficientField, GridSpec, assemble_laplacian_2d_constant,
                   assemble_laplacian_2d_variable, smallest_laplacian_eigenvalue)
from .precond import build_averaged
from .saddle import SaddleOperator, Shift

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
    c0: float
    a_min: float
    a_max: float
    gamma: float
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
    interval_lo_neg: float
    interval_hi_neg: float
    interval_lo_pos: float
    interval_hi_pos: float
    all_inside: bool
    max_violation: float
    branch: str
    # False when the interval carries no proof (sign conditions violated for
    # a genuinely variable coefficient); containment is then informational.
    certified: bool


def block_matrix(theta: float, a_n: np.ndarray) -> np.ndarray:
    """Assemble [[theta I, A*], [A, -theta I]] for tests and demos."""
    a = np.atleast_2d(np.asarray(a_n))
    n = a.shape[0]
    eye = np.eye(n)
    return np.block([[theta * eye, a.conj().T], [a, -theta * eye]])


def abs_block_2x2(theta: float, a_n: np.ndarray):
    """Eigendecomposition of M = [[theta I, A*], [A, -theta I]] from the SVD of A.

    Returns (q, eigenvalues, abs_m) with M = q diag(eigenvalues) q* and
    abs_m = |M| = q diag(|eigenvalues|) q*.  With A = U Sigma V* the
    eigenvalues are +-sqrt(sigma^2 + theta^2) and eigenvectors combine the
    singular vector pairs; a zero denominator (sigma = 0 with matching sign
    of theta) falls back to the axis eigenvector of the then-diagonal mode.
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
    d1 = np.hypot(s - theta, sig)
    d2 = np.hypot(s + theta, sig)
    # A vanished denominator (sigma = 0, sign of theta matching) means that
    # mode's two-by-two block is already diagonal; its eigenvector is (1, 0).
    safe1 = np.where(d1 == 0.0, 1.0, d1)
    safe2 = np.where(d2 == 0.0, 1.0, d2)
    top1 = np.where(d1 == 0.0, 1.0, sig / safe1)
    bot1 = np.where(d1 == 0.0, 0.0, (s - theta) / safe1)
    top2 = np.where(d2 == 0.0, 1.0, -sig / safe2)
    bot2 = np.where(d2 == 0.0, 0.0, (s + theta) / safe2)

    q = np.block([[v * top1[None, :], v * top2[None, :]],
                  [u * bot1[None, :], u * bot2[None, :]]])
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

    return BoundSet(branch, c0, a_min, a_max, gamma, mu0,
                    mu0_tilde, mu1_tilde, theta1, theta2)


def verify_spectrum(grid: GridSpec, coefficient: CoefficientField, shift: Shift) -> SpectrumCertificate:
    """Dense check that the preconditioned spectrum sits in the certified intervals.

    Computes the eigenvalues of the symmetric P^(-1/2) A P^(-1/2) and
    measures the distance of each to the interval union.  Capped at n <= 31;
    the similarity keeps the computation symmetric throughout.

    For a coefficient with a_min == a_max the averaged operator reproduces
    the diffusion operator exactly, the preconditioner is the exact block
    absolute value, and the spectrum is +-1 for every nonsingular shift; the
    always-valid sqrt(2 a_max / a_min) interval is then used regardless of
    the sign of the real part, and the certificate stays certified.  For a
    genuinely variable coefficient whose negative-shift sign conditions fail
    the interval carries no proof: containment is still measured but the
    certificate is marked uncertified.
    """
    if grid.n > VERIFY_CAP_2D:
        raise ValueError(f"dense verification capped at n={VERIFY_CAP_2D}, got {grid.n}")

    if coefficient.is_constant_one:
        k_op = assemble_laplacian_2d_constant(grid)
    else:
        k_op = assemble_laplacian_2d_variable(grid, coefficient)
    p = build_averaged(grid, coefficient, shift)
    a_dense = SaddleOperator(k_op, shift).dense()
    half_inv_sqrt = p.materialize_block(-0.5)
    m = grid.m
    sym = np.zeros_like(a_dense)
    # blockwise similarity transform, reusing the two distinct blocks
    for bi in range(2):
        for bj in range(2):
            block = a_dense[bi * m:(bi + 1) * m, bj * m:(bj + 1) * m]
            sym[bi * m:(bi + 1) * m, bj * m:(bj + 1) * m] = \
                half_inv_sqrt @ block @ half_inv_sqrt
    eigenvalues = np.linalg.eigvalsh(sym)

    c0 = smallest_laplacian_eigenvalue(grid)
    bounds = compute_bounds(coefficient, c0, shift)
    exact = coefficient.a_min == coefficient.a_max
    if exact:
        inner, outer = 1.0 / bounds.mu0, bounds.mu0
    else:
        inner, outer = bounds.interval
    certified = exact or bounds.branch != BRANCH_VIOLATED
    magnitudes = np.abs(eigenvalues)
    violations = np.maximum(np.maximum(inner - magnitudes, magnitudes - outer), 0.0)
    max_violation = float(violations.max())
    return SpectrumCertificate(
        eigenvalues=eigenvalues,
        interval_lo_neg=inner,
        interval_hi_neg=outer,
        interval_lo_pos=inner,
        interval_hi_pos=outer,
        all_inside=bool(max_violation <= SPECTRUM_SLACK),
        max_violation=max_violation,
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
