"""Uniform Dirichlet grids and five-point finite difference operators.

The domain is the open unit square with homogeneous Dirichlet boundary
conditions, discretized on n interior points per dimension with mesh width
h = 1/(n+1).  Operators carry the 1/h^2 scaling of the continuous problem,
so eigenvalues approach those of -div(a grad .) as the grid is refined.
Variable coefficients are sampled at edge midpoints, which keeps the
assembled operator symmetric and preserves the a_min * L <= K <= a_max * L
ordering against the constant-coefficient Laplacian L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Hard cap for dense materialization; above it the quadratic storage is no
# longer desk-scale.
DENSE_CAP_2D = 63

KIND_CONSTANT = "constant_laplacian"
KIND_VARIABLE = "variable_laplacian"


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the unit square: n interior points per dimension, h = 1/(n+1).

    dim is fixed at 2; it stays a field so callers can state it.
    """

    n: int
    dim: int = 2

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one interior point, got n={self.n}")
        if self.dim != 2:
            raise ValueError(f"only the unit square is supported (dim=2), got dim={self.dim}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def m(self) -> int:
        """Number of scalar unknowns, n**2."""
        return self.n * self.n


@dataclass(frozen=True)
class CoefficientField:
    """Scalar diffusion coefficient with certified bounds 0 < a_min <= a <= a_max.

    The evaluator must accept numpy arrays of coordinates and evaluate
    elementwise.  The bounds are trusted by the spectral bound machinery, so
    assembly re-checks every sample against them.
    """

    evaluator: Callable[..., np.ndarray]
    a_min: float
    a_max: float

    def __post_init__(self):
        if not (0.0 < self.a_min <= self.a_max):
            raise ValueError(
                f"need 0 < a_min <= a_max, got [{self.a_min}, {self.a_max}]"
            )

    @property
    def gamma(self) -> float:
        """Geometric mean of the coefficient bounds, sqrt(a_min * a_max)."""
        return math.sqrt(self.a_min * self.a_max)

    @property
    def is_constant_one(self) -> bool:
        return self.a_min == 1.0 and self.a_max == 1.0


def constant_coefficient(value: float = 1.0) -> CoefficientField:
    """Constant field a(x) = value."""
    if value <= 0.0:
        raise ValueError(f"coefficient must be positive, got {value}")

    def evaluator(*coords):
        shape = np.broadcast(*(np.asarray(c, float) for c in coords)).shape
        return np.full(shape, value)

    return CoefficientField(evaluator, value, value)


def separable_quadratic_coefficient() -> CoefficientField:
    """a(x1, x2) = (20 + x1^2)(20 + x2^2), range [400, 441] on the closed unit square."""
    return CoefficientField(lambda x1, x2: (20.0 + x1 ** 2) * (20.0 + x2 ** 2),
                            400.0, 441.0)


class StencilOperator:
    """Matrix-free symmetric positive definite five-point operator.

    kind "constant_laplacian" is the plain Laplacian stencil; kind
    "variable_laplacian" carries coefficient samples at edge midpoints.
    Instances are immutable after assembly and apply() allocates its output,
    so sharing one operator across solves is safe.
    """

    def __init__(self, grid: GridSpec, kind: str, edge_coefficients=None):
        self.grid = grid
        self.kind = kind
        self._edges = edge_coefficients
        if kind == KIND_VARIABLE:
            ax, ay = edge_coefficients
            # Row diagonal: sum of the four incident edge coefficients.
            self._diag = ax[1:, :] + ax[:-1, :] + ay[:, 1:] + ay[:, :-1]

    @property
    def scale(self) -> float:
        return (self.grid.n + 1.0) ** 2  # 1/h^2

    def apply(self, u: np.ndarray) -> np.ndarray:
        g = self.grid
        u = np.asarray(u, dtype=float)
        if u.shape != (g.m,):
            raise ValueError(f"expected vector of length {g.m}, got shape {u.shape}")
        v = u.reshape(g.n, g.n)
        if self.kind == KIND_CONSTANT:
            out = 4.0 * v
            out[:-1, :] -= v[1:, :]
            out[1:, :] -= v[:-1, :]
            out[:, :-1] -= v[:, 1:]
            out[:, 1:] -= v[:, :-1]
        else:
            ax, ay = self._edges
            out = self._diag * v
            out[:-1, :] -= ax[1:-1, :] * v[1:, :]
            out[1:, :] -= ax[1:-1, :] * v[:-1, :]
            out[:, :-1] -= ay[:, 1:-1] * v[:, 1:]
            out[:, 1:] -= ay[:, 1:-1] * v[:, :-1]
        return out.ravel() * self.scale

    def dense(self) -> np.ndarray:
        """Materialize the full m-by-m matrix.  Guarded by the dense cap."""
        g = self.grid
        if g.n > DENSE_CAP_2D:
            raise ValueError(f"dense operator capped at n={DENSE_CAP_2D}, got {g.n}")
        if self.kind == KIND_CONSTANT:
            t = 2.0 * np.eye(g.n) - np.eye(g.n, k=1) - np.eye(g.n, k=-1)
            eye = np.eye(g.n)
            return (np.kron(t, eye) + np.kron(eye, t)) * self.scale
        ax, ay = self._edges
        n, m = g.n, g.m
        a = np.zeros((m, m))
        idx = np.arange(m).reshape(n, n)
        a[idx, idx] = self._diag
        rows = idx[:-1, :].ravel()
        cols = idx[1:, :].ravel()
        a[rows, cols] = -ax[1:-1, :].ravel()
        a[cols, rows] = -ax[1:-1, :].ravel()
        rows = idx[:, :-1].ravel()
        cols = idx[:, 1:].ravel()
        a[rows, cols] = -ay[:, 1:-1].ravel()
        a[cols, rows] = -ay[:, 1:-1].ravel()
        return a * self.scale


def assemble_laplacian_2d_constant(grid: GridSpec) -> StencilOperator:
    """Five-point Laplacian on the unit square, L = L1 x I + I x L1 scaled by 1/h^2."""
    return StencilOperator(grid, KIND_CONSTANT)


def assemble_laplacian_2d_variable(grid: GridSpec, coefficient: CoefficientField) -> StencilOperator:
    """Conservative five-point operator for -div(a grad u), a sampled at edge midpoints.

    Interior point (i, j), zero-based, sits at (x1, x2) = ((i+1)h, (j+1)h).
    The edge between (i, j) and its neighbor in the first coordinate carries
    a((i+1/2)h, (j+1)h); analogously in the second coordinate.
    """
    n, h = grid.n, grid.h
    centers = (np.arange(n) + 1.0) * h
    half = (np.arange(n + 1) + 0.5) * h
    ax = np.asarray(coefficient.evaluator(half[:, None], centers[None, :]), dtype=float)
    ay = np.asarray(coefficient.evaluator(centers[:, None], half[None, :]), dtype=float)
    for direction, arr in (("first-coordinate", ax), ("second-coordinate", ay)):
        if np.any(arr <= 0.0):
            raise ValueError(f"coefficient sample <= 0 on a {direction} edge midpoint")
    lo, hi = coefficient.a_min, coefficient.a_max
    slack = 1e-12 * max(1.0, hi)
    for arr in (ax, ay):
        if arr.min() < lo - slack or arr.max() > hi + slack:
            raise ValueError(
                f"coefficient sample outside certified range [{lo}, {hi}]: "
                f"saw [{arr.min()}, {arr.max()}]"
            )
    return StencilOperator(grid, KIND_VARIABLE, (ax, ay))


def smallest_laplacian_eigenvalue(grid: GridSpec) -> float:
    """Exact smallest eigenvalue of the discrete Dirichlet Laplacian on this grid.

    Per dimension the smallest mode contributes (4/h^2) sin^2(pi h / 2); the
    tensor structure sums one such term per dimension.
    """
    h = grid.h
    return 2.0 * (4.0 / h ** 2) * math.sin(0.5 * math.pi * h) ** 2

