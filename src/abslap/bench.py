"""Benchmark harness: seeded experiments, report rows, and emitters.

Experiments reproduce the desk-scale iteration studies: pick grid sizes and
complex shifts, manufacture an exact solution from a seeded Gaussian
stream, build the right-hand side by one operator apply, solve with
preconditioned MINRES, and certify the true residual plus (at small sizes)
the dense spectrum containment.

Randomness is a splitmix64 stream with Box-Muller normals, implemented
here so runs are bit-reproducible regardless of numpy version:

    state_k = seed + k * 0x9E3779B97F4A7C15            (mod 2^64)
    z = state_k; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB; out = z ^ (z >> 31)

Uniforms are (out >> 11 + 0.5) * 2^-53 in (0, 1) and normal pairs come from
the Box-Muller map sqrt(-2 ln u1) (cos, sin)(2 pi u2).
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .grid import (CoefficientField, GridSpec, assemble_laplacian_2d_constant,
                   assemble_laplacian_2d_variable, constant_coefficient,
                   separable_quadratic_coefficient, smallest_laplacian_eigenvalue)
from .minres import SolverConfig, bound_iterations, minres_solve
from .precond import build_averaged, build_ideal
from .saddle import SaddleOperator, Shift, apply_complex_shifted, real_to_complex, saddle_rhs
from .spectral import BRANCH_VIOLATED, VERIFY_CAP_2D, compute_bounds, verify_spectrum

GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
MASK64 = 0xFFFFFFFFFFFFFFFF

COEFFICIENT_NAMES = ("constant_one", "example2_poly")

# Default shift sweeps for the two coefficient regimes.
DEFAULT_CONSTANT_SHIFTS = ((100.0, 100.0), (-100.0, -100.0), (100.0, -100.0),
                           (-100.0, 100.0), (-100.0, 1.0), (1.0, -100.0))
DEFAULT_VARIABLE_SHIFTS = ((-600.0, 150.0), (-100.0, -25.0), (100.0, -100.0),
                           (-100.0, 100.0), (-100.0, 1.0), (1.0, -100.0))

CSV_HEADER = "n,dof,alpha,beta,iterations,wall_time,true_residual,bound_iterations,spectrum_verdict"


class RandomStream:
    """splitmix64 with Box-Muller normals; counter-based and vectorized."""

    def __init__(self, seed: int):
        self.seed = int(seed) & MASK64
        self._drawn = 0

    def _mix(self, counters: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            z = (np.uint64(self.seed) + counters * np.uint64(GOLDEN)) & np.uint64(MASK64)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
            return z ^ (z >> np.uint64(31))

    def uniforms(self, count: int) -> np.ndarray:
        """count uniforms in the open interval (0, 1), advancing the stream."""
        counters = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.uint64)
        self._drawn += count
        bits = self._mix(counters)
        return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53

    def normals(self, count: int) -> np.ndarray:
        """count standard normals; consumes uniforms in Box-Muller pairs."""
        pairs = (count + 1) // 2
        u1 = self.uniforms(pairs)
        u2 = self.uniforms(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * math.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:count]


@dataclass(frozen=True)
class ExperimentSpec:
    grid_sizes: tuple = (15, 31, 63)
    shifts: tuple = DEFAULT_CONSTANT_SHIFTS
    coefficient: str = "constant_one"
    preconditioner: str = "ideal"
    tol: float = 1e-8
    max_iter: int = 2000
    seed: int = 20260822
    verify_spectrum_up_to: int = 0

    def __post_init__(self):
        if self.preconditioner not in ("ideal", "averaged", "none"):
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")
        if self.preconditioner == "ideal" and self.coefficient != "constant_one":
            raise ValueError("ideal preconditioner is exact only for constant_one")
        for n in self.grid_sizes:
            if n < 1:
                raise ValueError(f"grid sizes must be positive, got {n}")
        for pair in self.shifts:
            if len(pair) != 2:
                raise ValueError(f"shifts must be (alpha, beta) pairs, got {pair!r}")


@dataclass
class ReportRow:
    n: int
    dof: int
    alpha: float
    beta: float
    iterations: int
    wall_time: float
    true_residual: float
    bound_iterations: int | None
    spectrum_verdict: str
    converged: bool = True
    error: str | None = None


def coefficient_from_spec(name: str) -> CoefficientField:
    """Map one of COEFFICIENT_NAMES to its field."""
    if name == "constant_one":
        return constant_coefficient(1.0)
    if name == "example2_poly":
        return separable_quadratic_coefficient()
    raise ValueError(f"unknown coefficient {name!r}; expected one of {COEFFICIENT_NAMES}")


def generate_rhs(grid: GridSpec, k_op, shift: Shift, seed: int):
    """Manufactured problem: returns (exact complex solution, right-hand side)."""
    stream = RandomStream(seed)
    exact = stream.normals(grid.m) + 1j * stream.normals(grid.m)
    rhs = apply_complex_shifted(k_op, shift, exact)
    return exact, rhs


def _row_seed(base: int, index: int) -> int:
    """Independent per-row substream: one extra splitmix scramble of the index."""
    z = (base + (index + 1) * GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def _iteration_bound(spec: ExperimentSpec, coefficient, grid, shift):
    if spec.preconditioner == "none":
        return None
    if spec.preconditioner == "ideal" or coefficient.a_min == coefficient.a_max:
        # exact absolute value: spectrum is {-1, +1}
        return bound_iterations(1.0, 1.0, 1.0, 1.0, spec.tol)
    c0 = smallest_laplacian_eigenvalue(grid)
    bounds = compute_bounds(coefficient, c0, shift)
    if bounds.branch == BRANCH_VIOLATED:
        return None
    inner, outer = bounds.interval
    return bound_iterations(outer, inner, inner, outer, spec.tol)


def run_experiment(spec: ExperimentSpec) -> list[ReportRow]:
    """Run the sweep row by row; failures are recorded, not raised."""
    coefficient = coefficient_from_spec(spec.coefficient)
    rows = []
    index = 0
    for n in spec.grid_sizes:
        grid = GridSpec(n, 2)
        if spec.coefficient == "constant_one":
            k_op = assemble_laplacian_2d_constant(grid)
        else:
            k_op = assemble_laplacian_2d_variable(grid, coefficient)
        for alpha, beta in spec.shifts:
            shift = Shift(float(alpha), float(beta))
            row = ReportRow(n=n, dof=2 * n * n, alpha=shift.alpha, beta=shift.beta,
                            iterations=0, wall_time=0.0, true_residual=math.inf,
                            bound_iterations=None, spectrum_verdict="skipped",
                            converged=False)
            try:
                _run_row(spec, coefficient, grid, k_op, shift,
                         _row_seed(spec.seed, index), row)
            except (ValueError, RuntimeError) as exc:
                row.error = str(exc)
            rows.append(row)
            index += 1
    return rows


def _run_row(spec: ExperimentSpec, coefficient, grid, k_op, shift, seed, row: ReportRow):
    start = time.perf_counter()
    if spec.preconditioner == "ideal":
        precond = build_ideal(grid, shift)
    elif spec.preconditioner == "averaged":
        precond = build_averaged(grid, coefficient, shift)
    else:
        precond = None
    _, rhs = generate_rhs(grid, k_op, shift, seed)
    operator = SaddleOperator(k_op, shift)
    config = SolverConfig(tol=spec.tol, max_iter=spec.max_iter)
    apply_pinv = precond.apply_inverse if precond is not None else None
    _, report = minres_solve(operator.apply, apply_pinv, saddle_rhs(rhs), config)

    row.iterations = report.iterations
    row.converged = report.converged
    row.true_residual = report.final_true_residual
    row.bound_iterations = _iteration_bound(spec, coefficient, grid, shift)
    # rows above the dense cap cannot be verified and stay "skipped"
    if min(spec.verify_spectrum_up_to, VERIFY_CAP_2D) >= grid.n and precond is not None:
        cert = verify_spectrum(grid, coefficient, shift)
        if cert.certified:
            row.spectrum_verdict = "pass" if cert.all_inside else "fail"
        # an uncertified interval proves nothing either way: leave "skipped"
    row.wall_time = time.perf_counter() - start
    if report.converged and not report.final_true_residual <= 10.0 * spec.tol:
        raise RuntimeError(
            f"true residual {report.final_true_residual:.3e} exceeds ten times "
            f"the tolerance {spec.tol:.1e} after reported convergence")


def all_clear(rows: list[ReportRow]) -> bool:
    """True when every row converged and no requested verification failed."""
    return all(r.converged and r.error is None and r.spectrum_verdict != "fail"
               for r in rows)


def _row_payload(row: ReportRow) -> dict:
    payload = {
        "n": row.n,
        "dof": row.dof,
        "alpha": row.alpha,
        "beta": row.beta,
        "iterations": row.iterations,
        "wall_time": row.wall_time,
        "true_residual": row.true_residual,
        "bound_iterations": row.bound_iterations,
        "spectrum_verdict": row.spectrum_verdict,
    }
    if row.error is not None:
        payload["error"] = row.error
    return payload


def emit_report(rows: list[ReportRow], format: str = "text_table") -> str:
    """Serialize rows as json, csv, or an aligned text table."""
    if format == "json":
        return json.dumps([_row_payload(r) for r in rows], indent=2) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in rows:
            writer.writerow([
                r.n, r.dof, f"{r.alpha:g}", f"{r.beta:g}", r.iterations,
                f"{r.wall_time:.6g}",
                f"{r.true_residual:.6e}" if math.isfinite(r.true_residual) else "inf",
                "n/a" if r.bound_iterations is None else r.bound_iterations,
                r.spectrum_verdict,
            ])
        return buf.getvalue()
    if format == "text_table":
        return _text_table(rows)
    raise ValueError(f"unknown report format {format!r}")


def _text_table(rows: list[ReportRow]) -> str:
    """Iter/time pairs per shift, one line per grid size."""
    if not rows:
        return "(no rows)\n"
    shifts = []
    for r in rows:
        key = (r.alpha, r.beta)
        if key not in shifts:
            shifts.append(key)
    sizes = []
    for r in rows:
        if r.n not in sizes:
            sizes.append(r.n)
    by_key = {(r.n, r.alpha, r.beta): r for r in rows}

    width = 16
    head1 = f"{'':>12}" + "".join(f"{f'({a:g},{b:g})':>{width}}" for a, b in shifts)
    head2 = f"{'n':>5}{'dof':>7}" + "".join(f"{'iter':>6}{'time':>10}" for _ in shifts)
    lines = [head1, head2]
    for n in sizes:
        cells = []
        for a, b in shifts:
            r = by_key.get((n, a, b))
            if r is None:
                cells.append(f"{'-':>6}{'-':>10}")
            elif r.error is not None:
                cells.append(f"{'err':>6}{'-':>10}")
            else:
                mark = "" if r.converged else "*"
                cells.append(f"{str(r.iterations) + mark:>6}{r.wall_time:>10.3f}")
        lines.append(f"{n:>5}{2 * n * n:>7}" + "".join(cells))
    lines.append("")
    return "\n".join(lines)
