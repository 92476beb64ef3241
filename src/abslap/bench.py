"""Benchmark harness: seeded experiments, report rows, and emitters.

Experiments reproduce the desk-scale iteration studies: pick grid sizes and
complex shifts, manufacture an exact solution from a seeded Gaussian
stream, build the right-hand side by one operator apply, solve with
preconditioned MINRES, and certify the true residual plus (at small sizes)
the dense spectrum containment.  certify runs the dense certificates alone
over a spec's grid sizes and shifts, the sweep behind `abslap verify`.

Randomness is a splitmix64 stream with Box-Muller normals, implemented
here.  The stream and its uniforms are exact, the same bits everywhere;
the normals go through numpy's log, sqrt, cos and sin, so their last bits
depend on numpy's build and on the CPU's SIMD level (numpy 2.4.6's AVX-512
log differs from its baseline kernel by 1 ulp on some inputs):

    state_k = seed + k * 0x9E3779B97F4A7C15            (mod 2^64)
    z = state_k; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB; out = z ^ (z >> 31)

Uniforms are (out >> 11 + 0.5) * 2^-53 in (0, 1) and normal pairs come from
the Box-Muller map sqrt(-2 ln u1) (cos, sin)(2 pi u2).  A draw of p pairs
takes u1 from its first p counters and u2 from the next p.  It computes
them in chunks of pairs cut by grid.blocks, each chunk from its own
counters with the whole-array operations, so the normals are bit-identical
to a whole-array draw and the temporaries stay chunk-sized.

generate_rhs draws the exact solution's real and imaginary parts straight
into the halves of one stacked vector and applies the block operator to
it.  A bench row turns f into the block right-hand side b once and hands b
to the solver, so f is freed before the solve.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .grid import (CoefficientField, GridSpec, assemble_laplacian_2d_constant,
                   assemble_laplacian_2d_variable, blocks, constant_coefficient,
                   separable_quadratic_coefficient)
from .minres import SolverConfig, minres_solve
from .precond import build_averaged, build_ideal, sine_basis
from .saddle import SaddleOperator, Shift, saddle_rhs
from .spectral import (VERIFY_CAP_2D, certificate_blocks, certificate_payload, iteration_bound,
                       verify_spectrum)

GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
MASK64 = 0xFFFFFFFFFFFFFFFF

# Default shift sweeps for the two coefficient regimes.
DEFAULT_CONSTANT_SHIFTS = ((100.0, 100.0), (-100.0, -100.0), (100.0, -100.0),
                           (-100.0, 100.0), (-100.0, 1.0), (1.0, -100.0))
DEFAULT_VARIABLE_SHIFTS = ((-600.0, 150.0), (-100.0, -25.0), (100.0, -100.0),
                           (-100.0, 100.0), (-100.0, 1.0), (1.0, -100.0))
# Each built-in coefficient: (field factory, default shifts, default
# preconditioner); ExperimentSpec takes the defaults for a field left at None.
_COEFFICIENTS = {
    "constant_one": (constant_coefficient, DEFAULT_CONSTANT_SHIFTS, "ideal"),
    "example2_poly": (separable_quadratic_coefficient, DEFAULT_VARIABLE_SHIFTS, "averaged"),
}
COEFFICIENT_NAMES = tuple(_COEFFICIENTS)

CSV_HEADER = "n,dof,alpha,beta,iterations,wall_time,true_residual,bound_iterations,spectrum_verdict"
CERTIFICATE_HEADER = "n,alpha,beta,branch,certified,mu_inner,mu_outer,all_inside,max_violation"


def _checked(count: int) -> int:
    """count, refused before any draw if negative: it would move the stream back."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return count


class RandomStream:
    """splitmix64 with Box-Muller normals; counter-based and vectorized."""

    def __init__(self, seed: int):
        self.seed = int(seed) & MASK64
        self._drawn = 0

    def _mix(self, first: int, count: int) -> np.ndarray:
        """The raw outputs at counters first, ..., first + count - 1."""
        counters = np.arange(first, first + count, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = (np.uint64(self.seed) + counters * np.uint64(GOLDEN)) & np.uint64(MASK64)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
            return z ^ (z >> np.uint64(31))

    def _take(self, count: int) -> int:
        """Advance the stream past count outputs; return the first counter
        they take."""
        self._drawn += _checked(count)
        return self._drawn - count + 1

    @staticmethod
    def _uniform(bits: np.ndarray) -> np.ndarray:
        return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53

    def bits(self, count: int) -> np.ndarray:
        """count raw 64-bit outputs as uint64, advancing the stream."""
        return self._mix(self._take(count), count)

    def uniforms(self, count: int) -> np.ndarray:
        """count uniforms in the open interval (0, 1), advancing the stream."""
        return self._uniform(self.bits(count))

    def normals(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """count standard normals; consumes uniforms in Box-Muller pairs.

        As in numpy, the normals go into out when it is given, a float64
        array of shape (count,), and out is returned; otherwise into a new
        array.  The pairs are drawn in chunks cut by grid.blocks, each from
        its own counters, so the bits do not depend on the chunk size.
        """
        pairs = (_checked(count) + 1) // 2
        if out is None:
            out = np.empty(count)
        elif (not isinstance(out, np.ndarray) or out.shape != (count,)
                or out.dtype != np.float64):
            raise ValueError(f"out must be a float64 array of shape ({count},), "
                             f"got {getattr(out, 'shape', type(out))}")
        # the first half of the counters feeds u1, the second u2
        first = self._take(2 * pairs)
        for c in blocks(pairs, 8 * 8):  # eight doubles per pair in flight
            size = c.stop - c.start
            radius = np.sqrt(-2.0 * np.log(self._uniform(self._mix(first + c.start, size))))
            angle = 2.0 * math.pi * self._uniform(self._mix(first + pairs + c.start, size))
            np.multiply(radius, np.cos(angle), out=out[2 * c.start:2 * c.stop:2])
            # an odd count drops the last pair's sine
            sines = out[2 * c.start + 1:2 * c.stop:2]
            np.multiply(radius[:sines.size], np.sin(angle[:sines.size]), out=sines)
        return out


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep.  shifts and preconditioner left at None take the
    coefficient's defaults: DEFAULT_CONSTANT_SHIFTS and "ideal" for
    constant_one, DEFAULT_VARIABLE_SHIFTS and "averaged" for example2_poly."""

    grid_sizes: tuple = (15, 31, 63)
    shifts: tuple | None = None
    coefficient: str = "constant_one"
    preconditioner: str | None = None
    tol: float = 1e-8
    max_iter: int = 2000
    seed: int = 20260822
    verify_spectrum_up_to: int = 0

    def __post_init__(self):
        # each rule has one owner, which raises on a bad value
        SolverConfig(self.tol, self.max_iter)
        coefficient_from_spec(self.coefficient)
        _, shifts, preconditioner = _COEFFICIENTS[self.coefficient]
        if self.shifts is None:
            object.__setattr__(self, "shifts", shifts)
        if self.preconditioner is None:
            object.__setattr__(self, "preconditioner", preconditioner)
        for n in self.grid_sizes:
            GridSpec(n)
        if self.preconditioner not in ("ideal", "averaged", "none"):
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")
        if self.preconditioner == "ideal" and self.coefficient != "constant_one":
            raise ValueError("ideal preconditioner is exact only for constant_one")
        for pair in self.shifts:
            if len(pair) != 2:
                raise ValueError(f"shifts must be (alpha, beta) pairs, got {pair!r}")
            Shift(*pair)
        # a report keys its rows by (n, alpha, beta), so a repeat would hide a row
        if len(set(self.grid_sizes)) != len(self.grid_sizes):
            raise ValueError(f"grid sizes must not repeat, got {self.grid_sizes!r}")
        if len(set(map(tuple, self.shifts))) != len(self.shifts):
            raise ValueError(f"shifts must not repeat, got {self.shifts!r}")


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
    # a tuple compares by ==, so a name that cannot be hashed is refused too
    if name not in COEFFICIENT_NAMES:
        raise ValueError(f"unknown coefficient {name!r}; expected one of {COEFFICIENT_NAMES}")
    return _COEFFICIENTS[name][0]()


def generate_rhs(grid: GridSpec, k_op, shift: Shift, seed: int):
    """Manufactured problem: returns (exact complex solution, right-hand side).

    The block operator maps the stacked exact solution (Re z; Im z) to
    (Im f; Re f), so one apply gives f = (K + (alpha + beta i) I) z.
    """
    m = grid.m
    stream = RandomStream(seed)
    stacked = np.empty(2 * m)  # (Re z; Im z), drawn in place
    stream.normals(m, out=stacked[:m])
    stream.normals(m, out=stacked[m:])
    exact = np.empty(m, complex)
    exact.real = stacked[:m]
    exact.imag = stacked[m:]
    b = SaddleOperator(k_op, shift).apply(stacked)
    del stacked
    f = np.empty(m, complex)
    f.real = b[m:]
    f.imag = b[:m]
    return exact, f


def solve_shifted(k_op, shift: Shift, precond, f, config: SolverConfig):
    """Solve (K + (alpha + beta i) I) z = f by MINRES on the real block system.

    precond=None solves unpreconditioned.  A preconditioner solves in the
    basis precond.sine_basis gives, which it does for the constant stencil:
    A and P are diagonal there, so a solve makes 2 transforms, not 2 per
    P^-1 apply.  Makes one minres_solve call, looked up in this module, and
    returns its (x, SolveReport) with x the stacked (Re z; Im z) in the
    original basis.
    """
    return _solve_block(k_op, shift, precond, saddle_rhs(f), config)


def _solve_block(k_op, shift: Shift, precond, b, config: SolverConfig):
    """solve_shifted on the block right-hand side b = saddle_rhs(f)."""
    operator = SaddleOperator(k_op, shift)
    apply_pinv = precond.apply_inverse if precond is not None else None
    basis = sine_basis(operator, precond) if precond is not None else None
    return minres_solve(operator.apply, apply_pinv, b, config, basis=basis)


def _lazy_blocks(grid: GridSpec, coefficient):
    """A callable that builds the grid's certificate_blocks on its first call
    and returns the same blocks on every later one."""
    return functools.cache(functools.partial(certificate_blocks, grid, coefficient))


def run_experiment(spec: ExperimentSpec) -> list[ReportRow]:
    """Run the sweep row by row; failures are recorded, not raised.  A grid's
    certificate blocks are built by its first row that verifies, which
    carries their cost in its wall_time, and dropped after the grid's last
    row."""
    coefficient = coefficient_from_spec(spec.coefficient)
    # one independent substream seed per row, drawn from the spec's stream
    row_count = len(spec.grid_sizes) * len(spec.shifts)
    seeds = iter(RandomStream(spec.seed).bits(row_count).tolist())
    rows = []
    for n in spec.grid_sizes:
        grid = GridSpec(n, 2)
        if coefficient.is_constant_one:
            k_op = assemble_laplacian_2d_constant(grid)
        else:
            k_op = assemble_laplacian_2d_variable(grid, coefficient)
        grid_blocks = _lazy_blocks(grid, coefficient)
        for alpha, beta in spec.shifts:
            shift = Shift(float(alpha), float(beta))
            row = ReportRow(n=n, dof=2 * n * n, alpha=shift.alpha, beta=shift.beta,
                            iterations=0, wall_time=0.0, true_residual=math.inf,
                            bound_iterations=None, spectrum_verdict="skipped",
                            converged=False)
            try:
                _run_row(spec, coefficient, grid, k_op, shift, next(seeds), row, grid_blocks)
            except (ValueError, RuntimeError) as exc:
                row.error = str(exc)
            rows.append(row)
        del grid_blocks
    return rows


def _run_row(spec: ExperimentSpec, coefficient, grid, k_op, shift, seed, row: ReportRow,
             grid_blocks):
    start = time.perf_counter()
    if spec.preconditioner == "ideal":
        precond = build_ideal(grid, shift)
    elif spec.preconditioner == "averaged":
        precond = build_averaged(grid, coefficient, shift)
    else:
        precond = None
    # b takes f's name and the solution the exact solution's, which frees
    # f before the solve and the exact solution after it
    _, b = generate_rhs(grid, k_op, shift, seed)
    b = saddle_rhs(b)
    _, report = _solve_block(k_op, shift, precond, b,
                             SolverConfig(tol=spec.tol, max_iter=spec.max_iter))

    row.iterations = report.iterations
    row.converged = report.converged
    row.true_residual = report.final_true_residual
    # without a preconditioner no interval is proved
    if precond is not None:
        row.bound_iterations = iteration_bound(grid, coefficient, shift, spec.tol)
    # rows above the dense cap cannot be verified and stay "skipped"
    if min(spec.verify_spectrum_up_to, VERIFY_CAP_2D) >= grid.n and precond is not None:
        row.spectrum_verdict = verify_spectrum(grid, coefficient, shift, grid_blocks()).verdict
    row.wall_time = time.perf_counter() - start
    # Free the solution and the right-hand side before the preconditioner.
    # CPython clears a frame's locals in the order they first appear, which
    # frees `precond` first; the next row's build on a large grid then
    # faults in fresh pages instead of reusing the freed ones.
    del _, b
    if report.converged and not report.final_true_residual <= 10.0 * spec.tol:
        raise RuntimeError(
            f"true residual {report.final_true_residual:.3e} exceeds ten times "
            f"the tolerance {spec.tol:.1e} after reported convergence")


def certify(spec: ExperimentSpec) -> list:
    """(grid, shift, SpectrumCertificate) for each grid size and shift of the
    sweep, in row order, from one verify_spectrum call each, looked up in this
    module.  Each grid's certificate blocks are built once, at its first
    shift, and passed to every shift's call.  A shift the certificate cannot
    take, such as one whose preconditioner weights overflow, raises its
    ValueError; its weights are built first, so it raises before any dense
    work."""
    coefficient = coefficient_from_spec(spec.coefficient)
    shifts = [Shift(float(alpha), float(beta)) for alpha, beta in spec.shifts]
    certs = []
    for grid in map(GridSpec, spec.grid_sizes):
        grid_blocks = _lazy_blocks(grid, coefficient)
        for shift in shifts:
            build_averaged(grid, coefficient, shift)  # refuses the shift before the blocks
            certs.append((grid, shift, verify_spectrum(grid, coefficient, shift, grid_blocks())))
        del grid_blocks
    return certs


def all_clear(rows: list[ReportRow]) -> bool:
    """True when every row converged and no requested verification failed."""
    return all(r.converged and r.error is None and r.spectrum_verdict != "fail"
               for r in rows)


def _row_payload(row: ReportRow) -> dict:
    """The row's fields in order, `error` only when set."""
    return {k: v for k, v in vars(row).items() if not (k == "error" and v is None)}


def strict_json(payload) -> str:
    """Indented RFC 8259 JSON: a non-finite float, which it cannot hold, becomes null."""
    def finite(value):
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, list):
            return [finite(v) for v in value]
        return None if isinstance(value, float) and not math.isfinite(value) else value
    return json.dumps(finite(payload), indent=2, allow_nan=False) + "\n"


def emit_report(rows: list[ReportRow], format: str = "text_table") -> str:
    """Serialize rows as json, csv, or an aligned text table."""
    if format == "json":
        return strict_json([_row_payload(r) for r in rows])
    if format == "csv":
        return _delimited(CSV_HEADER, ([
            r.n, r.dof, f"{r.alpha:g}", f"{r.beta:g}", r.iterations,
            f"{r.wall_time:.6g}",
            f"{r.true_residual:.6e}" if math.isfinite(r.true_residual) else "inf",
            "n/a" if r.bound_iterations is None else r.bound_iterations,
            r.spectrum_verdict,
        ] for r in rows))
    if format == "text_table":
        return _text_table(rows)
    raise ValueError(f"unknown report format {format!r}")


def emit_certificates(certs: list, format: str = "json") -> str:
    """Serialize certify's (grid, shift, certificate) triples as json, or as
    csv or a tab separated text table of one line each."""
    if format == "json":
        return strict_json([certificate_payload(*cert) for cert in certs])
    if format not in ("csv", "text_table"):
        raise ValueError(f"unknown report format {format!r}")
    return _delimited(CERTIFICATE_HEADER, ([
        grid.n, f"{shift.alpha:g}", f"{shift.beta:g}", cert.branch, cert.certified,
        f"{cert.interval_lo_pos:.12g}", f"{cert.interval_hi_pos:.12g}",
        cert.all_inside, f"{cert.max_violation:.6e}",
    ] for grid, shift, cert in certs), "\t" if format == "text_table" else ",")


def _delimited(header: str, rows, delimiter: str = ",") -> str:
    """The header, a comma separated list of names, and the rows, one line
    each, written by csv with the delimiter."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return buf.getvalue()


def _text_table(rows: list[ReportRow]) -> str:
    """Iter/time pairs per shift, one line per grid size."""
    if not rows:
        return "(no rows)\n"
    shifts = list(dict.fromkeys((r.alpha, r.beta) for r in rows))
    sizes = list(dict.fromkeys(r.n for r in rows))
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
