"""Workloads, the timed closed loop, the correctness gate and the metrics.

One client in one process runs `abslap.bench.run_experiment` on one spec
after another (a closed loop).  Every experiment solves the six default
shifts of its coefficient on one grid at tol 1e-8, the same rows
`abslap bench` runs with no `--alpha`/`--beta`.  The harness times the
library's public calls from outside: a thin probe wrapped around the names
`abslap.bench` looks up times each set-up call and each solve, and keeps the
manufactured solution and the computed one long enough to measure the
forward error.  That check is timed and subtracted, so it does not inflate
the timed metrics.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import abslap.bench as bench

from tracing import Tracer, patched, self_times, solve_split

TOL = 1e-8
TRUE_RESIDUAL_FACTOR = 10.0
FORWARD_ERROR_FACTOR = 100.0
TAIL_BEYOND = 10
MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    coefficient: str
    preconditioner: str
    verify_up_to: int = 0

    @property
    def shifts(self):
        if self.coefficient == "constant_one":
            return bench.DEFAULT_CONSTANT_SHIFTS
        return bench.DEFAULT_VARIABLE_SHIFTS

    def spec(self, seed: int, index: int, shifts=None) -> bench.ExperimentSpec:
        """Experiment `index` of a run; its inputs depend only on (seed, index)."""
        return bench.ExperimentSpec(
            grid_sizes=(self.n,), shifts=tuple(shifts or self.shifts),
            coefficient=self.coefficient, preconditioner=self.preconditioner,
            tol=TOL, seed=(seed * 1_000_003 + index) & MASK64,
            verify_spectrum_up_to=self.verify_up_to)


WORKLOADS = {w.name: w for w in (
    Workload("ideal_n1023", 1023, "constant_one", "ideal"),
    Workload("averaged_n511", 511, "example2_poly", "averaged"),
    Workload("certify_n31", 31, "example2_poly", "averaged", verify_up_to=31),
)}


@dataclass
class RowResult:
    key: tuple
    iterations: int
    true_residual: float
    forward_error: float
    solve_s: float
    minor_faults: int
    failures: list[str] = field(default_factory=list)


@dataclass
class Experiment:
    seconds: float  # wall time of run_experiment minus the probe's checks
    rows: list[RowResult]
    setup_s: list[float]  # per row: the grid's assembly plus the row's build
    traced: bool


def forward_error(x: np.ndarray, exact: np.ndarray) -> float:
    """||z - exact|| / ||exact|| for the stacked (Re z; Im z) solution x."""
    m = exact.size
    err = math.hypot(float(np.linalg.norm(x[:m] - exact.real)),
                     float(np.linalg.norm(x[m:] - exact.imag)))
    return err / float(np.linalg.norm(exact))


class Probe:
    """Per-solve and per-set-up timing plus what the correctness gate needs.

    `records` maps a row key to (solve seconds, minor faults, forward
    error); `assemble_s` and `build_s` collect the set-up calls of the
    current experiment.
    """

    def __init__(self):
        self.reset(None)

    def reset(self, tracer: Tracer | None) -> None:
        """Start an experiment; spans go to `tracer` if it is given."""
        self.records: dict[tuple, tuple] = {}
        self.check_s = 0.0
        self.assemble_s: list[float] = []
        self.build_s: list[float] = []
        self.tracer = tracer
        self._pending = None

    def _rhs(self, fn):
        def probed(grid, k_op, shift, seed):
            exact, rhs = fn(grid, k_op, shift, seed)
            self._pending = ((grid.n, shift.alpha, shift.beta), exact)
            return exact, rhs
        return probed

    def _solve(self, fn):
        def probed(*args, **kwargs):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            x, report = fn(*args, **kwargs)
            solve_s = time.perf_counter() - start
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            check_start = time.perf_counter()
            with self.tracer.span("check") if self.tracer else nullcontext():
                if self._pending is not None:  # else the row fails as unrecorded
                    key, exact = self._pending
                    self._pending = None
                    self.records[key] = (solve_s, faults, forward_error(x, exact))
            self.check_s += time.perf_counter() - check_start
            return x, report
        return probed

    @staticmethod
    def _timed(fn, times: list[float]):
        def probed(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            times.append(time.perf_counter() - start)
            return out
        return probed

    def entries(self):
        """`patched` entries for the names `abslap.bench` looks up."""
        return [
            (bench, "generate_rhs", self._rhs),
            (bench, "minres_solve", self._solve),
            (bench, "assemble_laplacian_2d_constant", lambda fn: self._timed(fn, self.assemble_s)),
            (bench, "assemble_laplacian_2d_variable", lambda fn: self._timed(fn, self.assemble_s)),
            (bench, "build_ideal", lambda fn: self._timed(fn, self.build_s)),
            (bench, "build_averaged", lambda fn: self._timed(fn, self.build_s)),
        ]


def grade(row: bench.ReportRow, record, verify: bool) -> RowResult:
    """A row fails on any error, non-convergence, residual or forward-error miss,
    or a spectrum verdict other than `pass` where verification was asked for."""
    key = (row.n, row.alpha, row.beta)
    solve_s, faults, ferr = record if record is not None else (math.nan, 0, math.inf)
    result = RowResult(key, row.iterations, row.true_residual, ferr, solve_s, faults)
    checks = (
        (row.error is not None, f"error: {row.error}"),
        (not row.converged, "did not converge"),
        (not row.true_residual <= TRUE_RESIDUAL_FACTOR * TOL,
         f"true residual {row.true_residual:.3e} > {TRUE_RESIDUAL_FACTOR:g} tol"),
        (record is None, "no solve recorded"),
        (not ferr <= FORWARD_ERROR_FACTOR * TOL,
         f"forward error {ferr:.3e} > {FORWARD_ERROR_FACTOR:g} tol"),
        (row.spectrum_verdict == "fail", "spectrum verdict fail"),
        (verify and row.spectrum_verdict != "pass",
         f"spectrum verdict {row.spectrum_verdict}, expected pass"),
    )
    result.failures = [why for bad, why in checks if bad]
    return result


def run_once(workload: Workload, spec: bench.ExperimentSpec, probe: Probe,
             tracer: Tracer | None = None) -> Experiment:
    probe.reset(tracer)
    # the probe wraps outside the spans, so its check is no part of a solve span
    entries = (tracer.entries() if tracer else []) + probe.entries()
    with patched(entries):
        if tracer:
            tracer.row = None
        start = time.perf_counter()
        with tracer.span("bench.experiment") if tracer else nullcontext():
            rows = bench.run_experiment(spec)
        seconds = time.perf_counter() - start - probe.check_s
    verify = workload.verify_up_to >= workload.n
    graded = [grade(r, probe.records.get((r.n, r.alpha, r.beta)), verify) for r in rows]
    if len(graded) != len(spec.shifts) * len(spec.grid_sizes):
        graded.append(RowResult(("rows",), 0, math.inf, math.inf, math.nan, 0,
                                [f"{len(rows)} rows returned"]))
    # one grid per spec: its assembly is part of every row's set-up
    setup = [sum(probe.assemble_s) + b for b in probe.build_s]
    return Experiment(seconds, graded, setup, tracer is not None)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond).  With too few samples the
    minimum is returned with however many samples lie beyond it.
    """
    ordered = sorted(samples)
    k = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    pct = 100.0 * k / (len(ordered) - 1) if len(ordered) > 1 else 0.0
    return ordered[k], pct, len(ordered) - 1 - k


def dst_model(n: int) -> dict[str, float]:
    """Computed cost of one 2D DST-I on an n-by-n half vector.

    Each of the two axis passes runs n real FFTs of length N = 2(n+1)
    (2.5 N log2 N flops each) plus an n*n scaling.  Bytes: per pass the
    input is read (8 n^2), the odd extension written and read (2 * 8 n N),
    the half spectrum written and read (2 * 16 n (N/2 + 1)) and the output
    written (8 n^2).  Cache misses are ignored.
    """
    big_n = 2 * (n + 1)
    flops = 2 * (n * 2.5 * big_n * math.log2(big_n) + n * n)
    bytes_moved = 2 * (16 * n * n + 16 * n * big_n + 32 * n * (big_n // 2 + 1))
    return {"flops": flops, "bytes": bytes_moved}


@dataclass
class RunResult:
    workload: Workload
    experiments: list[Experiment]
    warmup: Experiment
    peak_rss_mb: float
    tracer: Tracer | None

    @property
    def rows(self) -> list[RowResult]:
        return [r for e in [self.warmup, *self.experiments] for r in e.rows]

    @property
    def failed(self) -> list[RowResult]:
        return [r for r in self.rows if r.failures]


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    """Warm up with one row, then loop experiments for `seconds`.

    With `trace`, experiments alternate untraced and traced so the run also
    measures the tracing overhead.  No experiment is started
    that the last one's duration says would end past the deadline (at least
    one of each kind always runs).
    """
    probe = Probe()
    warmup = run_once(workload, workload.spec(seed, 0, workload.shifts[:1]), probe)
    tracer = Tracer() if trace else None
    experiments: list[Experiment] = []
    deadline = time.perf_counter() + seconds
    while True:
        use_tracer = tracer if trace and len(experiments) % 2 == 1 else None
        start = time.perf_counter()
        exp = run_once(workload, workload.spec(seed, len(experiments) + 1), probe, use_tracer)
        experiments.append(exp)
        kinds = {e.traced for e in experiments}
        now = time.perf_counter()
        if len(kinds) == (2 if trace else 1) and now + (now - start) > deadline:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return RunResult(workload, experiments, warmup, peak, tracer)


def end_to_end(result: RunResult) -> tuple[dict, dict]:
    """The end-to-end metrics, plus notes on how they were taken."""
    timed = [e for e in result.experiments if not e.traced]
    solves = [r.solve_s for e in timed for r in e.rows]
    setups = [t for e in timed for t in e.setup_s]
    tail_s, pct, beyond = tail(solves)
    attempted = len(result.rows)
    metrics = {
        "experiment_s": (statistics.median(e.seconds for e in timed), "s"),
        "solve_s": (statistics.median(solves), "s"),
        "solve_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
        "success_rate": ((attempted - len(result.failed)) / attempted, "ratio"),
    }
    notes = {"solve_s_tail_percentile": pct, "solve_s_tail_beyond": beyond,
             "solve_samples": len(solves), "experiments": len(timed),
             "setup_samples": len(setups),
             "error_rate": len(result.failed) / attempted}
    return metrics, notes


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(result: RunResult) -> tuple[dict, dict]:
    """Per-layer metrics from the traced experiments, plus the solve split.

    Times and counts are per bench row (one shift: build, rhs, solve and
    verification), medians over the traced rows; `grid.assemble_s` and
    `bench.self_s` come from whole experiments.
    """
    spans = result.tracer.spans
    selfs = self_times(spans)
    rows: dict[int, dict[str, float]] = {}
    experiments = []
    for i, s in enumerate(spans):
        if s.name == "bench.experiment":
            experiments.append(i)
            continue
        if s.row is None or s.name == "check":
            continue
        acc = rows.setdefault(s.row, {})
        acc[s.name + ":self"] = acc.get(s.name + ":self", 0.0) + selfs[i]
        if s.parent is not None and spans[s.parent].name == s.name:
            continue  # nested call of the same layer: already inside the outer one
        acc[s.name + ":time"] = acc.get(s.name + ":time", 0.0) + s.duration
        acc[s.name + ":calls"] = acc.get(s.name + ":calls", 0) + 1

    def med(key):
        return _median(r.get(key, 0.0) for r in rows.values())

    shifts = len(result.workload.shifts)
    traced = [e for e in result.experiments if e.traced]
    untraced = [e for e in result.experiments if not e.traced]
    all_rows = result.rows
    model = dst_model(result.workload.n)
    metrics = {
        "dst.apply_s": (med("dst.apply:time"), "s"),
        "dst.calls": (med("dst.apply:calls"), "count"),
        "dst.share": (_median(r.get("dst.apply:time", 0.0) / r["minres.solve:time"]
                              for r in rows.values() if r.get("minres.solve:time")), "ratio"),
        "dst.flops_computed": (model["flops"], "flop"),
        "dst.bytes_computed": (model["bytes"], "B"),
        "dst.flops_per_byte_computed": (model["flops"] / model["bytes"], "flop/B"),
        "precond.apply_s": (med("precond.apply:time"), "s"),
        "precond.self_s": (med("precond.apply:self"), "s"),
        "precond.calls": (med("precond.apply:calls"), "count"),
        "precond.build_s": (med("precond.build:time"), "s"),
        "saddle.apply_s": (med("saddle.apply:time"), "s"),
        "saddle.self_s": (med("saddle.apply:self"), "s"),
        "saddle.calls": (med("saddle.apply:calls"), "count"),
        "grid.stencil_apply_s": (med("grid.stencil_apply:time"), "s"),
        "grid.stencil_calls": (med("grid.stencil_apply:calls"), "count"),
        "grid.assemble_s": (_median(s.duration for s in spans if s.name == "grid.assemble"), "s"),
        "minres.iterations": (_median(r.iterations for e in traced for r in e.rows), "count"),
        "minres.self_s": (med("minres.solve:self"), "s"),
        "minres.minor_faults": (_median(r.minor_faults for e in untraced for r in e.rows), "count"),
        "bench.rhs_s": (med("bench.rhs:self"), "s"),
        "bench.self_s": (_median(selfs[i] / shifts for i in experiments), "s"),
        "spectral.verify_s": (med("spectral.verify:time"), "s"),
        "spectral.dense_s": (med("spectral.dense:time"), "s"),
        "spectral.self_s": (med("spectral.verify:self"), "s"),
        "check.true_residual_max": (max(r.true_residual for r in all_rows), "ratio"),
        "check.forward_error_max": (max(r.forward_error for r in all_rows), "ratio"),
        "trace.overhead": (statistics.median(e.seconds for e in traced)
                           / statistics.median(e.seconds for e in untraced), "ratio"),
    }
    split = solve_split(spans)
    total = sum(split.values())
    notes = {"solve_split": {k: v / total for k, v in sorted(split.items())} if total else {},
             "traced_rows": len(rows)}
    return metrics, notes
