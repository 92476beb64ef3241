"""abslap benchmark: one workload per process, or all three in turn.

    python3 perfbench/run.py --workload ideal_n1023 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                      # every workload, each in its own process

Run from the root of a source checkout; the library is imported from
`src/`.  Every metric is printed as `name value unit`, and the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`).  A traced run also writes its spans, rows and machine
block to `.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ideal_n1023", "averaged_n511", "certify_n31")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_rev() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_block(workload, threads: int) -> dict:
    from importlib import metadata

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    m = workload.n ** 2
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "blas_threads": threads,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_rev": git_rev(),
        "arrays": {"n": workload.n, "unknowns_per_half": m,
                   "half_vector_bytes": 8 * m, "stacked_vector_bytes": 16 * m,
                   "complex_vector_bytes": 16 * m},
    }


def run_workload(args) -> int:
    threads = len(os.sched_getaffinity(0))  # numpy's default: every core
    for var in BLAS_ENV:  # before numpy loads its BLAS
        os.environ[var] = str(threads)
    if not (ROOT / "src" / "abslap").is_dir():
        print(f"perfbench: no abslap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    workload = harness.WORKLOADS[args.workload]
    result = harness.measure(workload, args.seed, args.seconds, bool(args.trace))
    machine = machine_block(workload, threads)
    if args.trace:
        metrics, notes = harness.per_layer(result)
    else:
        metrics, notes = harness.end_to_end(result)

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("notes " + json.dumps(notes, sort_keys=True))
    for row in result.failed:
        print(f"FAILED row {row.key}: {'; '.join(row.failures)}")
    if args.trace:
        write_trace(result, machine, metrics, notes, args)

    print(json.dumps({
        "correct": not result.failed,
        "attempted": len(result.rows),
        "failed": len(result.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def write_trace(result, machine, metrics, notes, args) -> None:
    out = ROOT / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"trace-{result.workload.name}-seed{args.seed}.json"
    payload = {
        "machine": machine, "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rows": [vars(r) for r in result.rows],
        "span_fields": ["name", "start", "end", "parent", "row"],
        "spans": [[s.name, s.start, s.end, s.parent, s.row] for s in result.tracer.spans],
    }
    path.write_text(json.dumps(payload, default=str) + "\n")
    print(f"trace written to {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    if status:
        return status
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
