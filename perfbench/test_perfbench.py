"""Tests for the benchmark itself, on n=7 grids.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import abslap.bench as bench  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from tracing import Span, self_times, solve_split  # noqa: E402

TINY = harness.Workload("tiny", 7, "constant_one", "ideal")
TINY_CERT = harness.Workload("tiny_cert", 7, "example2_poly", "averaged", verify_up_to=7)
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("workload", [TINY, TINY_CERT])
def test_every_end_to_end_metric_is_reported_with_its_unit(workload):
    originals = [getattr(bench, name) for name in ("minres_solve", "build_ideal")]
    result = harness.measure(workload, seed=5, seconds=0.0, trace=False)
    metrics, notes = harness.end_to_end(result)
    assert {k: unit for k, (_, unit) in metrics.items()} == declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    assert notes["error_rate"] == 0.0 and not result.failed
    # set-up is taken from the closed loop: one sample per row
    assert notes["setup_samples"] == len(workload.shifts) * notes["experiments"]
    # the probe's wrappers are gone once the run ends
    assert [getattr(bench, name) for name in ("minres_solve", "build_ideal")] == originals


@pytest.mark.parametrize("workload", [TINY, TINY_CERT])
def test_every_per_layer_metric_is_reported_with_its_unit(workload):
    result = harness.measure(workload, seed=5, seconds=0.0, trace=True)
    metrics, notes = harness.per_layer(result)
    assert {k: unit for k, (_, unit) in metrics.items()} == declared("per_layer")
    assert metrics["minres.iterations"][0] == (2 if workload is TINY else 12)
    assert (metrics["spectral.verify_s"][0] > 0) == (workload is TINY_CERT)
    # the split covers the whole solve
    assert sum(notes["solve_split"].values()) == pytest.approx(1.0)


def test_printed_output_names_every_metric_and_ends_in_json(monkeypatch, capsys):
    monkeypatch.setitem(harness.WORKLOADS, "ideal_n1023", TINY)
    for var in run.BLAS_ENV:
        monkeypatch.setenv(var, "1")
    args = run.parse_args(["--workload", "ideal_n1023", "--seconds", "0"])
    assert run.run_workload(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    for name, unit in declared("end_to_end").items():
        assert last["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


def capture_inputs(monkeypatch):
    seen = []
    original = bench.generate_rhs

    def recording(*args, **kwargs):
        exact, rhs = original(*args, **kwargs)
        seen.append(exact.copy())
        return exact, rhs

    monkeypatch.setattr(bench, "generate_rhs", recording)
    return seen


def test_seed_changes_the_inputs_and_fixes_them(monkeypatch):
    seen = capture_inputs(monkeypatch)
    runs = []
    for seed in (1, 1, 2):
        seen.clear()
        harness.measure(TINY, seed=seed, seconds=0.0, trace=False)
        runs.append(list(seen))
    assert all((a == b).all() for a, b in zip(runs[0], runs[1]))
    assert not any((a == b).all() for a, b in zip(runs[0], runs[2]))


def test_wrong_solution_raises_error_rate(monkeypatch):
    original = bench.minres_solve

    def wrong(*args, **kwargs):
        x, report = original(*args, **kwargs)
        return x * (1.0 + 1e-4), report

    monkeypatch.setattr(bench, "minres_solve", wrong)
    result = harness.measure(TINY, seed=3, seconds=0.0, trace=False)
    metrics, notes = harness.end_to_end(result)
    assert notes["error_rate"] == 1.0
    assert metrics["success_rate"][0] == 0.0
    assert all(any("forward error" in why for why in r.failures) for r in result.failed)


def test_failed_verification_fails_the_row():
    row = bench.ReportRow(n=7, dof=98, alpha=1.0, beta=1.0, iterations=12,
                          wall_time=0.1, true_residual=1e-10, bound_iterations=40,
                          spectrum_verdict="skipped")
    record = (0.01, 0, 1e-10)
    assert not harness.grade(row, record, verify=False).failures
    assert harness.grade(row, record, verify=True).failures
    row.spectrum_verdict = "fail"
    assert harness.grade(row, record, verify=False).failures


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = harness.tail([float(i) for i in range(30)])
    assert (value, beyond) == (19.0, 10)
    assert pct == pytest.approx(100 * 19 / 29)


def test_self_time_subtracts_children_and_overlap_is_caught():
    spans = [Span("minres.solve", 0.0, 1.0, None, 0),
             Span("saddle.apply", 0.1, 0.4, 0, 0),
             Span("precond.apply", 0.5, 0.9, 0, 0),
             Span("dst.apply", 0.6, 0.8, 2, 0)]
    assert self_times(spans) == pytest.approx([0.3, 0.3, 0.2, 0.2])
    assert sum(solve_split(spans).values()) == pytest.approx(1.0)
    spans[2] = Span("precond.apply", 0.2, 0.99, 0, 0)
    with pytest.raises(AssertionError):
        solve_split(spans)


def test_dst_model_grows_like_n_squared_log_n():
    small, big = harness.dst_model(511), harness.dst_model(1023)
    ratio = big["flops"] / small["flops"]
    assert 4.0 < ratio < 4.0 * math.log2(2048) / math.log2(1024) + 0.1
