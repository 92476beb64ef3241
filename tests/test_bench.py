"""Benchmark harness: seeded streams, experiment sweeps, and report formats."""

import csv
import io
import json
import math

import numpy as np
import pytest

from abslap.bench import (
    CSV_HEADER,
    DEFAULT_CONSTANT_SHIFTS,
    DEFAULT_VARIABLE_SHIFTS,
    ExperimentSpec,
    RandomStream,
    ReportRow,
    all_clear,
    coefficient_from_spec,
    emit_report,
    generate_rhs,
    run_experiment,
)
from abslap.grid import GridSpec, assemble_laplacian_2d_constant
from abslap.oracle import dense_complex_solve
from abslap.saddle import Shift, apply_complex_shifted

GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
MASK = (1 << 64) - 1


def _splitmix_scalar(seed, counter):
    """Independent scalar reimplementation of the documented generator."""
    z = (seed + counter * GOLDEN) & MASK
    z = ((z ^ (z >> 30)) * MIX1) & MASK
    z = ((z ^ (z >> 27)) * MIX2) & MASK
    return (z ^ (z >> 31)) & MASK


def test_uniforms_match_scalar_reference():
    stream = RandomStream(20260822)
    got = stream.uniforms(8)
    expected = [((_splitmix_scalar(20260822, k) >> 11) + 0.5) * 2.0 ** -53
                for k in range(1, 9)]
    np.testing.assert_array_equal(got, expected)
    assert np.all((got > 0.0) & (got < 1.0))


def test_normals_are_box_muller_pairs():
    stream = RandomStream(5)
    normals = stream.normals(4)
    u1 = RandomStream(5).uniforms(2)
    check = RandomStream(5)
    check.uniforms(2)
    u2 = check.uniforms(2)
    radius = np.sqrt(-2.0 * np.log(u1))
    np.testing.assert_allclose(normals[0::2], radius * np.cos(2.0 * math.pi * u2), rtol=1e-15)
    np.testing.assert_allclose(normals[1::2], radius * np.sin(2.0 * math.pi * u2), rtol=1e-15)


def test_stream_determinism_and_seed_separation():
    a = RandomStream(99).normals(1000)
    b = RandomStream(99).normals(1000)
    np.testing.assert_array_equal(a, b)
    c = RandomStream(100).normals(1000)
    assert np.abs(a - c).max() > 1e-3

    # successive draws continue the stream rather than restarting it
    whole = RandomStream(7).uniforms(10)
    piecewise = RandomStream(7)
    np.testing.assert_array_equal(np.concatenate([piecewise.uniforms(4), piecewise.uniforms(6)]),
                                  whole)


def test_stream_moments():
    sample = RandomStream(123).normals(200_000)
    assert abs(sample.mean()) <= 0.01
    assert abs(sample.var() - 1.0) <= 0.02
    odd = RandomStream(3).normals(5)
    assert odd.shape == (5,)


def test_generate_rhs_deterministic_and_exact():
    grid = GridSpec(7, 2)
    k_op = assemble_laplacian_2d_constant(grid)
    shift = Shift(100.0, 100.0)
    exact1, rhs1 = generate_rhs(grid, k_op, shift, seed=11)
    exact2, rhs2 = generate_rhs(grid, k_op, shift, seed=11)
    np.testing.assert_array_equal(rhs1, rhs2)
    np.testing.assert_array_equal(exact1, exact2)

    residual = np.linalg.norm(apply_complex_shifted(k_op, shift, exact1) - rhs1)
    assert residual <= 1e-12 * np.linalg.norm(rhs1)

    _, rhs_other = generate_rhs(grid, k_op, shift, seed=12)
    assert np.abs(rhs1 - rhs_other).max() > 0.0


def test_solution_matches_exact_and_dense_reference():
    spec = ExperimentSpec(grid_sizes=(15,), shifts=((100.0, 100.0),),
                          coefficient="constant_one", preconditioner="ideal",
                          tol=1e-8)
    rows = run_experiment(spec)
    assert rows[0].converged

    # replay the row by hand to compare the solution vectors themselves
    from abslap.minres import SolverConfig, minres_solve
    from abslap.precond import build_ideal
    from abslap.saddle import SaddleOperator, real_to_complex, saddle_rhs
    from abslap.bench import _row_seed

    grid = GridSpec(15, 2)
    k_op = assemble_laplacian_2d_constant(grid)
    shift = Shift(100.0, 100.0)
    exact, rhs = generate_rhs(grid, k_op, shift, _row_seed(spec.seed, 0))
    op = SaddleOperator(k_op, shift)
    x, report = minres_solve(op.apply, build_ideal(grid, shift).apply_inverse,
                             saddle_rhs(rhs), SolverConfig(tol=1e-8, max_iter=100))
    assert report.iterations == rows[0].iterations
    solution = real_to_complex(x)
    assert np.linalg.norm(solution - exact) <= 1e-6 * np.linalg.norm(exact)
    reference = dense_complex_solve(k_op.dense(), shift, rhs)
    assert np.linalg.norm(solution - reference) <= 1e-6 * np.linalg.norm(reference)


def test_coefficient_name_mapping():
    assert coefficient_from_spec("constant_one").is_constant_one
    poly = coefficient_from_spec("example2_poly")
    assert (poly.a_min, poly.a_max) == (400.0, 441.0)

    # only the two named regimes exist; strings are never evaluated
    for unknown in ("2.0 + x1 * x2", "definitely_not_a_coefficient"):
        with pytest.raises(ValueError):
            coefficient_from_spec(unknown)


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(preconditioner="ideal", coefficient="example2_poly")
    with pytest.raises(ValueError):
        ExperimentSpec(preconditioner="cholesky")
    with pytest.raises(ValueError):
        ExperimentSpec(grid_sizes=(0,))
    with pytest.raises(ValueError):
        ExperimentSpec(shifts=((1.0, 2.0, 3.0),))


def test_constant_sweep_takes_two_iterations():
    spec = ExperimentSpec(grid_sizes=(7, 15), shifts=DEFAULT_CONSTANT_SHIFTS,
                          coefficient="constant_one", preconditioner="ideal",
                          verify_spectrum_up_to=7)
    rows = run_experiment(spec)
    assert len(rows) == 12
    assert all_clear(rows)
    for row in rows:
        assert row.error is None
        assert row.converged
        assert row.iterations == 2
        assert row.bound_iterations == 2
        assert row.dof == 2 * row.n * row.n
        assert row.true_residual <= 10.0 * spec.tol
        assert row.spectrum_verdict == ("pass" if row.n <= 7 else "skipped")


def test_variable_sweep_iterations_stay_flat():
    spec = ExperimentSpec(grid_sizes=(7, 15), shifts=((-600.0, 150.0), (1.0, -100.0)),
                          coefficient="example2_poly", preconditioner="averaged")
    rows = run_experiment(spec)
    assert all_clear(rows)
    by_shift = {}
    for row in rows:
        by_shift.setdefault((row.alpha, row.beta), []).append(row.iterations)
        assert row.bound_iterations is not None
        assert row.iterations <= row.bound_iterations
    for counts in by_shift.values():
        assert max(counts) - min(counts) <= 2


def test_row_error_is_recorded_and_run_continues():
    # shifting by exactly the negated single Laplacian eigenvalue of the
    # one-point grid makes the preconditioner singular; that row must fail
    # gracefully while the next row still runs
    from abslap.dst import laplacian_eigenvalues

    lam = float(laplacian_eigenvalues(GridSpec(1, 2))[0])
    spec = ExperimentSpec(grid_sizes=(1,), shifts=((-lam, 0.0), (100.0, 100.0)),
                          coefficient="constant_one", preconditioner="ideal")
    rows = run_experiment(spec)
    assert len(rows) == 2
    assert rows[0].error is not None
    assert not rows[0].converged
    assert rows[0].spectrum_verdict == "skipped"
    assert rows[1].error is None
    assert rows[1].converged
    assert not all_clear(rows)


def test_unpreconditioned_is_an_order_of_magnitude_slower():
    base = dict(grid_sizes=(31,), shifts=((100.0, 100.0),), coefficient="constant_one")
    fast = run_experiment(ExperimentSpec(preconditioner="averaged", **base))
    slow = run_experiment(ExperimentSpec(preconditioner="none", max_iter=2000, **base))
    assert fast[0].converged and slow[0].converged
    assert slow[0].iterations >= 10 * fast[0].iterations
    assert slow[0].bound_iterations is None


def test_run_is_deterministic_apart_from_timing():
    spec = ExperimentSpec(grid_sizes=(7, 15), shifts=((-100.0, -25.0),),
                          coefficient="example2_poly", preconditioner="averaged")
    first = run_experiment(spec)
    second = run_experiment(spec)
    for a, b in zip(first, second):
        assert (a.n, a.alpha, a.beta, a.iterations, a.converged) == \
            (b.n, b.alpha, b.beta, b.iterations, b.converged)
        assert a.true_residual == b.true_residual


def test_emit_json_round_trips():
    spec = ExperimentSpec(grid_sizes=(7,), shifts=((100.0, 100.0),),
                          coefficient="constant_one", preconditioner="ideal")
    rows = run_experiment(spec)
    payload = json.loads(emit_report(rows, "json"))
    assert isinstance(payload, list) and len(payload) == 1
    assert set(payload[0]) == {"n", "dof", "alpha", "beta", "iterations", "wall_time",
                               "true_residual", "bound_iterations", "spectrum_verdict"}
    assert payload[0]["iterations"] == 2


def test_emit_csv_schema():
    spec = ExperimentSpec(grid_sizes=(7,), shifts=((100.0, 100.0),),
                          coefficient="constant_one", preconditioner="ideal")
    rows = run_experiment(spec)
    text = emit_report(rows, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    parsed = list(csv.reader(io.StringIO(text)))
    assert len(parsed) == 2
    assert parsed[1][0] == "7"
    assert parsed[1][4] == "2"
    assert "." in parsed[1][6] and "," not in parsed[1][6]


def test_emit_text_table_layout():
    spec = ExperimentSpec(grid_sizes=(7, 15), shifts=((100.0, 100.0), (1.0, -100.0)),
                          coefficient="constant_one", preconditioner="ideal")
    rows = run_experiment(spec)
    table = emit_report(rows, "text_table")
    lines = table.strip().split("\n")
    assert "(100,100)" in lines[0] and "(1,-100)" in lines[0]
    assert "iter" in lines[1] and "time" in lines[1]
    assert len(lines) == 4  # two header lines plus one line per grid size
    assert lines[2].lstrip().startswith("7")
    assert lines[3].lstrip().startswith("15")


def test_emit_report_error_channels():
    with pytest.raises(ValueError):
        emit_report([], "yaml")
    failing = ReportRow(n=3, dof=18, alpha=1.0, beta=0.0, iterations=0, wall_time=0.0,
                        true_residual=math.inf, bound_iterations=None,
                        spectrum_verdict="skipped", converged=False, error="boom")
    payload = json.loads(emit_report([failing], "json"))
    assert payload[0]["error"] == "boom"
    table = emit_report([failing], "text_table")
    assert "err" in table
    csv_text = emit_report([failing], "csv")
    assert "inf" in csv_text


def test_all_clear_semantics():
    ok = ReportRow(n=3, dof=18, alpha=1.0, beta=1.0, iterations=2, wall_time=0.0,
                   true_residual=1e-10, bound_iterations=2, spectrum_verdict="pass")
    assert all_clear([ok])
    for broken in (
        ReportRow(n=3, dof=18, alpha=1.0, beta=1.0, iterations=2, wall_time=0.0,
                  true_residual=1e-10, bound_iterations=2, spectrum_verdict="fail"),
        ReportRow(n=3, dof=18, alpha=1.0, beta=1.0, iterations=2, wall_time=0.0,
                  true_residual=1e-10, bound_iterations=2, spectrum_verdict="pass",
                  converged=False),
        ReportRow(n=3, dof=18, alpha=1.0, beta=1.0, iterations=2, wall_time=0.0,
                  true_residual=1e-10, bound_iterations=2, spectrum_verdict="pass",
                  error="x"),
    ):
        assert not all_clear([ok, broken])


def test_default_shift_tables():
    assert len(DEFAULT_CONSTANT_SHIFTS) == 6
    assert len(DEFAULT_VARIABLE_SHIFTS) == 6
    assert (100.0, 100.0) in DEFAULT_CONSTANT_SHIFTS
    assert (-600.0, 150.0) in DEFAULT_VARIABLE_SHIFTS
