"""Benchmark harness: seeded streams, experiment sweeps, and report formats."""

import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest

from abslap import spectral
from abslap.bench import (
    COEFFICIENT_NAMES,
    CSV_HEADER,
    DEFAULT_CONSTANT_SHIFTS,
    DEFAULT_VARIABLE_SHIFTS,
    ExperimentSpec,
    RandomStream,
    ReportRow,
    all_clear,
    certify,
    coefficient_from_spec,
    emit_certificates,
    emit_report,
    generate_rhs,
    run_experiment,
)
from abslap.grid import (GridSpec, assemble_laplacian_2d_constant,
                         assemble_laplacian_2d_variable, separable_quadratic_coefficient)
from abslap.oracle import dense_complex_solve
from abslap.saddle import SaddleOperator, Shift, saddle_rhs

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

    # raw bits continue the same counter sequence, across the full 64-bit range
    for seed in (0, 20260822, MASK):
        stream = RandomStream(seed)
        stream.uniforms(3)
        bits = stream.bits(5)
        assert bits.dtype == np.uint64
        assert bits.tolist() == [_splitmix_scalar(seed, k) for k in range(4, 9)]


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


def _normals_reference(seed, count, skip=0):
    """count normals by the whole-array Box-Muller formula, after skip draws."""
    pairs = (count + 1) // 2
    stream = RandomStream(seed)
    stream.bits(skip)
    u = stream.uniforms(2 * pairs)
    radius = np.sqrt(-2.0 * np.log(u[:pairs]))
    angle = 2.0 * math.pi * u[pairs:]
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


@pytest.mark.parametrize("block_bytes", [None, 8 * 8 * 3])
def test_normals_out_matches_the_whole_array_formula(monkeypatch, block_bytes):
    from abslap import grid as grid_module

    if block_bytes is not None:
        monkeypatch.setattr(grid_module, "BLOCK_BYTES", block_bytes)
    pairs = grid_module.BLOCK_BYTES // (8 * 8)  # Box-Muller pairs per chunk
    counts = {0, 1, 2, 7, 4 * pairs + 1}
    counts |= {2 * p + odd for p in (pairs - 1, pairs, pairs + 1) for odd in (0, 1)}
    for count in sorted(counts):
        expected = _normals_reference(77, count)
        assert RandomStream(77).normals(count).tobytes() == expected.tobytes()
        out = np.full(count, np.nan)
        stream = RandomStream(77)
        assert stream.normals(count, out=out) is out
        assert out.tobytes() == expected.tobytes()
        # the stream moved past whole pairs, as the formula draws them
        skip = 2 * ((count + 1) // 2)
        assert stream.bits(2).tolist() == RandomStream(77).bits(skip + 2)[skip:].tolist()

        # two successive draws into the halves of one buffer
        stacked = np.full(2 * count, np.nan)
        stream = RandomStream(78)
        stream.normals(count, out=stacked[:count])
        stream.normals(count, out=stacked[count:])
        halves = np.concatenate([_normals_reference(78, count),
                                 _normals_reference(78, count, skip)])
        assert stacked.tobytes() == halves.tobytes()


def test_bad_draws_are_refused_before_the_stream_moves():
    untouched = RandomStream(1).bits(3).tolist()
    for draw, args, kwargs in (("bits", (-5,), {}), ("uniforms", (-1,), {}),
                               ("normals", (-3,), {}),
                               ("normals", (5,), {"out": np.empty(4)}),
                               ("normals", (5,), {"out": np.empty(5, np.float32)}),
                               ("normals", (5,), {"out": [0.0] * 5})):
        stream = RandomStream(1)
        with pytest.raises(ValueError, match="nonnegative" if args[0] < 0 else "out"):
            getattr(stream, draw)(*args, **kwargs)
        assert stream.bits(3).tolist() == untouched


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

    # the dense complex product does not go through the stencil apply
    shifted = k_op.dense() + (shift.alpha + 1j * shift.beta) * np.eye(grid.m)
    residual = np.linalg.norm(shifted @ exact1 - rhs1)
    assert residual <= 1e-12 * np.linalg.norm(rhs1)
    # f is unstacked from one block apply on (Re z; Im z), bit for bit
    stacked = np.concatenate([exact1.real, exact1.imag])
    np.testing.assert_array_equal(saddle_rhs(rhs1), SaddleOperator(k_op, shift).apply(stacked))

    _, rhs_other = generate_rhs(grid, k_op, shift, seed=12)
    assert np.abs(rhs1 - rhs_other).max() > 0.0


@pytest.mark.parametrize("coefficient, alpha, beta, entries, total", [
    ("constant_one", 100.0, 100.0,
     {0: ("0x1.11e152f31010dp+9", "-0x1.95dfaf2165686p+6"),
      24: ("-0x1.d3660e5b218ccp+6", "-0x1.2549d72d29136p+6"),
      48: ("-0x1.fc1e742a7ca70p+6", "-0x1.10da94afbe2bbp+8")},
     ("0x1.1e31294889e85p+9", "-0x1.ef60180a23d9fp+8")),
    ("example2_poly", -600.0, 150.0,
     {0: ("0x1.0c879aa6f8669p+17", "-0x1.0de814b692e83p+16"),
      24: ("-0x1.650a46049c02dp+15", "-0x1.b2f2655f320f9p+14"),
      48: ("-0x1.04c6d59f0b888p+16", "-0x1.23e417f21965bp+16")},
     ("0x1.67547de597acap+16", "-0x1.4e2b71c5e063ep+15")),
])
def test_generate_rhs_golden_bits(coefficient, alpha, beta, entries, total):
    # the right-hand side at n=7, seed 11, bit for bit as float.hex strings
    grid = GridSpec(7, 2)
    if coefficient == "constant_one":
        k_op = assemble_laplacian_2d_constant(grid)
    else:
        k_op = assemble_laplacian_2d_variable(grid, separable_quadratic_coefficient())
    _, rhs = generate_rhs(grid, k_op, Shift(alpha, beta), seed=11)
    for index, (real, imag) in entries.items():
        assert (rhs[index].real.hex(), rhs[index].imag.hex()) == (real, imag)
    assert (rhs.sum().real.hex(), rhs.sum().imag.hex()) == total


# n: sha256 of exact's bytes, then of f's bytes over each default shift in
# order, for constant_one and for example2_poly; seed 20261020.  Recorded
# from whole-array draws and the concatenated block right-hand side.
# Recorded with numpy 2.4.6 on an x86-64 CPU with AVX-512, where numpy's
# float64 log runs its AVX-512 kernel.  The normals' last bits follow
# numpy's build and the CPU's SIMD level, so these pins hold only there; CI
# also runs the suite without those kernels, minus the bit pins.
RHS_PINS = {
    1: ("1e3810968f4f7c1b551524a4530c16e757a204dc468f134024fd52b62922aac2",
        "18a48f7a2c4b5de10627b85ec5b923cf9753ce0a82a948d0232467139e2dd350",
        "4ff51beaab97a41670ff6ecbc3f52d0e069090f03a99d2bac721259d17e88ac8"),
    3: ("aa24b8ff52687d8470bdd30f8d08e9d87bd766d58b4eea54717956ed15f22ccc",
        "11efe13b045b2454f84ad2a3b17e2a1c20d7dd00d4eb53422a7c28adb2398b05",
        "62aa2185e0547e6865817313c5673c65e4cf5f9970d4418020bcc487f5a62351"),
    15: ("b56ffe37f7b15d3bbe3c83c2336ad96127eb200b06bcf9b8d7816929b219a33e",
         "07ac804b32a57daa669d251f1567ef7eb44f1d3d1547e56abd86d02d9c6daa39",
         "03933930d5925addf9b14d0cf82648213e73c7ae6d4759b8b30247416c61be91"),
    63: ("ef7460d32abb8216558ea3e21ed8f351a938073e8ca83f405226a562798bf0cb",
         "637139ea40d75530e5a2737317bab75917e217c12f6a46f4bfd35ffd08b450fd",
         "4e56b19abaf37b8df542e44fc1a400844454a80c5c7fb71184f17e6213ce1e9b"),
    255: ("0ed7606e35ffc04dd0d0ffba2a720b1fde8ea0a8c4b16300732a1dc43eae9d26",
          "0874c6e594b4a97b799e659b8568f6b2d9963d077acce3e948586b289ac49314",
          "78701c155735ca40fa37c3ea5d7f965a439d132d5b4c0d5d4b1fa7ff3a3145ff"),
}


@pytest.mark.parametrize("n", sorted(RHS_PINS))
def test_generate_rhs_pinned_bits(n):
    grid = GridSpec(n, 2)
    exact_sha, *f_shas = RHS_PINS[n]
    for name, f_sha in zip(COEFFICIENT_NAMES, f_shas):
        spec = ExperimentSpec(grid_sizes=(n,), coefficient=name)
        field = coefficient_from_spec(name)
        if field.is_constant_one:
            k_op = assemble_laplacian_2d_constant(grid)
        else:
            k_op = assemble_laplacian_2d_variable(grid, field)
        digest = hashlib.sha256()
        for alpha, beta in spec.shifts:
            exact, f = generate_rhs(grid, k_op, Shift(alpha, beta), seed=20261020)
            assert hashlib.sha256(exact.tobytes()).hexdigest() == exact_sha
            digest.update(f.tobytes())
        assert digest.hexdigest() == f_sha


def test_solution_matches_exact_and_dense_reference():
    spec = ExperimentSpec(grid_sizes=(15,), shifts=((100.0, 100.0),),
                          coefficient="constant_one", preconditioner="ideal",
                          tol=1e-8)
    rows = run_experiment(spec)
    assert rows[0].converged

    # replay the row through the same solve to compare the solution vectors
    from abslap.bench import solve_shifted
    from abslap.minres import SolverConfig
    from abslap.precond import build_ideal
    from abslap.saddle import real_to_complex

    grid = GridSpec(15, 2)
    k_op = assemble_laplacian_2d_constant(grid)
    shift = Shift(100.0, 100.0)
    row_seed = int(RandomStream(spec.seed).bits(1)[0])
    exact, rhs = generate_rhs(grid, k_op, shift, row_seed)
    x, report = solve_shifted(k_op, shift, build_ideal(grid, shift), rhs,
                              SolverConfig(tol=1e-8, max_iter=100))
    assert report.iterations == rows[0].iterations
    solution = real_to_complex(x)
    assert np.linalg.norm(solution - exact) <= 1e-6 * np.linalg.norm(exact)
    reference = dense_complex_solve(k_op.dense(), shift, rhs)
    assert np.linalg.norm(solution - reference) <= 1e-6 * np.linalg.norm(reference)


@pytest.mark.parametrize("coefficient, preconditioner", [
    ("constant_one", "ideal"), ("example2_poly", "averaged")])
def test_row_frees_solution_and_rhs_before_the_preconditioner(
        monkeypatch, coefficient, preconditioner):
    # On large grids the next row's build reuses what this row frees; with
    # the preconditioner's weights freed first, it faults in fresh pages.
    # f dies once the block right-hand side is made, before the solve.
    import weakref

    from abslap import bench

    freed = []
    original_build = getattr(bench, f"build_{preconditioner}")
    original_rhs, original_solve = bench.generate_rhs, bench.minres_solve

    def solve(*args, **kwargs):
        x, report = original_solve(*args, **kwargs)
        weakref.finalize(x, freed.append, "x")
        return x, report

    def rhs(*args):
        exact, f = original_rhs(*args)
        weakref.finalize(f, freed.append, "f")
        return exact, f

    def build(*args):
        p = original_build(*args)
        weakref.finalize(p.weights, freed.append, "weights")
        return p

    monkeypatch.setattr(bench, f"build_{preconditioner}", build)
    monkeypatch.setattr(bench, "generate_rhs", rhs)
    monkeypatch.setattr(bench, "minres_solve", solve)
    run_experiment(ExperimentSpec(grid_sizes=(7,), shifts=((100.0, -100.0),),
                                  coefficient=coefficient, preconditioner=preconditioner))
    assert freed == ["f", "x", "weights"]


def test_coefficient_name_mapping():
    assert coefficient_from_spec("constant_one").is_constant_one
    poly = coefficient_from_spec("example2_poly")
    assert (poly.a_min, poly.a_max) == (400.0, 441.0)

    # only the two named regimes exist; strings are never evaluated, and a
    # name that is not a string is refused with the same error
    for unknown in ("2.0 + x1 * x2", "definitely_not_a_coefficient", ["constant_one"]):
        with pytest.raises(ValueError):
            coefficient_from_spec(unknown)


def test_experiment_spec_defaults_follow_the_coefficient():
    spec = ExperimentSpec()
    assert (spec.coefficient, spec.shifts, spec.preconditioner) == \
        ("constant_one", DEFAULT_CONSTANT_SHIFTS, "ideal")
    assert spec == ExperimentSpec(shifts=DEFAULT_CONSTANT_SHIFTS, preconditioner="ideal")
    variable = ExperimentSpec(coefficient="example2_poly")
    assert (variable.shifts, variable.preconditioner) == (DEFAULT_VARIABLE_SHIFTS, "averaged")
    # each field resolves on its own; a given value is kept
    assert ExperimentSpec(coefficient="example2_poly",
                          preconditioner="none").shifts == DEFAULT_VARIABLE_SHIFTS
    assert ExperimentSpec(coefficient="example2_poly",
                          shifts=((1.0, 2.0),)).preconditioner == "averaged"
    assert ExperimentSpec(preconditioner="averaged").shifts == DEFAULT_CONSTANT_SHIFTS


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(preconditioner="ideal", coefficient="example2_poly")
    with pytest.raises(ValueError):
        ExperimentSpec(preconditioner="cholesky")
    with pytest.raises(ValueError):
        ExperimentSpec(coefficient="nope", preconditioner="averaged")
    with pytest.raises(ValueError):
        ExperimentSpec(grid_sizes=(0,))
    # GridSpec refuses a float grid size before any row runs
    with pytest.raises(ValueError, match="must be an integer"):
        ExperimentSpec(grid_sizes=(3.0,))
    with pytest.raises(ValueError):
        ExperimentSpec(shifts=((1.0, 2.0, 3.0),))
    # shifts are checked by Shift when the spec is made
    for pair in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            ExperimentSpec(shifts=(pair,))
    # tol and max_iter are checked by SolverConfig when the spec is made
    for tol, max_iter in ((0.0, 10), (1.0, 10), (2.0, 10), (1e-8, 0), (1e-8, -1)):
        with pytest.raises(ValueError):
            ExperimentSpec(tol=tol, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        ExperimentSpec(grid_sizes=(7,), max_iter=2.5)
    # seed and verify_spectrum_up_to must be integers, checked when the spec is made
    for seed in ("abc", 1.5, None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ExperimentSpec(grid_sizes=(7,), seed=seed)
    for up_to in (None, "31", 7.5):
        with pytest.raises(ValueError, match="verify_spectrum_up_to must be an integer"):
            ExperimentSpec(grid_sizes=(7,), verify_spectrum_up_to=up_to)
    ExperimentSpec(grid_sizes=(7,), seed=np.uint64(3), verify_spectrum_up_to=np.int64(7))
    # the text table keys rows by (n, alpha, beta), so a repeated grid size,
    # or a shift repeated by value, would show two rows as one
    with pytest.raises(ValueError, match="grid sizes must not repeat"):
        ExperimentSpec(grid_sizes=(7, 15, 7))
    for shifts in (((100.0, 100.0), (100, 100)), ((0.0, 1.0), (-0.0, 1.0))):
        with pytest.raises(ValueError, match="shifts must not repeat"):
            ExperimentSpec(shifts=shifts)
    # the same alpha or the same beta in two different shifts is fine
    ExperimentSpec(grid_sizes=(7, 15), shifts=((100.0, 100.0), (100.0, -100.0)))


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


def _count_block_builds(monkeypatch) -> list:
    """The grid size of every W_b K_b W_b the certificate layer builds from now on."""
    built = []
    wkw_block = spectral._wkw_block

    def counting(k_op, *args):
        built.append(k_op.grid.n)
        return wkw_block(k_op, *args)

    monkeypatch.setattr(spectral, "_wkw_block", counting)
    return built


def test_a_grid_builds_its_certificate_blocks_once_for_all_its_rows(monkeypatch):
    # two blocks for n=7 shared by its six verified rows; n=15 is above the
    # verification limit and without a preconditioner nothing is verified
    built = _count_block_builds(monkeypatch)
    spec = ExperimentSpec(grid_sizes=(7, 15), coefficient="example2_poly",
                          verify_spectrum_up_to=7)
    rows = run_experiment(spec)
    assert len(spec.shifts) == 6 and all_clear(rows)
    assert [r.spectrum_verdict for r in rows] == ["pass"] * 6 + ["skipped"] * 6
    assert built == [7, 7]
    built.clear()
    rows = run_experiment(ExperimentSpec(grid_sizes=(7, 15), coefficient="example2_poly",
                                         preconditioner="none", verify_spectrum_up_to=7))
    assert [r.spectrum_verdict for r in rows] == ["skipped"] * 12
    assert built == []


def test_certify_builds_its_blocks_once_per_grid(monkeypatch):
    built = _count_block_builds(monkeypatch)
    certs = certify(ExperimentSpec(grid_sizes=(3, 7), coefficient="example2_poly"))
    assert len(certs) == 12
    assert built == [3, 3, 7, 7]


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
    from abslap.grid import laplacian_eigenvalues

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


def test_true_residual_past_the_tolerance_is_a_row_error(monkeypatch):
    # a solve that reports convergence while its true residual is far above
    # the tolerance is an error, not a converged row
    from abslap import bench
    from abslap.minres import SolveReport

    def false_success(apply_a, apply_pinv, rhs, config, basis=None):
        return np.zeros_like(rhs), SolveReport(1, True, np.array([1.0, 0.0]), 1.0)

    monkeypatch.setattr(bench, "minres_solve", false_success)
    rows = run_experiment(ExperimentSpec(grid_sizes=(3,), shifts=((100.0, 100.0),)))
    assert rows[0].converged
    assert "true residual 1.000e+00 exceeds ten times the tolerance" in rows[0].error
    assert not all_clear(rows)


def test_overflowing_preconditioner_is_a_row_error():
    # (gamma lam + alpha)^2 or beta^2 past float64 would make P^-1 zero and
    # the solve a false success at x = 0; the row errors instead
    spec = ExperimentSpec(grid_sizes=(7,), shifts=((1e200, 1.0), (1.0, 1e200), (100.0, 100.0)))
    rows = run_experiment(spec)
    assert [row.error is None for row in rows] == [False, False, True]
    for row in rows[:2]:
        assert "overflow" in row.error
        assert not row.converged
    assert rows[2].converged


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
                               "true_residual", "bound_iterations", "spectrum_verdict",
                               "converged"}
    assert payload[0]["iterations"] == 2
    assert payload[0]["converged"] is True


def test_emit_json_flags_a_row_that_did_not_converge():
    # two unpreconditioned steps leave a residual of about 0.23 and raise no
    # error, so only `converged` tells the row from a success
    spec = ExperimentSpec(grid_sizes=(3,), shifts=((100.0, 1.0),), preconditioner="none",
                          max_iter=2)
    rows = run_experiment(spec)
    payload = json.loads(emit_report(rows, "json"))
    assert payload[0]["converged"] is False and "error" not in payload[0]
    assert payload[0]["true_residual"] > 0.1


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


def _table_rows(sizes, shifts):
    """Fixed rows over sizes x shifts: a non-converged third shift, an error
    in the fifth shift's last row and no row for the sixth shift's last."""
    rows = []
    for n in sizes:
        for k, (a, b) in enumerate(shifts):
            if (n, k) == (sizes[-1], 5):
                continue
            rows.append(ReportRow(n=n, dof=2 * n * n, alpha=a, beta=b, iterations=12 + k,
                                  wall_time=0.0125 * (k + 1), true_residual=1e-9,
                                  bound_iterations=None, spectrum_verdict="skipped",
                                  converged=k != 2, error="boom" if (n, k) == (sizes[-1], 4) else None))
    return rows


def test_text_table_columns_fit_the_longest_head():
    # the default shifts keep 16-character columns, byte for byte
    assert emit_report(_table_rows((7, 15), DEFAULT_VARIABLE_SHIFTS), "text_table") == (
        "                  (-600,150)      (-100,-25)      (100,-100)      (-100,100)"
        "        (-100,1)        (1,-100)\n"
        "    n    dof  iter      time  iter      time  iter      time  iter      time"
        "  iter      time  iter      time\n"
        "    7     98    12     0.013    13     0.025   14*     0.038    15     0.050"
        "    16     0.062    17     0.075\n"
        "   15    450    12     0.013    13     0.025   14*     0.038    15     0.050"
        "   err         -     -         -\n")
    # a 23-character head widens every column to 24, with a space before each
    # head, and each head ends over its iter/time pair
    shifts = ((0.1 + 0.2, 1.0), (1.0, 123456.789012), (1.0, 2.0), (3.0, 4.0), (5.0, 6.0),
              (7.0, 8.0))
    lines = emit_report(_table_rows((3, 7), shifts), "text_table").rstrip("\n").split("\n")
    assert lines[0].split() == ["(0.30000000000000004,1)", "(1,123456.789012)", "(1,2)",
                                "(3,4)", "(5,6)", "(7,8)"]
    assert {len(line) for line in lines} == {12 + 6 * 24}
    for k in range(6):
        column = [line[12 + 24 * k:12 + 24 * (k + 1)] for line in lines]
        assert column[0][0] == " " and column[0].strip().startswith("(")
        assert column[1] == f"{'iter':>14}{'time':>10}"
        assert column[2].split() == [str(12 + k) + ("*" if k == 2 else ""),
                                     f"{0.0125 * (k + 1):.3f}"]
    assert lines[3][12 + 24 * 4:].split() == ["err", "-", "-", "-"]


def test_distinct_shifts_print_as_distinct_rows_and_columns():
    # :g keeps six significant digits, which printed these two shifts alike
    spec = ExperimentSpec(grid_sizes=(3,), shifts=((1.0, 1.0), (1.0000001, 1.0)))
    rows = run_experiment(spec)
    parsed = list(csv.reader(io.StringIO(emit_report(rows, "csv"))))[1:]
    assert [row[:4] for row in parsed] == [["3", "18", "1", "1"], ["3", "18", "1.0000001", "1"]]
    head = emit_report(rows, "text_table").split("\n")[0].split()
    assert head == ["(1,1)", "(1.0000001,1)"]
    certs = list(csv.reader(io.StringIO(emit_certificates(certify(spec), "csv"))))[1:]
    assert [row[:3] for row in certs] == [["3", "1", "1"], ["3", "1.0000001", "1"]]


def test_emit_report_error_channels():
    with pytest.raises(ValueError):
        emit_report([], "yaml")
    failing = ReportRow(n=3, dof=18, alpha=1.0, beta=0.0, iterations=0, wall_time=0.0,
                        true_residual=math.inf, bound_iterations=None,
                        spectrum_verdict="skipped", converged=False, error="boom")
    # strict JSON: Infinity and NaN are not JSON, a non-finite residual is null
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    payload = json.loads(emit_report([failing], "json"), parse_constant=reject)
    assert payload[0]["error"] == "boom"
    assert payload[0]["true_residual"] is None
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


@pytest.mark.parametrize("coefficient, preconditioner, sizes, transforms", [
    ("constant_one", "ideal", (63, 127), lambda iterations: 2),
    ("constant_one", "averaged", (63,), lambda iterations: 2),
    ("example2_poly", "averaged", (63,), lambda iterations: 2 * (iterations + 1)),
])
def test_each_row_makes_one_solve_call_that_returns_the_solution(
        monkeypatch, coefficient, preconditioner, sizes, transforms):
    # The benchmark wraps bench.minres_solve by name, times that call as the
    # solve and takes the forward error of what it returns, so each row makes
    # one such call, and every transform of the solve happens inside it.
    # Constant-coefficient rows run in the sine basis: one transform of the
    # right-hand side and one of the solution.  Others make two per P^-1.
    from abslap import bench
    from abslap.dst import SineTransform
    from abslap.saddle import real_to_complex

    exact_solutions, solves, transform_calls = [], [], [0]
    original_rhs, original_solve = bench.generate_rhs, bench.minres_solve
    original_apply = SineTransform.apply

    def recording_rhs(*args):
        exact, rhs = original_rhs(*args)
        exact_solutions.append(exact)
        return exact, rhs

    def recording_solve(*args, **kwargs):
        before = transform_calls[0]
        x, report = original_solve(*args, **kwargs)
        solves.append((x, report, transform_calls[0] - before))
        return x, report

    def counting_apply(self, v, out=None):
        transform_calls[0] += 1
        return original_apply(self, v, out=out)

    monkeypatch.setattr(bench, "generate_rhs", recording_rhs)
    monkeypatch.setattr(bench, "minres_solve", recording_solve)
    monkeypatch.setattr(SineTransform, "apply", counting_apply)
    shifts = DEFAULT_CONSTANT_SHIFTS if coefficient == "constant_one" else DEFAULT_VARIABLE_SHIFTS
    spec = ExperimentSpec(grid_sizes=sizes, shifts=shifts, coefficient=coefficient,
                          preconditioner=preconditioner, tol=1e-8)
    rows = run_experiment(spec)
    assert len(rows) == len(solves) == len(exact_solutions) == len(sizes) * len(shifts)
    for row, exact, (x, report, calls) in zip(rows, exact_solutions, solves):
        assert row.error is None and row.converged
        assert row.iterations == report.iterations
        error = np.linalg.norm(real_to_complex(x) - exact) / np.linalg.norm(exact)
        assert error <= 100.0 * spec.tol
        assert calls == transforms(report.iterations)
