"""End-to-end checks of the command line front end via main(argv)."""

import json

import pytest

from abslap import bench, cli
from abslap.bench import CSV_HEADER, DEFAULT_CONSTANT_SHIFTS, DEFAULT_VARIABLE_SHIFTS
from abslap.cli import main


def test_solve_json_two_iterations(capsys):
    code = main(["solve", "--n", "15", "--alpha", "100", "--beta", "100",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload) == 1
    assert payload[0]["n"] == 15
    assert payload[0]["iterations"] == 2
    assert payload[0]["bound_iterations"] == 2


def test_solve_without_shift_uses_first_default(capsys):
    for coef, defaults in (("const", DEFAULT_CONSTANT_SHIFTS), ("example2", DEFAULT_VARIABLE_SHIFTS)):
        code = main(["solve", "--coef", coef, "--n", "15", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [(row["n"], row["alpha"], row["beta"]) for row in payload] == [(15, *defaults[0])]


def test_solve_verification_above_cap_is_skipped(capsys):
    # dense verification stops at n=31; a larger converged row is not an error
    code = main(["solve", "--n", "63", "--alpha", "100", "--beta", "100",
                 "--verify-spectrum-up-to", "63", "--format", "json"])
    row = json.loads(capsys.readouterr().out)[0]
    assert code == 0
    assert "error" not in row
    assert row["iterations"] == 2
    assert row["spectrum_verdict"] == "skipped"
    assert row["wall_time"] > 0.0


def test_solve_default_format_is_text_table(capsys):
    code = main(["solve", "--n", "7", "--alpha", "1", "--beta", "-100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(1,-100)" in out
    assert "iter" in out


def test_bench_csv_to_file(tmp_path):
    target = tmp_path / "sweep.csv"
    code = main(["bench", "--n", "7,15", "--alpha", "100", "--beta", "100",
                 "--format", "csv", "--out", str(target)])
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("7,98,100,100,2,")
    assert lines[2].startswith("15,450,100,100,2,")


def test_bench_variable_defaults(capsys):
    code = main(["bench", "--coef", "example2", "--n", "7", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [(row["alpha"], row["beta"]) for row in payload] == list(DEFAULT_VARIABLE_SHIFTS)
    assert all(row["iterations"] <= 20 for row in payload)


def test_bench_none_preconditioner_runs(capsys):
    code = main(["bench", "--n", "7", "--alpha", "100", "--beta", "100",
                 "--precond", "none", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload[0]["bound_iterations"] is None
    assert payload[0]["iterations"] > 2


def test_verify_json_certificates(capsys):
    code = main(["verify", "--coef", "example2", "--n", "3,7",
                 "--alpha=-600,1", "--beta=150,-100"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload) == 4
    for cert in payload:
        assert set(cert) == {"grid", "alpha", "beta", "branch", "certified",
                             "mu_bounds", "eigenvalue_extremes", "all_inside",
                             "max_violation"}
        assert cert["certified"] is True
        assert cert["all_inside"] is True
        assert cert["mu_bounds"]["inner"] < 1.0 < cert["mu_bounds"]["outer"]


def test_verify_csv_format(capsys):
    code = main(["verify", "--n", "3", "--alpha", "100", "--beta", "100",
                 "--format", "csv"])
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "n,alpha,beta,branch,certified,mu_inner,mu_outer,all_inside,max_violation"
    assert lines[1].startswith("3,100,100,")


def test_verify_uncertified_rows_do_not_fail_exit_code(capsys):
    # constant coefficient at alpha = -100, beta = 1 violates the sign
    # conditions, but exactness still certifies the row; exit stays 0
    code = main(["verify", "--n", "3", "--alpha", "-100", "--beta", "1",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload[0]["branch"] == "assumptions_violated"
    assert payload[0]["certified"] is True
    assert payload[0]["all_inside"] is True


def test_verify_above_cap_is_a_usage_error(capsys, monkeypatch):
    # dense verification stops at n=31; larger sizes are refused before any
    # certificate runs, the n=7 one included
    def no_run(*args, **kwargs):
        raise AssertionError("ran a certificate")

    monkeypatch.setattr(bench, "verify_spectrum", no_run)
    with pytest.raises(SystemExit) as err:
        main(["verify", "--n", "7,63"])
    assert err.value.code == 2
    assert "n=31" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--coef", "example2", "--precond", "ideal"], "ideal preconditioner"),
    (["solve", "--n", "7", "--tol", "2"], "tol must lie in (0, 1)"),
    (["bench", "--n", "7", "--tol", "0"], "tol must lie in (0, 1)"),
    (["bench", "--n", "7", "--max-iter", "0"], "max_iter must be positive"),
    (["bench", "--n", "7,7"], "grid sizes must not repeat"),
    (["bench", "--n", "7", "--alpha", "100,100", "--beta", "100,100"], "shifts must not repeat"),
], ids=["ideal-example2", "tol-2", "tol-0", "max-iter-0", "repeated-n", "repeated-shift"])
def test_invalid_spec_is_a_usage_error(capsys, argv, message):
    # refused before any row runs: exit 2 and a usage message, no traceback
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "usage:" in captured.err


def test_verify_json_is_strict(capsys):
    # a zero denominator makes the tilde outer bound infinite: it is null,
    # since Infinity is not JSON
    from abslap.bench import coefficient_from_spec
    from abslap.grid import GridSpec, smallest_laplacian_eigenvalue

    gamma = coefficient_from_spec("example2_poly").gamma
    alpha = -(smallest_laplacian_eigenvalue(GridSpec(3, 2)) * gamma + 1.0)
    code = main(["verify", "--coef", "example2", "--n", "3", f"--alpha={alpha!r}",
                 "--beta", "1", "--format", "json"])

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 0
    assert payload[0]["certified"] is False
    assert payload[0]["mu_bounds"]["outer"] is None


def test_rejects_grid_size_not_power_of_two_minus_one():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--n", "10", "--alpha", "1", "--beta", "1"])
    assert err.value.code == 2


def _usage_error_text(capsys, argv) -> str:
    # a usage error exits 2 with nothing on stdout; exit 1 is reserved for failed rows
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage:" in captured.err
    return captured.err


def test_rejects_mismatched_shift_lists(capsys):
    assert "equal counts" in _usage_error_text(
        capsys, ["bench", "--n", "7", "--alpha", "1,2", "--beta", "3"])


def test_verify_rejects_alpha_without_beta(capsys):
    assert "equal counts" in _usage_error_text(capsys, ["verify", "--alpha", "1"])


@pytest.mark.parametrize("argv", [["verify", "--n", "3,3"],
                                  ["verify", "--alpha", "100,100", "--beta", "100,100"]],
                         ids=["repeated-n", "repeated-shift"])
def test_verify_refuses_repeats(capsys, monkeypatch, argv):
    # verify sweeps through ExperimentSpec, as bench does, so a repeated grid
    # size or shift is refused before any certificate runs
    def no_run(*args, **kwargs):
        raise AssertionError("ran a certificate")

    monkeypatch.setattr(bench, "verify_spectrum", no_run)
    assert "must not repeat" in _usage_error_text(capsys, argv)


def test_solve_rejects_shift_sweeps(capsys):
    assert "exactly one shift" in _usage_error_text(
        capsys, ["solve", "--n", "7", "--alpha", "1,2", "--beta", "3,4"])


def test_solve_rejects_grid_size_sweeps(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("ran a grid size sweep")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    assert "exactly one grid size" in _usage_error_text(capsys, ["solve", "--n", "7,15"])


@pytest.mark.parametrize("argv", [["bench", "--n", ","],
                                  ["bench", "--n", "7", "--alpha", ",", "--beta", ","],
                                  ["verify", "--n", ","]],
                         ids=["bench-n", "bench-shifts", "verify-n"])
def test_empty_list_is_a_usage_error(capsys, monkeypatch, argv):
    # a sweep of no rows is refused, not reported as a success
    def no_run(*args, **kwargs):
        raise AssertionError("ran with an empty list")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    monkeypatch.setattr(bench, "verify_spectrum", no_run)
    assert "expected at least one value, got ','" in _usage_error_text(capsys, argv)


@pytest.mark.parametrize("argv, message", [
    (["solve", "--n", "7", "--alpha", "nan", "--beta", "1"], "shift must be finite"),
    (["bench", "--n", "7", "--alpha", "1,1", "--beta", "1,inf"], "shift must be finite"),
    (["verify", "--n", "3", "--alpha", "1,nan", "--beta", "1,1"], "shift must be finite"),
    (["verify", "--coef", "example2", "--n", "3", "--alpha", "1e200", "--beta", "1"],
     "preconditioner weights overflow"),
], ids=["solve-nan", "bench-inf", "verify-nan", "verify-overflow"])
def test_shift_the_library_refuses_is_a_usage_error(capsys, monkeypatch, argv, message):
    # a non-finite shift is refused before any row or certificate runs; a
    # certificate that cannot take its shift ends the run with exit 2
    import abslap.spectral

    def no_run(*args, **kwargs):
        raise AssertionError("ran a row or a certificate's dense work")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    # the overflow is raised by the preconditioner build, before the dense work
    monkeypatch.setattr(abslap.spectral, "sine_matrix", no_run)
    assert message in _usage_error_text(capsys, argv)


@pytest.mark.parametrize("coef", ("example2", "const"))
def test_bench_row_that_overflows_builds_no_certificate_blocks(capsys, monkeypatch, coef):
    # the row's preconditioner build refuses the shift before the grid's
    # certificate blocks, the first dense work, are built
    import abslap.spectral

    def no_run(*args, **kwargs):
        raise AssertionError("built a certificate block")

    monkeypatch.setattr(abslap.spectral, "sine_matrix", no_run)
    monkeypatch.setattr(abslap.spectral, "_wkw_block", no_run)
    code = main(["bench", "--coef", coef, "--n", "3", "--alpha", "1e200", "--beta", "1",
                 "--verify-spectrum-up-to", "3", "--format", "json"])
    row = json.loads(capsys.readouterr().out)[0]
    assert code == 1
    assert "preconditioner weights overflow" in row["error"]
    assert row["spectrum_verdict"] == "skipped"


def test_overflowing_krylov_vectors_are_named_in_the_row_error(capsys):
    # without a preconditioner nothing refuses the shift before MINRES, whose
    # first inner product overflows to inf
    code = main(["solve", "--n", "7", "--alpha", "1e200", "--beta", "1",
                 "--precond", "none", "--format", "json"])
    row = json.loads(capsys.readouterr().out)[0]
    assert code == 1
    assert "overflow float64" in row["error"]
    assert row["iterations"] == 0


def test_true_residual_past_the_tolerance_exits_non_zero(capsys, monkeypatch):
    from abslap.minres import SolveReport

    def false_success(apply_a, apply_pinv, rhs, config, basis=None):
        return rhs * 0.0, SolveReport(1, True, rhs[:2] * 0.0, 1.0)

    monkeypatch.setattr(bench, "minres_solve", false_success)
    code = main(["solve", "--n", "3", "--format", "json"])
    row = json.loads(capsys.readouterr().out)[0]
    assert code == 1
    assert row["converged"] and "true residual 1.000e+00" in row["error"]


def test_exhausted_krylov_space_below_an_unreachable_tolerance_exits_non_zero(capsys):
    # no residual reaches 1e-300; the solve stops when the Krylov space is
    # exhausted and reports convergence, and the true residual check refuses it
    code = main(["solve", "--n", "3", "--tol", "1e-300", "--format", "json"])
    row = json.loads(capsys.readouterr().out)[0]
    assert code == 1
    assert row["converged"]
    assert "exceeds ten times the tolerance 1.0e-300" in row["error"]


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("command", ["solve", "bench", "verify"])
def test_out_in_a_missing_directory_is_a_usage_error(capsys, monkeypatch, tmp_path, command):
    # refused before any row runs, not with a traceback once the sweep is done
    def no_run(*args, **kwargs):
        raise AssertionError("ran before the --out check")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    monkeypatch.setattr(bench, "verify_spectrum", no_run)
    target = tmp_path / "missing" / "x.csv"
    err = _usage_error_text(capsys, [command, "--n", "7", "--out", str(target)])
    assert "does not exist" in err and str(tmp_path / "missing") in err
    assert not target.parent.exists()


@pytest.mark.parametrize("command", ["solve", "bench", "verify"])
def test_out_naming_a_directory_is_a_usage_error(capsys, monkeypatch, tmp_path, command):
    # refused before any row runs, not with IsADirectoryError once the sweep is done
    def no_run(*args, **kwargs):
        raise AssertionError("ran before the --out check")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    monkeypatch.setattr(bench, "verify_spectrum", no_run)
    err = _usage_error_text(capsys, [command, "--n", "7", "--out", str(tmp_path)])
    assert "is a directory" in err and str(tmp_path) in err
    assert list(tmp_path.iterdir()) == []


# Whole reports of fixed sweeps, recorded from the command line.  A change
# that should leave the output alone must leave these strings alone; the
# bench rows carry their wall_time column blanked.
GOLDEN_VERIFY_CONST_CSV = (
    "n,alpha,beta,branch,certified,mu_inner,mu_outer,all_inside,max_violation\n"
    "3,100,100,alpha_nonneg,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "3,-100,-100,alpha_neg_valid,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "3,100,-100,alpha_nonneg,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "3,-100,100,alpha_neg_valid,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "3,-100,1,assumptions_violated,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "3,1,-100,alpha_nonneg,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "7,100,100,alpha_nonneg,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "7,-100,-100,alpha_neg_valid,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "7,100,-100,alpha_nonneg,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "7,-100,100,alpha_neg_valid,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "7,-100,1,assumptions_violated,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "7,1,-100,alpha_nonneg,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "15,100,100,alpha_nonneg,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "15,-100,-100,alpha_neg_valid,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "15,100,-100,alpha_nonneg,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "15,-100,100,alpha_neg_valid,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "15,-100,1,assumptions_violated,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
    "15,1,-100,alpha_nonneg,True,0.707106781187,1.41421356237,True,0.000000e+00\n"
)

GOLDEN_VERIFY_EXAMPLE2_CSV = (
    "n,alpha,beta,branch,certified,mu_inner,mu_outer,all_inside,max_violation\n"
    "3,-600,150,alpha_neg_valid,True,0.577960459991,1.71783318998,True,0.000000e+00\n"
    "3,-100,-25,alpha_neg_valid,True,0.656279127382,1.52187565523,True,0.000000e+00\n"
    "3,100,-100,alpha_nonneg,True,0.673435029701,1.48492424049,True,0.000000e+00\n"
    "3,-100,100,alpha_neg_valid,True,0.656751329578,1.52085003755,True,0.000000e+00\n"
    "3,-100,1,alpha_neg_valid,True,0.656126146654,1.52220803243,True,0.000000e+00\n"
    "3,1,-100,alpha_nonneg,True,0.673435029701,1.48492424049,True,0.000000e+00\n"
    "7,-600,150,alpha_neg_valid,True,0.581289208148,1.70845287069,True,0.000000e+00\n"
    "7,-100,-25,alpha_neg_valid,True,0.656922262545,1.52045626893,True,0.000000e+00\n"
    "7,100,-100,alpha_nonneg,True,0.673435029701,1.48492424049,True,0.000000e+00\n"
    "7,-100,100,alpha_neg_valid,True,0.657371168403,1.51948269332,True,0.000000e+00\n"
    "7,-100,1,alpha_neg_valid,True,0.656776896252,1.52077162773,True,0.000000e+00\n"
    "7,1,-100,alpha_nonneg,True,0.673435029701,1.48492424049,True,0.000000e+00\n"
    "15,-600,150,alpha_neg_valid,True,0.582100826527,1.7061816752,True,0.000000e+00\n"
    "15,-100,-25,alpha_neg_valid,True,0.657078542732,1.52011177343,True,0.000000e+00\n"
    "15,100,-100,alpha_nonneg,True,0.673435029701,1.48492424049,True,0.000000e+00\n"
    "15,-100,100,alpha_neg_valid,True,0.657521852871,1.51915067783,True,0.000000e+00\n"
    "15,-100,1,alpha_neg_valid,True,0.656935004552,1.52042305311,True,0.000000e+00\n"
    "15,1,-100,alpha_nonneg,True,0.673435029701,1.48492424049,True,0.000000e+00\n"
)

GOLDEN_BENCH_EXAMPLE2_CSV = (
    "n,dof,alpha,beta,iterations,wall_time,true_residual,bound_iterations,spectrum_verdict\n"
    "7,98,-600,150,12,,2.302929e-09,54,skipped\n"
    "7,98,-100,-25,12,,1.979350e-09,42,skipped\n"
    "7,98,100,-100,12,,2.790322e-09,40,skipped\n"
    "7,98,-100,100,12,,2.518769e-09,42,skipped\n"
    "7,98,-100,1,12,,2.710011e-09,42,skipped\n"
    "7,98,1,-100,12,,2.367037e-09,40,skipped\n"
    "15,450,-600,150,12,,5.174378e-09,54,skipped\n"
    "15,450,-100,-25,12,,5.943730e-09,42,skipped\n"
    "15,450,100,-100,12,,6.702055e-09,40,skipped\n"
    "15,450,-100,100,12,,5.784029e-09,42,skipped\n"
    "15,450,-100,1,12,,5.916671e-09,42,skipped\n"
    "15,450,1,-100,12,,5.256407e-09,40,skipped\n"
)

# Recorded with numpy 2.4.6 on an x86-64 CPU with AVX-512, where numpy's
# float64 log runs its AVX-512 kernel.  The normals' last bits follow
# numpy's build and the CPU's SIMD level, so these pins hold only there; CI
# also runs the suite without those kernels, minus the bit pins.
GOLDEN_BENCH_CONST_CSV = (
    "n,dof,alpha,beta,iterations,wall_time,true_residual,bound_iterations,spectrum_verdict\n"
    "15,450,100,100,2,,8.074983e-16,2,skipped\n"
    "15,450,-100,-100,2,,8.430948e-16,2,skipped\n"
    "15,450,100,-100,2,,6.306288e-16,2,skipped\n"
    "15,450,-100,100,2,,4.074562e-16,2,skipped\n"
    "15,450,-100,1,2,,3.495564e-16,2,skipped\n"
    "15,450,1,-100,2,,8.383057e-16,2,skipped\n"
)


def _blank_wall_time(text: str) -> str:
    column = CSV_HEADER.split(",").index("wall_time")
    lines = text.splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        fields[column] = ""
        rows.append(",".join(fields))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("coef, expected", [("const", GOLDEN_VERIFY_CONST_CSV),
                                            ("example2", GOLDEN_VERIFY_EXAMPLE2_CSV)])
def test_verify_csv_golden(capsys, coef, expected):
    code = main(["verify", "--coef", coef, "--n", "3,7,15", "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("coef, expected", [("const", GOLDEN_VERIFY_CONST_CSV),
                                            ("example2", GOLDEN_VERIFY_EXAMPLE2_CSV)])
def test_verify_text_table_golden(capsys, coef, expected):
    # the text table is the csv report with tabs between its fields
    code = main(["verify", "--coef", coef, "--n", "3,7,15", "--format", "text_table"])
    assert code == 0
    assert capsys.readouterr().out == expected.replace(",", "\t")


@pytest.mark.parametrize("argv, expected", [
    (["--coef", "example2", "--n", "7,15"], GOLDEN_BENCH_EXAMPLE2_CSV),
    (["--coef", "const", "--n", "15"], GOLDEN_BENCH_CONST_CSV),
], ids=["example2", "const"])
def test_bench_csv_golden(capsys, argv, expected):
    code = main(["bench", *argv, "--format", "csv"])
    assert code == 0
    assert _blank_wall_time(capsys.readouterr().out) == expected
