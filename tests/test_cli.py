"""End-to-end checks of the command line front end via main(argv)."""

import json

import pytest

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


def test_rejects_grid_size_not_power_of_two_minus_one():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--n", "10", "--alpha", "1", "--beta", "1"])
    assert err.value.code == 2


def test_rejects_mismatched_shift_lists():
    with pytest.raises(SystemExit) as err:
        main(["bench", "--n", "7", "--alpha", "1,2", "--beta", "3"])
    assert "equal counts" in str(err.value.code)


def test_solve_rejects_shift_sweeps():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--n", "7", "--alpha", "1,2", "--beta", "3,4"])
    assert "exactly one shift" in str(err.value.code)


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
