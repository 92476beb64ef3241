"""Command line front end: solve, bench, and verify subcommands."""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (DEFAULT_CONSTANT_SHIFTS, DEFAULT_VARIABLE_SHIFTS,
                    ExperimentSpec, all_clear, coefficient_from_spec,
                    emit_report, run_experiment)
from .grid import GridSpec
from .saddle import Shift
from .spectral import certificate_payload, verify_spectrum

COEF_CHOICES = {"const": "constant_one", "example2": "example2_poly"}


def _power_of_two_minus_one(value: str) -> int:
    n = int(value)
    if n < 1 or (n + 1) & n != 0:
        raise argparse.ArgumentTypeError(
            f"grid size must be 2^k - 1 (1, 3, 7, 15, ...), got {n}"
        )
    return n


def _int_list(value: str) -> list[int]:
    return [_power_of_two_minus_one(part) for part in value.split(",") if part != ""]


def _float_list(value: str) -> list[float]:
    return [float(part) for part in value.split(",") if part != ""]


def _add_common(parser: argparse.ArgumentParser, many_n: bool) -> None:
    # either way args.n is a list of grid sizes
    parser.add_argument("--n", type=_int_list if many_n else _power_of_two_minus_one,
                        nargs=None if many_n else 1,
                        help="interior grid points per dimension, 2^k - 1"
                             + ("; comma separated list" if many_n else ""))
    parser.add_argument("--alpha", type=_float_list, default=None,
                        help="real shift part(s), comma separated, zipped with --beta")
    parser.add_argument("--beta", type=_float_list, default=None,
                        help="imaginary shift part(s), comma separated")
    parser.add_argument("--coef", choices=sorted(COEF_CHOICES), default="const",
                        help="diffusion coefficient: const (a=1) or example2")
    parser.add_argument("--format", choices=("json", "csv", "text_table"),
                        default=None, help="report format")
    parser.add_argument("--out", default=None, help="write the report to this path")


def _shifts_from_args(args, coefficient_name: str):
    if args.alpha is None and args.beta is None:
        if coefficient_name == "constant_one":
            return list(DEFAULT_CONSTANT_SHIFTS)
        return list(DEFAULT_VARIABLE_SHIFTS)
    if args.alpha is None or args.beta is None or len(args.alpha) != len(args.beta):
        raise SystemExit("--alpha and --beta must both be given, with equal counts")
    return list(zip(args.alpha, args.beta))


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _default_precond(args) -> str:
    if args.precond is not None:
        return args.precond
    return "ideal" if args.coef == "const" else "averaged"


def _cmd_run(args) -> int:
    """solve and bench; solve runs one shift, the coefficient's first default if none is given."""
    coefficient_name = COEF_CHOICES[args.coef]
    shifts = _shifts_from_args(args, coefficient_name)
    if args.one_shift:
        if args.alpha is not None and len(shifts) != 1:
            raise SystemExit("solve takes exactly one shift; use bench for sweeps")
        shifts = shifts[:1]
    spec = ExperimentSpec(grid_sizes=tuple(args.n), shifts=tuple(shifts),
                          coefficient=coefficient_name,
                          preconditioner=_default_precond(args),
                          tol=args.tol, max_iter=args.max_iter, seed=args.seed,
                          verify_spectrum_up_to=args.verify_spectrum_up_to)
    rows = run_experiment(spec)
    _emit(emit_report(rows, args.format or "text_table"), args.out)
    return 0 if all_clear(rows) else 1


def _cmd_verify(args) -> int:
    coefficient_name = COEF_CHOICES[args.coef]
    coefficient = coefficient_from_spec(coefficient_name)
    shifts = _shifts_from_args(args, coefficient_name)
    payloads = []
    ok = True
    for n in args.n:
        grid = GridSpec(n, 2)
        for alpha, beta in shifts:
            shift = Shift(alpha, beta)
            cert = verify_spectrum(grid, coefficient, shift)
            payloads.append(certificate_payload(grid, shift, cert))
            # only certified intervals gate the exit code; flagged ones are
            # reported for inspection but prove nothing either way
            if cert.certified:
                ok = ok and cert.all_inside
    fmt = args.format or "json"
    if fmt == "json":
        text = json.dumps(payloads, indent=2) + "\n"
    else:
        lines = ["n,alpha,beta,branch,certified,mu_inner,mu_outer,all_inside,max_violation"]
        for p in payloads:
            lines.append(
                f"{p['grid']['n']},{p['alpha']:g},{p['beta']:g},{p['branch']},"
                f"{p['certified']},"
                f"{p['mu_bounds']['inner']:.12g},{p['mu_bounds']['outer']:.12g},"
                f"{p['all_inside']},{p['max_violation']:.6e}"
            )
        text = "\n".join(lines) + "\n"
        if fmt == "text_table":
            text = text.replace(",", "\t")
    _emit(text, args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abslap",
        description="Absolute-value preconditioned MINRES for complex-shifted "
                    "Laplacian systems on the unit square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance and report")
    bench = sub.add_parser("bench", help="run an iteration-count sweep")
    verify = sub.add_parser("verify", help="dense spectrum certificates at desk scale")

    for p in (solve, bench):
        _add_common(p, many_n=(p is bench))
        p.add_argument("--precond", choices=("ideal", "averaged", "none"), default=None,
                       help="preconditioner (default: ideal for const, averaged otherwise)")
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--max-iter", type=int, default=2000)
        p.add_argument("--seed", type=int, default=20260822)
        p.add_argument("--verify-spectrum-up-to", type=int, default=0,
                       help="densely verify the spectrum for rows with n up to this "
                            "(rows above n=31 are skipped)")
    _add_common(verify, many_n=True)

    solve.set_defaults(func=_cmd_run, n=[63], one_shift=True)
    bench.set_defaults(func=_cmd_run, n=[15, 31, 63], one_shift=False)
    verify.set_defaults(func=_cmd_verify, n=[3, 7, 15])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
