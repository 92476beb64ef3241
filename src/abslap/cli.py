"""Command line front end: solve, bench, and verify subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .bench import (ExperimentSpec, all_clear, certify, emit_certificates, emit_report,
                    run_experiment)
from .spectral import VERIFY_CAP_2D

COEF_CHOICES = {"const": "constant_one", "example2": "example2_poly"}
DEFAULTS = ExperimentSpec()


def _power_of_two_minus_one(value: str) -> int:
    n = int(value)
    if n < 1 or (n + 1) & n != 0:
        raise argparse.ArgumentTypeError(
            f"grid size must be 2^k - 1 (1, 3, 7, 15, ...), got {n}"
        )
    return n


def _parts(value: str) -> list[str]:
    """The non-empty items of a comma separated list; a list of none is a usage error."""
    parts = [part for part in value.split(",") if part != ""]
    if not parts:
        raise argparse.ArgumentTypeError(f"expected at least one value, got {value!r}")
    return parts


def _int_list(value: str) -> list[int]:
    return [_power_of_two_minus_one(part) for part in _parts(value)]


def _float_list(value: str) -> list[float]:
    return [float(part) for part in _parts(value)]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=_int_list,
                        help="interior grid points per dimension, 2^k - 1; comma separated list")
    parser.add_argument("--alpha", type=_float_list, default=None,
                        help="real shift part(s), comma separated, zipped with --beta")
    parser.add_argument("--beta", type=_float_list, default=None,
                        help="imaginary shift part(s), comma separated")
    parser.add_argument("--coef", choices=sorted(COEF_CHOICES), default="const",
                        help="diffusion coefficient: const (a=1) or example2")
    parser.add_argument("--format", choices=("json", "csv", "text_table"),
                        default=None, help="report format")
    parser.add_argument("--out", default=None, help="write the report to this path")


def _shifts_from_args(args):
    """The (alpha, beta) pairs given, or None for the coefficient's defaults."""
    if args.alpha is None and args.beta is None:
        return None
    if args.alpha is None or args.beta is None or len(args.alpha) != len(args.beta):
        args.usage_error("--alpha and --beta must both be given, with equal counts")
    return tuple(zip(args.alpha, args.beta))


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _cmd_run(args) -> int:
    """solve and bench; solve runs one row, at the first default shift if none is given."""
    shifts = _shifts_from_args(args)
    if args.one_row and (len(args.n) != 1 or (shifts is not None and len(shifts) != 1)):
        args.usage_error("solve takes exactly one grid size and exactly one shift; "
                         "use bench for sweeps")
    try:
        spec = ExperimentSpec(grid_sizes=tuple(args.n), shifts=shifts,
                              coefficient=COEF_CHOICES[args.coef],
                              preconditioner=args.precond,
                              tol=args.tol, max_iter=args.max_iter, seed=args.seed,
                              verify_spectrum_up_to=args.verify_spectrum_up_to)
    except ValueError as exc:
        args.usage_error(str(exc))  # exits 2
    if args.one_row:
        spec = dataclasses.replace(spec, shifts=spec.shifts[:1])
    rows = run_experiment(spec)
    _emit(emit_report(rows, args.format or "text_table"), args.out)
    return 0 if all_clear(rows) else 1


def _cmd_verify(args) -> int:
    if max(args.n) > VERIFY_CAP_2D:  # refused before any certificate runs
        args.usage_error(f"argument --n: dense verification stops at n={VERIFY_CAP_2D}, "
                         f"got {max(args.n)}")
    # a bad or repeated grid size or shift is refused before any certificate
    # runs; a shift the certificate cannot take, such as one that overflows
    # the weights, is refused when it comes up
    try:
        certs = certify(ExperimentSpec(grid_sizes=tuple(args.n), shifts=_shifts_from_args(args),
                                       coefficient=COEF_CHOICES[args.coef]))
    except ValueError as exc:
        args.usage_error(str(exc))  # exits 2
    _emit(emit_certificates(certs, args.format or "json"), args.out)
    return 0 if all(cert.verdict != "fail" for _, _, cert in certs) else 1


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

    for p in (solve, bench, verify):
        _add_common(p)
    for p in (solve, bench):
        p.add_argument("--precond", choices=("ideal", "averaged", "none"), default=None,
                       help="preconditioner (default: ideal for const, averaged otherwise)")
        p.add_argument("--tol", type=float, default=DEFAULTS.tol)
        p.add_argument("--max-iter", type=int, default=DEFAULTS.max_iter)
        p.add_argument("--seed", type=int, default=DEFAULTS.seed)
        p.add_argument("--verify-spectrum-up-to", type=int,
                       default=DEFAULTS.verify_spectrum_up_to,
                       help="densely verify the spectrum for rows with n up to this "
                            "(rows above n=31 are skipped)")

    solve.set_defaults(func=_cmd_run, n=[63], one_row=True, usage_error=solve.error)
    bench.set_defaults(func=_cmd_run, n=list(DEFAULTS.grid_sizes), one_row=False,
                       usage_error=bench.error)
    verify.set_defaults(func=_cmd_verify, n=[3, 7, 15], usage_error=verify.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # refused before any solve, not after the sweep when the report is written
    if args.out is not None:
        directory = os.path.dirname(args.out) or "."
        if not os.path.isdir(directory):
            args.usage_error(f"--out: directory {directory!r} does not exist")
        if os.path.isdir(args.out):
            args.usage_error(f"--out: {args.out!r} is a directory, not a file")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
