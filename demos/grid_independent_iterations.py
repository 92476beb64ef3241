"""Grid-independent iteration counts for a variable diffusion coefficient.

For a(x1, x2) = (20 + x1^2)(20 + x2^2) the diffusion operator cannot be
diagonalized by the sine transform, but averaging it to gamma L with
gamma = sqrt(400 * 441) = 420 keeps the fast preconditioner while the
spectrum of the preconditioned system stays inside a fixed two-sided
interval.  Iteration counts therefore stay flat as the grid is refined,
and the a-priori bound from the interval endpoints holds for every run.
Each solve is `solve_shifted`, the one `abslap bench` makes; a variable
coefficient keeps it in the original basis, two transforms per
preconditioner apply.
"""

from abslap.bench import (DEFAULT_VARIABLE_SHIFTS, coefficient_from_spec,
                          generate_rhs, solve_shifted)
from abslap.grid import GridSpec, assemble_laplacian_2d_variable
from abslap.minres import SolverConfig
from abslap.precond import build_averaged
from abslap.saddle import Shift
from abslap.spectral import iteration_bound

TOL = 1e-8
SIZES = (15, 31, 63, 127)


def main():
    print(__doc__)
    coefficient = coefficient_from_spec("example2_poly")
    header = f"{'shift':>14}" + "".join(f"{f'n={n}':>8}" for n in SIZES) + f"{'bound':>8}"
    print(header)
    for index, (alpha, beta) in enumerate(DEFAULT_VARIABLE_SHIFTS):
        shift = Shift(alpha, beta)
        counts = []
        bound = None
        for n in SIZES:
            grid = GridSpec(n, 2)
            k_op = assemble_laplacian_2d_variable(grid, coefficient)
            precond = build_averaged(grid, coefficient, shift)
            _, rhs = generate_rhs(grid, k_op, shift, seed=900 + index)
            _, report = solve_shifted(k_op, shift, precond, rhs,
                                      SolverConfig(tol=TOL, max_iter=2000))
            assert report.converged
            counts.append(report.iterations)
            bound = iteration_bound(grid, coefficient, shift, TOL)
            assert report.iterations <= bound
        row = f"({alpha:g},{beta:g})".rjust(14)
        row += "".join(f"{c:>8}" for c in counts) + f"{bound:>8}"
        print(row)
    print("\nEach row is one complex shift; columns are grid refinements up")
    print("to 127 x 127 interior points (32k unknowns).  Counts move by at")
    print("most a couple of iterations across a 64-fold growth in problem")
    print("size, and all sit far below the two-interval worst-case bound in")
    print("the last column.")


if __name__ == "__main__":
    main()
