"""Two-step convergence of the exactly preconditioned block system.

With a constant unit coefficient the block absolute value can be applied
exactly through the sine transform, the preconditioned operator has the
two eigenvalues +1 and -1, and MINRES reaches the solution in precisely
two iterations no matter how fine the grid or how large the shift.  This
script runs the six reference shifts over three grids through
`solve_shifted`, the solve `abslap bench` makes (here in the sine basis,
where operator and preconditioner are diagonal), and prints the iteration
counts and true residuals.
"""

import numpy as np

from abslap.bench import DEFAULT_CONSTANT_SHIFTS, generate_rhs, solve_shifted
from abslap.grid import GridSpec, assemble_laplacian_2d_constant
from abslap.minres import SolverConfig
from abslap.precond import build_ideal
from abslap.saddle import Shift, real_to_complex

TOL = 1e-8


def main():
    print(__doc__)
    print(f"{'n':>6} {'dof':>9} {'alpha':>7} {'beta':>7} "
          f"{'iterations':>11} {'true residual':>14}")
    for n in (15, 31, 63):
        grid = GridSpec(n, 2)
        k_op = assemble_laplacian_2d_constant(grid)
        for index, (alpha, beta) in enumerate(DEFAULT_CONSTANT_SHIFTS):
            shift = Shift(alpha, beta)
            precond = build_ideal(grid, shift)
            exact, rhs = generate_rhs(grid, k_op, shift, seed=500 + index)
            x, report = solve_shifted(k_op, shift, precond, rhs, SolverConfig(tol=TOL))
            err = np.linalg.norm(real_to_complex(x) - exact) / np.linalg.norm(exact)
            print(f"{n:>6} {2 * grid.m:>9} {alpha:>7g} {beta:>7g} "
                  f"{report.iterations:>11} {report.final_true_residual:>14.3e}"
                  + ("   <- not converged!" if not report.converged else ""))
            assert report.iterations == 2, "two-step convergence is exact here"
            assert err <= 1e-6
    print("\nEvery solve above stopped after exactly 2 iterations: the")
    print("preconditioned spectrum is the two-point set {-1, +1}, so the")
    print("degree-2 minimal residual polynomial already vanishes on it.")


if __name__ == "__main__":
    main()
