"""Near-linear scaling of the transform-based preconditioner application.

Applying the inverse preconditioner costs two sine transforms and one
diagonal scaling per block half, so the work grows like m log m in the
unknown count m.  This script times the application over a 64-fold range
of problem sizes, fits the cost exponent, and finishes with a full solve
at n = 1023 (about 2.1 million degrees of freedom) that still converges
in two iterations.  That solve is `solve_shifted`, the one `abslap bench`
makes: for the constant coefficient it runs in the sine basis, where
operator and preconditioner are both diagonal, so it makes only two
transforms in all.  Its memory is a small multiple of one vector: the
script traces that solve's allocations and asserts that their peak above
the inputs stays at 6.1 stacked vectors (of 2 m doubles) or less.
"""

import time
import tracemalloc

import numpy as np

from abslap.bench import RandomStream, generate_rhs, solve_shifted
from abslap.grid import GridSpec, assemble_laplacian_2d_constant
from abslap.minres import SolverConfig
from abslap.precond import build_ideal
from abslap.saddle import Shift

SHIFT = Shift(100.0, 100.0)


def main():
    print(__doc__)
    print(f"{'n':>6} {'unknowns m':>12} {'apply time':>12}")
    sizes = (63, 127, 255, 511)
    dofs, times = [], []
    for n in sizes:
        grid = GridSpec(n, 2)
        precond = build_ideal(grid, SHIFT)
        vec = RandomStream(n).normals(2 * grid.m)
        precond.apply_inverse(vec)  # warm-up
        best = min(_timed(precond.apply_inverse, vec) for _ in range(5))
        print(f"{n:>6} {grid.m:>12} {best * 1e3:>10.2f} ms")
        dofs.append(grid.m)
        times.append(best)
    slope = float(np.polyfit(np.log(dofs), np.log(times), 1)[0])
    print(f"\nfitted cost exponent in m: {slope:.3f}  (1.0 = linear)")

    n = 1023
    grid = GridSpec(n, 2)
    k_op = assemble_laplacian_2d_constant(grid)
    precond = build_ideal(grid, SHIFT)
    _, rhs = generate_rhs(grid, k_op, SHIFT, seed=7)
    tracemalloc.start()
    tic = time.perf_counter()
    x, report = solve_shifted(k_op, SHIFT, precond, rhs,
                              SolverConfig(tol=1e-8, max_iter=50))
    elapsed = time.perf_counter() - tic
    peak = tracemalloc.get_traced_memory()[1] / x.nbytes
    tracemalloc.stop()
    print(f"\nfull solve at n={n} (dof={2 * grid.m}): "
          f"{report.iterations} iterations in {elapsed:.2f} s, "
          f"true residual {report.final_true_residual:.2e}")
    print(f"peak memory above its inputs: {peak:.2f} stacked vectors")
    assert report.converged and report.iterations == 2
    assert peak <= 6.1


def _timed(fn, vec):
    tic = time.perf_counter()
    fn(vec)
    return time.perf_counter() - tic


if __name__ == "__main__":
    main()
