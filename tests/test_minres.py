"""Minimum-residual solver behavior, stopping logic, and iteration bounds."""

import math

import numpy as np
import pytest

from abslap.grid import (
    GridSpec,
    assemble_laplacian_2d_constant,
    assemble_laplacian_2d_variable,
    separable_quadratic_coefficient,
)
from abslap.minres import SolverConfig, bound_iterations, minres_solve, symmetrize_intervals
from abslap.precond import build_averaged, build_ideal
from abslap.saddle import SaddleOperator, Shift, saddle_rhs
from abslap.bench import generate_rhs


def test_identity_system_converges_immediately():
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(12)
    x, report = minres_solve(lambda v: v, None, rhs, SolverConfig(tol=1e-10, max_iter=10))
    assert report.converged
    assert report.iterations == 1
    np.testing.assert_allclose(x, rhs, rtol=0, atol=1e-12)
    assert report.final_true_residual <= 1e-12


def test_two_iterations_with_exact_preconditioner():
    grid = GridSpec(63, 2)
    shift = Shift(100.0, 100.0)
    k_op = assemble_laplacian_2d_constant(grid)
    p = build_ideal(grid, shift)
    _, rhs = generate_rhs(grid, k_op, shift, seed=123)
    op = SaddleOperator(k_op, shift)
    _, report = minres_solve(op.apply, p.apply_inverse, saddle_rhs(rhs),
                             SolverConfig(tol=1e-8, max_iter=50))
    assert report.converged
    assert report.iterations == 2


def test_variable_coefficient_iteration_count():
    grid = GridSpec(63, 2)
    shift = Shift(-600.0, 150.0)
    coef = separable_quadratic_coefficient()
    k_op = assemble_laplacian_2d_variable(grid, coef)
    p = build_averaged(grid, coef, shift)
    _, rhs = generate_rhs(grid, k_op, shift, seed=7)
    op = SaddleOperator(k_op, shift)
    _, report = minres_solve(op.apply, p.apply_inverse, saddle_rhs(rhs),
                             SolverConfig(tol=1e-8, max_iter=100))
    assert report.converged
    assert report.iterations <= 20


def test_history_monotone_and_convergence_flag():
    grid = GridSpec(15, 2)
    shift = Shift(-100.0, 100.0)
    coef = separable_quadratic_coefficient()
    k_op = assemble_laplacian_2d_variable(grid, coef)
    p = build_averaged(grid, coef, shift)
    _, rhs = generate_rhs(grid, k_op, shift, seed=99)
    op = SaddleOperator(k_op, shift)
    config = SolverConfig(tol=1e-8, max_iter=200)
    _, report = minres_solve(op.apply, p.apply_inverse, saddle_rhs(rhs), config)

    hist = np.asarray(report.residual_history)
    assert hist[0] > 0.0
    assert np.all(hist[1:] <= hist[:-1] * (1.0 + 1e-12))
    assert report.converged == (hist[-1] <= config.tol * hist[0])
    assert report.converged
    assert len(hist) == report.iterations + 1
    assert report.final_true_residual <= 10.0 * config.tol
    assert report.wall_time >= 0.0


def test_non_positive_preconditioner_is_a_breakdown():
    rhs = np.ones(4)
    with pytest.raises(ValueError):
        minres_solve(lambda v: v, lambda v: -v, rhs, SolverConfig(tol=1e-8, max_iter=5))


def test_max_iter_exhaustion_reports_unconverged():
    grid = GridSpec(15, 2)
    shift = Shift(100.0, 100.0)
    k_op = assemble_laplacian_2d_constant(grid)
    _, rhs = generate_rhs(grid, k_op, shift, seed=2)
    op = SaddleOperator(k_op, shift)
    _, report = minres_solve(op.apply, None, saddle_rhs(rhs),
                             SolverConfig(tol=1e-12, max_iter=5))
    assert not report.converged
    assert report.iterations == 5
    assert len(report.residual_history) == 6


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


def test_bound_iterations_reference_values():
    # two-point spectrum: contraction factor zero, two iterations
    assert bound_iterations(1.0, 1.0, 1.0, 1.0, 1e-8) == 2

    # intervals [-sqrt(2), -1/sqrt(2)] u [1/sqrt(2), sqrt(2)]: factor exactly 1/3
    r2 = math.sqrt(2.0)
    assert bound_iterations(r2, 1.0 / r2, 1.0 / r2, r2, 1e-8) == 36

    # the wider interval pair from the variable-coefficient study
    mu0 = math.sqrt(2.0 * 441.0 / 400.0)
    assert bound_iterations(mu0, 1.0 / mu0, 1.0 / mu0, mu0, 1e-8) == 40


def test_bound_iterations_monotone_in_tolerance():
    mu0 = math.sqrt(2.0 * 441.0 / 400.0)
    previous = 0
    for tol in (1e-2, 1e-4, 1e-8, 1e-12):
        k = bound_iterations(mu0, 1.0 / mu0, 1.0 / mu0, mu0, tol)
        assert k >= previous
        assert k % 2 == 0
        previous = k
    # the returned count is minimal: one fewer iteration pair misses the target
    rho = (mu0 * mu0 - 1.0) / (mu0 * mu0 + 1.0)
    k = bound_iterations(mu0, 1.0 / mu0, 1.0 / mu0, mu0, 1e-8)
    assert 2.0 * rho ** (k / 2) <= 1e-8
    assert 2.0 * rho ** (k / 2 - 1) > 1e-8


def test_bound_iterations_validation():
    with pytest.raises(ValueError):
        bound_iterations(1.0, 2.0, 1.0, 1.0, 1e-8)  # a2 > a1
    with pytest.raises(ValueError):
        bound_iterations(2.0, 1.0, 1.0, 1.5, 1e-8)  # unequal interval lengths
    with pytest.raises(ValueError):
        bound_iterations(1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        bound_iterations(1.0, 1.0, 1.0, 1.0, 1.5)


def test_symmetrize_intervals_widens_outward_only():
    a1, a2, a3, a4 = symmetrize_intervals(3.0, 1.0, 1.0, 2.0)
    assert (a1, a2, a3, a4) == (3.0, 1.0, 1.0, 3.0)
    # already balanced inputs come back unchanged
    assert symmetrize_intervals(2.0, 1.0, 1.0, 2.0) == (2.0, 1.0, 1.0, 2.0)
    # result always feeds bound_iterations without complaint
    bound_iterations(a1, a2, a3, a4, 1e-8)
    with pytest.raises(ValueError):
        symmetrize_intervals(1.0, 2.0, 1.0, 2.0)


def test_lanczos_exhaustion_on_tiny_space():
    """A rank-deficient right-hand side exhausts the Krylov space early and
    must still return the exact solution rather than iterate forever."""
    diag = np.array([2.0, 2.0, 5.0, 5.0])
    rhs = np.array([1.0, 1.0, 0.0, 0.0])  # spans a single eigenvector direction
    x, report = minres_solve(lambda v: diag * v, None, rhs,
                             SolverConfig(tol=1e-14, max_iter=10))
    assert report.converged
    assert report.iterations <= 2
    np.testing.assert_allclose(x, rhs / 2.0, rtol=0, atol=1e-13)
