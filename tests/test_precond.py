"""Transform-diagonal preconditioners: weights, powers, and dense agreement."""

import math
import sys
import threading

import numpy as np
import pytest

from abslap import dst
from abslap.bench import DEFAULT_VARIABLE_SHIFTS, generate_rhs, solve_shifted
from abslap.grid import (
    GridSpec,
    assemble_laplacian_2d_constant,
    assemble_laplacian_2d_variable,
    constant_coefficient,
    laplacian_eigenvalues,
    separable_quadratic_coefficient,
)
from abslap.oracle import dense_abs, ideal_preconditioner_dense
from abslap.minres import SolverConfig
from abslap.precond import SpectralPreconditioner, build_averaged, build_ideal, sine_basis
from abslap.saddle import SaddleOperator, Shift


def test_single_mode_weight():
    p = build_ideal(GridSpec(1, 2), Shift(1.0, 2.0))
    np.testing.assert_allclose(p.weights, [math.sqrt(293.0)], rtol=1e-15)


def test_zero_shift_reduces_to_plain_eigenvalues():
    grid = GridSpec(5, 2)
    p = build_ideal(grid, Shift(0.0, 0.0))
    np.testing.assert_allclose(p.weights, laplacian_eigenvalues(grid), rtol=1e-15)


def test_singular_construction_rejected_with_mode_information():
    # beta = 0 and alpha cancelling the sole eigenvalue (about 16) is singular;
    # shift by the eigenvalue as computed so the cancellation is exact
    lam = float(laplacian_eigenvalues(GridSpec(1, 2))[0])
    with pytest.raises(ValueError) as err:
        build_ideal(GridSpec(1, 2), Shift(-lam, 0.0))
    assert "16" in str(err.value)


def test_weights_square_beta_by_multiplying():
    # beta * beta is correctly rounded on every platform; a libm pow need not be
    grid = GridSpec(7, 2)
    lam = laplacian_eigenvalues(grid)
    coefficient = separable_quadratic_coefficient()
    rng = np.random.default_rng(15)
    for beta in 10.0 ** rng.uniform(-3.0, 3.0, 300) * rng.choice((-1.0, 1.0), 300):
        shift = Shift(-37.5, float(beta))
        shifted = coefficient.gamma * lam + shift.alpha
        expected = np.sqrt(shifted * shifted + shift.beta * shift.beta)
        assert np.array_equal(build_averaged(grid, coefficient, shift).weights, expected)


@pytest.mark.parametrize("alpha, beta", [(1e200, 1.0), (1.0, 1e200), (1.0, -1e200)])
def test_overflowing_weights_are_refused(alpha, beta):
    with pytest.raises(ValueError, match="preconditioner weights overflow"):
        build_ideal(GridSpec(3, 2), Shift(alpha, beta))


def test_inverse_forward_round_trip_and_zero():
    grid = GridSpec(7, 2)
    p = build_ideal(grid, Shift(-100.0, 1.0))
    rng = np.random.default_rng(1)
    for _ in range(5):
        w = rng.standard_normal(2 * grid.m)
        back = p.materialize() @ p.apply_inverse(w)
        assert np.linalg.norm(back - w) <= 1e-12 * np.linalg.norm(w)
    np.testing.assert_array_equal(p.apply_inverse(np.zeros(2 * grid.m)), np.zeros(2 * grid.m))


def _sine_basis_pinv(p, w):
    """W P^-1 W w through the basis sine_basis gives p with the constant stencil."""
    op = SaddleOperator(assemble_laplacian_2d_constant(p.grid), Shift(1.0, 1.0))
    return sine_basis(op, p).apply_pinv(w)


def test_sine_basis_inverse_is_the_rotated_inverse():
    grid = GridSpec(15, 2)
    p = build_ideal(grid, Shift(-100.0, 1.0))
    w = np.random.default_rng(2).standard_normal(2 * grid.m)
    kept = w.copy()

    def rotate(v):
        return p.transform.apply(v.reshape(2, grid.m)).ravel()

    expected = rotate(p.apply_inverse(rotate(w)))
    out = _sine_basis_pinv(p, w)
    np.testing.assert_array_equal(w, kept)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


def test_dense_materialization_matches_absolute_value_oracle():
    grid = GridSpec(3, 2)
    shift = Shift(100.0, 100.0)
    k_op = assemble_laplacian_2d_constant(grid)
    a_dense = SaddleOperator(k_op, shift).dense()

    built = build_ideal(grid, shift).materialize()
    oracle = dense_abs(a_dense)
    scale = np.abs(oracle).max()
    assert np.abs(built - oracle).max() <= 1e-10 * scale

    direct = ideal_preconditioner_dense(k_op.dense(), shift)
    assert np.abs(built - direct).max() <= 1e-10 * scale


def test_averaged_on_unit_coefficient_equals_ideal():
    grid = GridSpec(5, 2)
    shift = Shift(-100.0, 100.0)
    ideal = build_ideal(grid, shift)
    averaged = build_averaged(grid, constant_coefficient(1.0), shift)
    np.testing.assert_allclose(averaged.weights, ideal.weights, rtol=0, atol=1e-15 * ideal.weights.max())


def test_averaged_geometric_mean_scaling():
    grid = GridSpec(3, 2)
    p = build_averaged(grid, separable_quadratic_coefficient(), Shift(-100.0, 100.0))
    lam = laplacian_eigenvalues(grid)
    np.testing.assert_allclose(p.weights, np.hypot(420.0 * lam - 100.0, 100.0), rtol=1e-15)
    # every weight is at least |beta|
    assert p.weights.min() >= 100.0


def test_power_semigroup_relations():
    grid = GridSpec(7, 2)
    p = build_averaged(grid, separable_quadratic_coefficient(), Shift(-600.0, 150.0))
    rng = np.random.default_rng(8)
    w = rng.standard_normal(2 * grid.m)

    half = p.materialize(0.5)
    forward = half @ (half @ w)
    assert np.linalg.norm(forward - p.materialize(1.0) @ w) <= 1e-12 * np.linalg.norm(forward)

    inv_half = p.materialize(-0.5)
    inv_half_twice = inv_half @ (inv_half @ w)
    inv = p.apply_inverse(w)
    assert np.linalg.norm(inv_half_twice - inv) <= 1e-12 * np.linalg.norm(inv)

    # the fast transform path agrees with the dense inverse
    assert np.linalg.norm(p.materialize(-1.0) @ w - inv) <= 1e-13 * np.linalg.norm(inv)


def test_quadratic_form_positive():
    grid = GridSpec(5, 2)
    p = build_averaged(grid, separable_quadratic_coefficient(), Shift(-100.0, -25.0))
    forward = p.materialize()
    rng = np.random.default_rng(12)
    for _ in range(20):
        z = rng.standard_normal(2 * grid.m)
        assert float(z @ (forward @ z)) > 0.0
        assert float(z @ p.apply_inverse(z)) > 0.0


def test_weights_are_blended_component_magnitudes():
    """The weight vector is exactly hypot of the two commuting diagonal parts."""
    grid = GridSpec(7, 2)
    shift = Shift(-600.0, 150.0)
    p = build_averaged(grid, separable_quadratic_coefficient(), shift)
    lam = laplacian_eigenvalues(grid)
    h1 = np.abs(420.0 * lam + shift.alpha)
    h2 = np.full_like(lam, abs(shift.beta))
    np.testing.assert_allclose(p.weights, np.hypot(h1, h2), rtol=1e-15)
    # sandwich ordering of the quadratic forms in the transform basis
    rng = np.random.default_rng(31)
    lower = math.sqrt(2.0) / 2.0
    for _ in range(50):
        z = rng.standard_normal(lam.size)
        mid = float(np.dot(p.weights * z, z))
        outer = float(np.dot((h1 + h2) * z, z))
        assert lower * outer <= mid + 1e-12 * outer
        assert mid <= outer * (1.0 + 1e-12)


def _shifted_laplacian(grid, gamma, shift):
    """The shifted-Laplacian rule gamma lam + |alpha| + |beta| (Erlangga, Vuik
    and Oosterlee 2004) over the Laplacian eigenvalues lam."""
    return SpectralPreconditioner(
        grid, gamma * laplacian_eigenvalues(grid) + abs(shift.alpha) + abs(shift.beta))


def test_weights_alone_make_the_preconditioner():
    grid = GridSpec(31, 2)
    coefficient = separable_quadratic_coefficient()
    k_op = assemble_laplacian_2d_variable(grid, coefficient)
    for shift in (Shift(-600.0, 150.0), Shift(-9000.0, 10.0)):
        built = build_averaged(grid, coefficient, shift)
        _, f = generate_rhs(grid, k_op, shift, 11)
        x, report = solve_shifted(k_op, shift, built, f, SolverConfig())
        again, again_report = solve_shifted(
            k_op, shift, SpectralPreconditioner(grid, built.weights.copy()), f, SolverConfig())
        assert np.array_equal(again, x)
        assert np.array_equal(again_report.residual_history, report.residual_history)


def test_shifted_laplacian_weight_rule_converges():
    config = SolverConfig()
    grid = GridSpec(31, 2)
    coefficient = separable_quadratic_coefficient()
    k_op = assemble_laplacian_2d_variable(grid, coefficient)
    iterations = {}
    for alpha, beta in DEFAULT_VARIABLE_SHIFTS + ((-9000.0, 10.0),):
        shift = Shift(alpha, beta)
        _, f = generate_rhs(grid, k_op, shift, 12)
        _, report = solve_shifted(k_op, shift, _shifted_laplacian(grid, coefficient.gamma, shift),
                                  f, config)
        assert report.converged and report.final_true_residual <= 10.0 * config.tol
        _, averaged = solve_shifted(k_op, shift, build_averaged(grid, coefficient, shift), f, config)
        iterations[alpha, beta] = (averaged.iterations, report.iterations)
    # both take 12-14 at the default shifts; near resonance the absolute
    # value takes far fewer (14 against 40)
    absolute, shifted = iterations[-9000.0, 10.0]
    assert absolute < shifted

    # the constant stencil solves in the sine basis, where a rule's weights
    # are its eigenvalues
    grid = GridSpec(63, 2)
    k_op = assemble_laplacian_2d_constant(grid)
    shift = Shift(-100.0, 1.0)
    _, f = generate_rhs(grid, k_op, shift, 13)
    _, report = solve_shifted(k_op, shift, _shifted_laplacian(grid, 1.0, shift), f, config)
    assert report.converged and report.final_true_residual <= 10.0 * config.tol


def test_materialize_block_power_consistency():
    grid = GridSpec(3, 2)
    p = build_averaged(grid, separable_quadratic_coefficient(), Shift(100.0, -100.0))
    b1 = p.materialize_block(1.0)
    b_half = p.materialize_block(0.5)
    b_inv = p.materialize_block(-1.0)
    scale = np.abs(b1).max()
    assert np.abs(b_half @ b_half - b1).max() <= 1e-11 * scale
    assert np.abs(b1 @ b_inv - np.eye(grid.m)).max() <= 1e-11


def test_length_and_dimension_validation():
    p = build_ideal(GridSpec(3, 2), Shift(1.0, 1.0))
    with pytest.raises(ValueError):
        p.apply_inverse(np.zeros(17))
    with pytest.raises(ValueError):
        _sine_basis_pinv(p, np.zeros(17))
    with pytest.raises(ValueError):
        build_averaged(GridSpec(3, 1), separable_quadratic_coefficient(), Shift(1.0, 1.0))


def test_concurrent_applies_match_serial(monkeypatch):
    # four callers share one preconditioner, each transform splits across
    # three workers (the gate is lowered for this small grid), and a tiny
    # switch interval interleaves them finely
    grid = GridSpec(255, 2)
    p = build_averaged(grid, separable_quadratic_coefficient(), Shift(-600.0, 150.0))
    rng = np.random.default_rng(23)
    inputs = rng.standard_normal((4, 2 * grid.m))
    monkeypatch.setattr(dst, "_cores", lambda: 1)
    serial = [p.apply_inverse(w) for w in inputs]
    monkeypatch.setattr(dst, "_cores", lambda: 3)
    monkeypatch.setattr(dst, "_SPLIT_BLOCKS", 2)
    results = [[] for _ in inputs]

    def caller(k):
        for _ in range(3):
            results[k].append(p.apply_inverse(inputs[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, expected in enumerate(serial):
        assert len(results[k]) == 3
        for got in results[k]:
            np.testing.assert_array_equal(got, expected)
