"""Constructive block eigendecomposition, interval bounds, and certificates."""

import json
import math

import numpy as np
import pytest

from abslap.grid import (
    GridSpec,
    constant_coefficient,
    separable_quadratic_coefficient,
    smallest_laplacian_eigenvalue,
)
from abslap.minres import bound_iterations, symmetrize_intervals
from abslap.saddle import Shift
from abslap.spectral import (
    BRANCH_ALPHA_NEG_VALID,
    BRANCH_ALPHA_NONNEG,
    BRANCH_VIOLATED,
    SPECTRUM_SLACK,
    abs_block_2x2,
    block_matrix,
    certificate_payload,
    compute_bounds,
    verify_sandwich,
    verify_spectrum,
)


def test_block_matrix_assembly():
    m = block_matrix(2.0, np.array([[3.0]]))
    np.testing.assert_allclose(m, [[2.0, 3.0], [3.0, -2.0]], rtol=0, atol=0)


def test_abs_block_diagonal_case():
    q, eigs, abs_m = abs_block_2x2(1.0, np.array([[0.0]]))
    np.testing.assert_allclose(np.sort(eigs), [-1.0, 1.0], rtol=0, atol=0)
    np.testing.assert_allclose(abs_m, np.eye(2), rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.abs(q), np.eye(2), rtol=0, atol=1e-15)


def test_abs_block_two_by_two_closed_form():
    q, eigs, abs_m = abs_block_2x2(2.0, np.array([[3.0]]))
    r13 = math.sqrt(13.0)
    np.testing.assert_allclose(np.sort(eigs), [-r13, r13], rtol=1e-15)
    np.testing.assert_allclose(abs_m, r13 * np.eye(2), rtol=1e-14, atol=1e-13)
    m = block_matrix(2.0, np.array([[3.0]]))
    x = np.linalg.solve(abs_m, m)
    np.testing.assert_allclose(np.sort(np.linalg.eigvals(x).real), [-1.0, 1.0], atol=1e-13)


def test_abs_block_random_reconstruction():
    rng = np.random.default_rng(4)
    for trial in range(10):
        n = int(rng.integers(1, 9))
        theta = float(rng.standard_normal()) or 0.7
        if trial % 2 == 0:
            a_n = rng.standard_normal((n, n))
        else:
            a_n = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = block_matrix(theta, a_n)
        q, eigs, abs_m = abs_block_2x2(theta, a_n)

        scale = max(1.0, np.abs(m).max())
        rebuilt = (q * eigs[None, :]) @ q.conj().T
        assert np.abs(rebuilt - m).max() <= 1e-11 * scale
        assert np.abs(q.conj().T @ q - np.eye(2 * n)).max() <= 1e-11

        x = np.linalg.solve(abs_m, m)
        assert np.abs(x - x.conj().T).max() <= 1e-10
        assert np.abs(x.conj().T @ x - np.eye(2 * n)).max() <= 1e-10
        # real input must come back through real arrays
        if trial % 2 == 0:
            assert not np.iscomplexobj(abs_m)


def test_abs_block_rejects_singular_and_oversized():
    with pytest.raises(ValueError):
        abs_block_2x2(0.0, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        abs_block_2x2(1.0, np.zeros((129, 129)))
    with pytest.raises(ValueError):
        abs_block_2x2(1.0, np.zeros((2, 3)))


def test_bounds_unit_coefficient():
    b = compute_bounds(constant_coefficient(1.0), 18.0, Shift(5.0, 3.0))
    assert b.branch == BRANCH_ALPHA_NONNEG
    assert b.mu0 == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert b.theta1 == pytest.approx(1.0 / 3.0, rel=1e-15)
    inner, outer = b.interval
    assert (inner, outer) == (1.0 / b.mu0, b.mu0)


def test_bounds_variable_coefficient_nonneg():
    b = compute_bounds(separable_quadratic_coefficient(), 18.0, Shift(100.0, -100.0))
    assert b.branch == BRANCH_ALPHA_NONNEG
    assert b.mu0 == pytest.approx(math.sqrt(2.0 * 441.0 / 400.0), rel=1e-15)
    assert b.mu0 == pytest.approx(1.48492, abs=1e-5)
    assert b.theta1 == pytest.approx(0.37598, abs=1e-5)
    assert b.gamma == 420.0


def test_bounds_negative_shift_worked_value():
    c0 = smallest_laplacian_eigenvalue(GridSpec(63, 2))
    b = compute_bounds(separable_quadratic_coefficient(), c0, Shift(-100.0, 100.0))
    assert b.branch == BRANCH_ALPHA_NEG_VALID
    # mu0~ = sqrt(2) (c0*441 + 200) / (c0*420 + 0) with c0 about 19.734
    assert b.mu0_tilde == pytest.approx(1.519, abs=1e-3)
    assert 0.0 < b.mu1_tilde < b.mu0_tilde
    assert 0.0 < b.theta2 < 1.0


def test_branch_selection():
    coef = separable_quadratic_coefficient()
    c0 = smallest_laplacian_eigenvalue(GridSpec(7, 2))
    assert compute_bounds(coef, c0, Shift(0.0, 1.0)).branch == BRANCH_ALPHA_NONNEG
    assert compute_bounds(coef, c0, Shift(-100.0, 1.0)).branch == BRANCH_ALPHA_NEG_VALID
    assert compute_bounds(coef, c0, Shift(-10000.0, 1.0)).branch == BRANCH_VIOLATED
    with pytest.raises(ValueError):
        compute_bounds(coef, 0.0, Shift(1.0, 1.0))


def test_certificates_contain_dense_spectra():
    poly = separable_quadratic_coefficient()
    for n in (3, 7):
        grid = GridSpec(n, 2)
        for shift in (Shift(100.0, 100.0), Shift(-100.0, 100.0)):
            cert = verify_spectrum(grid, poly, shift)
            assert cert.certified
            assert cert.all_inside
            assert cert.max_violation <= SPECTRUM_SLACK
            assert cert.eigenvalues.size == 2 * grid.m
            mags = np.abs(cert.eigenvalues)
            assert mags.min() >= cert.interval_lo_pos - SPECTRUM_SLACK
            assert mags.max() <= cert.interval_hi_pos + SPECTRUM_SLACK


def test_exact_coefficient_is_certified_despite_sign_conditions():
    """With a constant coefficient the preconditioner is the exact absolute
    value, so the certificate must stay certified even when the negative-shift
    sign conditions fail, and the spectrum must be plus/minus one."""
    cert = verify_spectrum(GridSpec(7, 2), constant_coefficient(1.0), Shift(-100.0, 1.0))
    assert cert.branch == BRANCH_VIOLATED
    assert cert.certified
    assert cert.all_inside
    assert cert.interval_lo_pos == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert cert.interval_hi_pos == pytest.approx(math.sqrt(2.0), rel=1e-15)
    np.testing.assert_allclose(np.abs(cert.eigenvalues), 1.0, rtol=0, atol=1e-9)


def test_uncertified_variable_case_is_flagged():
    cert = verify_spectrum(GridSpec(3, 2), separable_quadratic_coefficient(),
                           Shift(-10000.0, 1.0))
    assert cert.branch == BRANCH_VIOLATED
    assert not cert.certified


def test_verify_spectrum_caps():
    poly = separable_quadratic_coefficient()
    with pytest.raises(ValueError):
        verify_spectrum(GridSpec(63, 2), poly, Shift(1.0, 1.0))
    with pytest.raises(ValueError):
        verify_spectrum(GridSpec(3, 1), poly, Shift(1.0, 1.0))


def test_sandwich_exact_endpoints():
    ones = np.ones(6)
    # equal diagonals pin the ratio at the lower endpoint sqrt(2)/2
    assert verify_sandwich(ones, ones, trials=50, seed=1) <= 1e-13
    mixed = np.hypot(ones, ones)
    assert float(mixed[0] / (ones[0] + ones[0])) == pytest.approx(math.sqrt(2.0) / 2.0)
    # a vanishing second part pins the ratio at the upper endpoint 1
    assert verify_sandwich(ones, np.zeros(6), trials=50, seed=2) <= 1e-13


def test_sandwich_random_diagonals():
    rng = np.random.default_rng(77)
    for _ in range(10):
        size = int(rng.integers(2, 40))
        h1 = rng.uniform(0.0, 50.0, size)
        h2 = rng.uniform(0.0, 50.0, size)
        h1[0] = max(h1[0], 1e-3)  # keep the summed diagonal nonzero everywhere
        h2[h1 + h2 == 0.0] = 1.0
        assert verify_sandwich(h1, h2, trials=300, seed=int(rng.integers(1 << 30))) <= 1e-12


def test_sandwich_validation():
    ones = np.ones(3)
    with pytest.raises(ValueError):
        verify_sandwich(-ones, ones)
    with pytest.raises(ValueError):
        verify_sandwich(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        verify_sandwich(ones, np.ones(4))
    with pytest.raises(ValueError):
        verify_sandwich(ones, ones, trials=0)


def test_mediant_inequality_randomized():
    rng = np.random.default_rng(13)
    for _ in range(200):
        size = int(rng.integers(1, 12))
        num = rng.uniform(0.1, 10.0, size)
        den = rng.uniform(0.1, 10.0, size)
        ratios = num / den
        mediant = num.sum() / den.sum()
        assert ratios.min() <= mediant <= ratios.max()


def test_iteration_bound_covers_observed_counts():
    """Feeding the certified intervals into the iteration bound can only
    overestimate the iterations a solve actually needs."""
    from abslap.bench import ExperimentSpec, run_experiment

    spec = ExperimentSpec(grid_sizes=(15,), shifts=((100.0, 100.0), (-600.0, 150.0)),
                          coefficient="example2_poly", preconditioner="averaged")
    rows = run_experiment(spec)
    poly = separable_quadratic_coefficient()
    for row in rows:
        assert row.error is None
        c0 = smallest_laplacian_eigenvalue(GridSpec(row.n, 2))
        bounds = compute_bounds(poly, c0, Shift(row.alpha, row.beta))
        inner, outer = bounds.interval
        a1, a2, a3, a4 = symmetrize_intervals(outer, inner, inner, outer)
        assert row.iterations <= bound_iterations(a1, a2, a3, a4, spec.tol)
        assert row.bound_iterations == bound_iterations(a1, a2, a3, a4, spec.tol)


def test_certificate_payload_schema():
    grid = GridSpec(3, 2)
    shift = Shift(100.0, 100.0)
    cert = verify_spectrum(grid, separable_quadratic_coefficient(), shift)
    payload = certificate_payload(grid, shift, cert)
    assert set(payload) == {"grid", "alpha", "beta", "branch", "certified",
                            "mu_bounds", "eigenvalue_extremes", "all_inside",
                            "max_violation"}
    assert payload["grid"] == {"n": 3, "dim": 2}
    assert set(payload["mu_bounds"]) == {"inner", "outer"}
    assert set(payload["eigenvalue_extremes"]) == {"min", "max", "min_abs", "max_abs"}
    round_tripped = json.loads(json.dumps(certificate_payload(grid, shift, cert)))
    assert round_tripped == payload
