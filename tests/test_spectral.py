"""Constructive block eigendecomposition, interval bounds, and certificates."""

import hashlib
import json
import math

import numpy as np
import pytest

from abslap.bench import DEFAULT_CONSTANT_SHIFTS, DEFAULT_VARIABLE_SHIFTS
from abslap.dst import sine_matrix
from abslap.grid import (
    CoefficientField,
    GridSpec,
    StencilOperator,
    assemble_laplacian_2d_constant,
    assemble_laplacian_2d_variable,
    constant_coefficient,
    separable_quadratic_coefficient,
    smallest_laplacian_eigenvalue,
    swap_blocks,
)
from abslap.minres import bound_iterations
from abslap.oracle import averaged_preconditioner_dense, saddle_block_dense
from abslap.precond import build_averaged
from abslap.saddle import Shift
from abslap.spectral import (
    BRANCH_ALPHA_NEG_VALID,
    BRANCH_ALPHA_NONNEG,
    BRANCH_VIOLATED,
    SPECTRUM_SLACK,
    SpectrumCertificate,
    abs_block_2x2,
    block_matrix,
    certificate_blocks,
    certificate_payload,
    compute_bounds,
    iteration_bound,
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


def test_verdict_is_pass_fail_or_skipped():
    poly = separable_quadratic_coefficient()
    assert verify_spectrum(GridSpec(3, 2), poly, Shift(100.0, 100.0)).verdict == "pass"
    # an interval that proves nothing is skipped
    assert verify_spectrum(GridSpec(3, 2), poly, Shift(-10000.0, 1.0)).verdict == "skipped"
    # a certified interval the spectrum leaves fails
    failed = SpectrumCertificate(eigenvalues=np.array([-2.0, 2.0]), interval_lo_pos=0.5,
                                 interval_hi_pos=1.5, max_violation=0.5,
                                 branch=BRANCH_ALPHA_NONNEG, certified=True)
    assert failed.verdict == "fail"


def _k_op(grid, coefficient):
    if coefficient.is_constant_one:
        return assemble_laplacian_2d_constant(grid)
    return assemble_laplacian_2d_variable(grid, coefficient)


def _k_dense(grid, coefficient):
    return _k_op(grid, coefficient).dense()


# a(x1, x2) = 1 + x1 is not symmetric under the axis swap, so its certificate
# takes the one-block route
ASYMMETRIC = CoefficientField(lambda x1, x2: 1.0 + x1 + 0.0 * x2, 1.0, 2.0)


@pytest.mark.parametrize("n", (3, 7))
@pytest.mark.parametrize("coefficient", (constant_coefficient(1.0), separable_quadratic_coefficient(),
                                         ASYMMETRIC),
                         ids=("const", "example2", "asymmetric"))
def test_certificate_matches_dense_generalized_eigenvalues(n, coefficient):
    """The certificate's eigenvalues are those of P^-1 A with P and A built by
    the dense oracles, on both default sweeps and one uncertified shift."""
    grid = GridSpec(n, 2)
    k_dense = _k_dense(grid, coefficient)
    l_dense = assemble_laplacian_2d_constant(grid).dense()
    for alpha, beta in DEFAULT_CONSTANT_SHIFTS + DEFAULT_VARIABLE_SHIFTS + ((-10000.0, 1.0),):
        shift = Shift(alpha, beta)
        p = averaged_preconditioner_dense(l_dense, coefficient.gamma, shift)
        expected = np.sort(np.linalg.eigvals(np.linalg.solve(p, saddle_block_dense(k_dense, shift))).real)
        got = np.sort(verify_spectrum(grid, coefficient, shift).eigenvalues)
        assert got.shape == (2 * grid.m,)
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max(), (alpha, beta)


def test_only_an_axis_swap_symmetric_stencil_is_split(monkeypatch):
    # the built-in coefficients take two half-size Hermitian eigensolves and
    # no m-by-m one; the asymmetric coefficient takes the one plain block.
    # No SVD is taken and no dense K is formed.
    orders = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(a, *args, **kwargs):
        orders.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("verify_spectrum must not call this")

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    monkeypatch.setattr(np.linalg, "svd", refused)
    monkeypatch.setattr(StencilOperator, "dense", refused)
    for coefficient, expected in ((constant_coefficient(1.0), [(28, 28), (21, 21)]),
                                  (separable_quadratic_coefficient(), [(28, 28), (21, 21)]),
                                  (ASYMMETRIC, [(49, 49)])):
        orders.clear()
        verify_spectrum(GridSpec(7, 2), coefficient, Shift(100.0, 100.0))
        assert orders == expected


COEFFICIENTS = (constant_coefficient(1.0), separable_quadratic_coefficient(), ASYMMETRIC)
COEFFICIENT_IDS = ("const", "example2", "asymmetric")


@pytest.mark.parametrize("n", (1, 2, 3, 7, 15))
@pytest.mark.parametrize("coefficient", COEFFICIENTS, ids=COEFFICIENT_IDS)
def test_edge_gathered_blocks_match_the_dense_gather(n, coefficient):
    """Each K_b that StencilOperator.block scatters on a swap basis equals
    c c' (K[rows, rows] + sign K[rows, swapped]) gathered from the dense K,
    and the stencil's swap_symmetric agrees with the dense test for
    K = Pi K Pi.  dense() is block() on the plain basis, so the plain basis
    is pinned by the hashes below instead."""
    grid = GridSpec(n, 2)
    k_op = _k_op(grid, coefficient)
    k_dense = k_op.dense()
    swap = np.arange(grid.m).reshape(n, n).T.ravel()
    assert k_op.swap_symmetric == np.array_equal(k_dense, k_dense[np.ix_(swap, swap)])
    for i, j, sign, c in swap_blocks(n, True):
        rows, swapped = i * n + j, j * n + i
        expected = np.outer(c, c) * (k_dense[np.ix_(rows, rows)]
                                     + sign * k_dense[np.ix_(rows, swapped)])
        got = k_op.block(i, j, sign, c)
        assert np.abs(got - expected).max(initial=0.0) <= 1e-14 * np.abs(expected).max(initial=0.0), sign


def _sha256(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


# sha256 of the float64 bytes of K's matrix forms, taken from the separate
# index-shift scatter dense() had before it became block() on the plain
# basis.  Every entry is an elementwise product or sum, so the bits do not
# depend on the machine or its BLAS.
DENSE_SHA256 = {
    ("const", 1): "fc57e20e0f4b24af2c72cdd8d1652a641c478704bfcbb087e8096dac9091af68",
    ("const", 2): "a766e8fa3e302cba7c85eb632ccc4c1b6a26e2b209ff45cafb59792614a03a61",
    ("const", 7): "33f8256f4dd96d11845bbb97306c08c023da881749043bbdb3addf2f20272476",
    ("const", 31): "24e5fce938a55970aa7ae2f64d56a11b29f8c11b78de71ec87f0716206b2f3b6",
    ("example2", 1): "3b34a120c939478e4f60263d23cc62eba1730666ee7cdbbff8444fab43824962",
    ("example2", 2): "d35383e4d61bf2d6f99a54dabc572e534b908b534abe086b0bb55ab3235c28d1",
    ("example2", 7): "cd61ae402981f769f144e1593aa6b897cb48537a76b042bac9bf1c25e53ae936",
    ("example2", 31): "7c3205b936ea2d93fa53e458efc763779b14388f17e97e3491b246750c56185e",
    ("asymmetric", 1): "e4ca49b45414f95d029f11e8fc1e066e1c8752932272d74e75b8ed4957744225",
    ("asymmetric", 2): "62b900a77d29a30b13b242264eff9dbdd5eb0c58f7dbfbd4583240fabe1bc249",
    ("asymmetric", 7): "269819774edff8f047d093342f4066f5f9fd98b3175bc8f3223c874bdefbd475",
    ("asymmetric", 31): "62c4ebe9c0f84879a934cc6e834d5da12d29030dd5511e7ab3e335e6d88e7f92",
}
# K_b on the symmetric and the antisymmetric basis at n=7, from the
# certificate's scatter as it was before it moved into grid
SWAP_BLOCK_SHA256 = {
    "const": ("459e7e19006dcbf89ce61139b39245ef358ca55070d87ab3316b8c9594a93f7a",
              "dac14959691b135930ea0a66fec0232f17e4d81bfab2b9ea06656e7801ab913e"),
    "example2": ("aa01c418beb9f3f402e856382ec50fea3c4da5b1898780bf5d1792dbc007a21e",
                 "3ade07ef6040f27c554a43298999876925d216cf202d0a239d36d37a387dca2a"),
}


@pytest.mark.parametrize("n", (1, 2, 7, 31))
@pytest.mark.parametrize("name, coefficient", tuple(zip(COEFFICIENT_IDS, COEFFICIENTS)),
                         ids=COEFFICIENT_IDS)
def test_dense_matrix_is_pinned_bit_for_bit(n, name, coefficient):
    assert _sha256(_k_dense(GridSpec(n, 2), coefficient)) == DENSE_SHA256[name, n]


@pytest.mark.parametrize("name, coefficient", tuple(zip(COEFFICIENT_IDS, COEFFICIENTS))[:2],
                         ids=COEFFICIENT_IDS[:2])
def test_swap_blocks_are_pinned_bit_for_bit(name, coefficient):
    k_op = _k_op(GridSpec(7, 2), coefficient)
    got = tuple(_sha256(k_op.block(i, j, sign, c)) for i, j, sign, c in swap_blocks(7, True))
    assert got == SWAP_BLOCK_SHA256[name]


@pytest.mark.parametrize("n", (1, 2, 3, 7, 15))
@pytest.mark.parametrize("coefficient", COEFFICIENTS, ids=COEFFICIENT_IDS)
def test_split_singular_values_match_the_full_matrix(n, coefficient):
    """The blocks' singular values are those of the full
    M_hat = D^-1/2 (W K W + lambda I) D^-1/2, taken by one dense SVD."""
    grid = GridSpec(n, 2)
    s = sine_matrix(n)
    w = np.kron(s, s)
    wkw = w @ _k_dense(grid, coefficient) @ w
    for shift in (Shift(100.0, 100.0), Shift(-600.0, 150.0), Shift(-10000.0, 1.0),
                  Shift(-9000.0, 10.0), Shift(-20000.0, 100.0), Shift(100.0, 0.0)):
        scale = build_averaged(grid, coefficient, shift).weights ** -0.5
        m_hat = (wkw + complex(shift.alpha, shift.beta) * np.eye(grid.m)) * np.outer(scale, scale)
        expected = np.linalg.svd(m_hat, compute_uv=False)[::-1]  # ascending
        got = verify_spectrum(grid, coefficient, shift).eigenvalues[grid.m:]
        assert np.abs(got - expected).max() <= 1e-13, (n, shift)


# both default sweeps, each shift once, and a shift far past resonance
SHARED_BLOCK_SHIFTS = tuple(dict.fromkeys(DEFAULT_CONSTANT_SHIFTS + DEFAULT_VARIABLE_SHIFTS
                                          + ((-9000.0, 10.0),)))


@pytest.mark.parametrize("n", (1, 3, 7, 15))
@pytest.mark.parametrize("coefficient", COEFFICIENTS, ids=COEFFICIENT_IDS)
def test_shared_blocks_give_the_same_certificate_bit_for_bit(n, coefficient):
    """One grid's certificate_blocks, handed to every shift, give each
    certificate exactly what verify_spectrum gives when it builds them."""
    grid = GridSpec(n, 2)
    blocks = certificate_blocks(grid, coefficient)
    built_for, parts = blocks
    assert built_for == (grid, coefficient)
    assert sum(i.size for i, _, _ in parts) == grid.m
    for alpha, beta in SHARED_BLOCK_SHIFTS:
        shift = Shift(alpha, beta)
        shared = verify_spectrum(grid, coefficient, shift, blocks)
        alone = verify_spectrum(grid, coefficient, shift)
        assert np.array_equal(shared.eigenvalues, alone.eigenvalues), (alpha, beta)
        assert (shared.interval_lo_pos, shared.interval_hi_pos) == (alone.interval_lo_pos,
                                                                    alone.interval_hi_pos)
        assert (shared.branch, shared.certified, shared.verdict) == (alone.branch, alone.certified,
                                                                     alone.verdict)
        assert shared.max_violation == alone.max_violation


def test_certificate_blocks_are_read_only_and_unchanged_by_a_sweep():
    grid, coefficient = GridSpec(7, 2), separable_quadratic_coefficient()
    blocks = certificate_blocks(grid, coefficient)
    # the two blocks' G0 are views of one contiguous store
    _, parts = blocks
    (_, _, g_sym), (_, _, g_anti) = parts
    store = g_sym.base
    assert store is g_anti.base and store.flags.c_contiguous
    assert store.size == g_sym.size + g_anti.size == 28 ** 2 + 21 ** 2
    before = [_sha256(a) for block in parts for a in block]
    for a in (store, *(a for block in parts for a in block)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    for alpha, beta in SHARED_BLOCK_SHIFTS:
        verify_spectrum(grid, coefficient, Shift(alpha, beta), blocks)
    assert [_sha256(a) for block in parts for a in block] == before


def test_blocks_of_another_grid_are_refused():
    coefficient = separable_quadratic_coefficient()
    with pytest.raises(ValueError, match="built for another grid or coefficient"):
        verify_spectrum(GridSpec(3, 2), coefficient, Shift(1.0, 1.0),
                        certificate_blocks(GridSpec(7, 2), coefficient))
    # same grid, same basis-vector count, another coefficient's K
    grid = GridSpec(7, 2)
    with pytest.raises(ValueError, match="built for another grid or coefficient"):
        verify_spectrum(grid, coefficient, Shift(100.0, 100.0),
                        certificate_blocks(grid, constant_coefficient(1.0)))


def test_verify_spectrum_caps():
    poly = separable_quadratic_coefficient()
    with pytest.raises(ValueError):
        verify_spectrum(GridSpec(63, 2), poly, Shift(1.0, 1.0))
    with pytest.raises(ValueError, match="capped at n=31, got 63"):
        certificate_blocks(GridSpec(63, 2), poly)
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
    # a non-finite entry would give no violation at all
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="diagonals must be finite and entrywise nonnegative"):
            verify_sandwich([1.0, bad, 2.0], ones)
        with pytest.raises(ValueError, match="diagonals must be finite and entrywise nonnegative"):
            verify_sandwich(ones, [1.0, 1.0, bad])


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
        bound = bound_iterations(outer, inner, inner, outer, spec.tol)
        assert row.iterations <= bound
        assert row.bound_iterations == bound


@pytest.mark.parametrize("coefficient_name", ["constant_one", "example2_poly"])
def test_iteration_bound_is_the_rows_bound(coefficient_name):
    """A bench row's bound is iteration_bound's, over each coefficient's
    default shifts and preconditioner."""
    from abslap.bench import ExperimentSpec, coefficient_from_spec, run_experiment

    spec = ExperimentSpec(grid_sizes=(7, 15, 63), coefficient=coefficient_name)
    coefficient = coefficient_from_spec(coefficient_name)
    rows = run_experiment(spec)
    assert len(rows) == 3 * 6
    for row in rows:
        assert row.error is None
        bound = iteration_bound(GridSpec(row.n, 2), coefficient, Shift(row.alpha, row.beta),
                                spec.tol)
        assert bound is not None and row.bound_iterations == bound
        assert row.iterations <= bound
    if coefficient_name == "constant_one":
        assert {row.bound_iterations for row in rows} == {2}


def test_iteration_bound_proves_nothing_off_the_sign_conditions():
    poly = separable_quadratic_coefficient()
    shift = Shift(-9000.0, 10.0)
    for n in (7, 15, 63):
        grid = GridSpec(n, 2)
        assert compute_bounds(poly, smallest_laplacian_eigenvalue(grid), shift).branch \
            == BRANCH_VIOLATED
        assert iteration_bound(grid, poly, shift, 1e-8) is None
    # an exact coefficient proves +-1 on every branch: two iterations
    assert iteration_bound(GridSpec(7, 2), constant_coefficient(3.0), shift, 1e-8) == 2


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
