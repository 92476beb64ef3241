"""Sine transform correctness: involution, fast path, and diagonalization."""

import math
import threading
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from abslap import dst
from abslap import grid as grid_module
from abslap.dst import SineTransform, sine_matrix
from abslap.grid import (GridSpec, assemble_laplacian_2d_constant, laplacian_eigenvalues,
                         smallest_laplacian_eigenvalue)


def test_matrix_symmetric_and_involutory():
    for n in (1, 2, 3, 8, 15, 31):
        s = sine_matrix(n)
        np.testing.assert_allclose(s, s.T, rtol=0, atol=1e-15)
        np.testing.assert_allclose(s @ s, np.eye(n), rtol=0, atol=1e-12)


def test_normalization_and_size():
    # entry (1, 4) of the order-7 matrix is the normalization times sin(pi/2)
    assert sine_matrix(7)[0, 3] == pytest.approx(math.sqrt(2.0 / 8.0))


def test_unit_vector_value():
    # the corner unit vector maps to the outer square of the first column
    t = SineTransform(3)
    e = np.zeros(9)
    e[0] = 1.0
    column = np.array([0.5, math.sqrt(2.0) / 2.0, 0.5])
    np.testing.assert_allclose(t.apply(e), np.outer(column, column).ravel(),
                               rtol=0, atol=1e-14)


def test_zero_maps_to_zero():
    for n in (1, 5):
        t = SineTransform(n)
        np.testing.assert_array_equal(t.apply(np.zeros(n * n)), np.zeros(n * n))


def test_involution_on_random_vectors():
    rng = np.random.default_rng(42)
    for n in (1, 3, 7, 15, 31, 63, 127):
        t = SineTransform(n)
        for _ in range(5):
            v = rng.standard_normal(n * n)
            back = t.apply(t.apply(v))
            assert np.abs(back - v).max() <= 1e-12 * max(1.0, np.abs(v).max())


def test_fast_path_matches_reference():
    rng = np.random.default_rng(3)
    # non power-of-two-minus-one sizes exercise the generic embedding too
    for n in (1, 2, 3, 4, 7, 12, 15, 31, 63, 127):
        t = SineTransform(n)
        for _ in range(3):
            v = rng.standard_normal(n * n)
            fast = t.apply(v)
            ref = t.apply_reference(v)
            assert np.linalg.norm(fast - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


def test_two_dimensional_action_is_tensor_square():
    # the dense matrix is one-dimensional; the 2D action equals kron(s, s)
    n = 4
    t2 = SineTransform(n)
    s = sine_matrix(n)
    assert s.shape == (n, n)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(n * n)
    np.testing.assert_allclose(t2.apply(v), np.kron(s, s) @ v, rtol=0, atol=1e-12)


def test_diagonalization_of_the_stencil():
    for grid in (GridSpec(7, 2), GridSpec(15, 2)):
        op = assemble_laplacian_2d_constant(grid)
        t = SineTransform(grid.n)
        lam = laplacian_eigenvalues(grid)
        rng = np.random.default_rng(grid.n)
        for _ in range(5):
            v = rng.standard_normal(grid.m)
            left = t.apply(op.apply(t.apply(v)))
            assert np.linalg.norm(left - lam * v) <= 1e-11 * np.linalg.norm(lam * v)


def test_eigenvalue_examples():
    # diagonal modes (p, p) carry twice the one-axis eigenvalue
    lam_diagonal = np.diag(laplacian_eigenvalues(GridSpec(3, 2)).reshape(3, 3)) / 2.0
    np.testing.assert_allclose(lam_diagonal, [9.3726, 32.0, 54.6274], atol=1e-4)

    lam_single = laplacian_eigenvalues(GridSpec(1, 2))
    np.testing.assert_allclose(lam_single, [16.0], rtol=0, atol=1e-12)

    grid = GridSpec(3, 2)
    lam2 = laplacian_eigenvalues(grid)
    assert lam2.min() == pytest.approx(18.7452, abs=1e-4)
    assert lam2.min() == pytest.approx(smallest_laplacian_eigenvalue(grid), rel=1e-14)
    assert np.all(lam2 > 0.0)
    # eigenvalue multiset matches the dense operator's spectrum
    dense_eigs = np.linalg.eigvalsh(assemble_laplacian_2d_constant(grid).dense())
    np.testing.assert_allclose(np.sort(lam2), dense_eigs, rtol=1e-11)


def test_stacked_apply_matches_single_applies_and_reference():
    # even sizes; one column block up to n=100, two with a ragged last one at
    # n=127, five even ones at n=255
    rng = np.random.default_rng(11)
    for n in (1, 2, 4, 12, 100, 127, 255):
        t = SineTransform(n)
        stack = rng.standard_normal((2, n * n))
        kept = stack.copy()
        fast = t.apply(stack)
        assert fast.shape == stack.shape
        np.testing.assert_array_equal(stack, kept)
        for row, v in zip(fast, stack):
            np.testing.assert_array_equal(row, t.apply(v))
        ref = t.apply_reference(stack)
        assert ref.shape == stack.shape
        assert np.abs(fast - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


# (n, rfft calls per pass for stacks of 1, 2 and 3 arrays): a group's spectra
# fit in a quarter of the budget, so three arrays are one group up to n=51
# and two up to n=63; at n=64 every array is its own task
GROUPS = [(1, (1, 1, 1)), (2, (1, 1, 1)), (7, (1, 1, 1)), (31, (1, 1, 1)), (51, (1, 1, 1)),
          (52, (1, 1, 2)), (63, (1, 1, 2)), (64, (1, 2, 3))]


@pytest.mark.parametrize("n, calls", GROUPS)
def test_grouped_stack_is_bit_equal_to_per_array_applies(monkeypatch, n, calls):
    def no_executor(*args, **kwargs):
        raise AssertionError("executor constructed")

    monkeypatch.setattr(dst, "_cores", lambda: 3)
    monkeypatch.setattr(dst, "ThreadPoolExecutor", no_executor)
    rfft = np.fft.rfft
    seen = []  # (ndim, sequences) of each rfft input
    monkeypatch.setattr(np.fft, "rfft",
                        lambda a: seen.append((a.ndim, a.size // a.shape[-1])) or rfft(a))
    rng = np.random.default_rng(n)
    threads = threading.active_count()
    t = SineTransform(n)
    for count, per_pass in zip((1, 2, 3), calls):
        stack = rng.standard_normal((count, n * n))
        singles = []
        for v in stack:
            seen.clear()
            singles.append(t.apply(v))
            assert seen == [(2, n), (2, n)]  # a group of one: an ungrouped pass's 2D block
        seen.clear()
        fast = t.apply(stack)
        rows = [r for _, r in seen]
        assert (seen[0][0] == 3) == (per_pass < count)  # a group of several: one 3D view
        assert len(rows) == 2 * per_pass and sum(rows) == 2 * count * n
        assert rows[0] == n * -(-count // per_pass)
        np.testing.assert_array_equal(fast, singles)
        in_place = stack.copy()
        assert t.apply(in_place, out=in_place) is in_place
        np.testing.assert_array_equal(in_place, fast)
        ref = t.apply_reference(stack)
        assert np.abs(fast - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    assert threading.active_count() == threads


class CountingExecutor(ThreadPoolExecutor):
    built = 0

    def __init__(self, *args, **kwargs):
        CountingExecutor.built += 1
        super().__init__(*args, **kwargs)


def test_threaded_pass_is_bit_equal_to_serial(monkeypatch):
    # 3 workers is more than the cores of a small machine; n=300 ends each
    # half with a partial column block; the gate is lowered so these small
    # grids split
    monkeypatch.setattr(dst, "ThreadPoolExecutor", CountingExecutor)
    monkeypatch.setattr(dst, "_SPLIT_BLOCKS", 2)
    rng = np.random.default_rng(17)
    for n in (255, 300, 511):
        t = SineTransform(n)
        stack = rng.standard_normal((2, n * n))
        results = {}
        for workers in (1, 3):
            monkeypatch.setattr(dst, "_cores", lambda workers=workers: workers)
            CountingExecutor.built = 0
            results[workers] = (t.apply(stack[0]), t.apply(stack))
            assert CountingExecutor.built == (0 if workers == 1 else 2)
        for serial, threaded in zip(results[1], results[3]):
            np.testing.assert_array_equal(threaded, serial)
        assert t.apply(np.empty((0, n * n))).shape == (0, n * n)
        if n == 255:
            ref = t.apply_reference(stack)
            assert np.abs(results[3][1] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_out_argument_is_bit_equal_to_a_new_result(monkeypatch):
    # out= a separate array and out= the input itself, for a flat vector and
    # a stack, serial and threaded; the gate is lowered so n=255 splits
    monkeypatch.setattr(dst, "ThreadPoolExecutor", CountingExecutor)
    monkeypatch.setattr(dst, "_SPLIT_BLOCKS", 2)
    rng = np.random.default_rng(23)
    n = 255
    t = SineTransform(n)
    for workers in (1, 3):
        monkeypatch.setattr(dst, "_cores", lambda workers=workers: workers)
        for shape in ((n * n,), (2, n * n)):
            v = rng.standard_normal(shape)
            CountingExecutor.built = 0
            expected = t.apply(v)
            separate = np.empty(shape)
            assert t.apply(v, out=separate) is separate
            np.testing.assert_array_equal(separate, expected)
            assert t.apply(v, out=v) is v
            np.testing.assert_array_equal(v, expected)
            assert CountingExecutor.built == (0 if workers == 1 else 3)


@pytest.mark.parametrize("split, executors", [(dst._SPLIT_BLOCKS, 0), (2, 1)])
def test_transform_peak_memory_in_stacked_vectors(monkeypatch, split, executors):
    # tracemalloc peak above the input, in (2, m) stacks, at n=511: serial,
    # then with the gate lowered so two calls each hold a block's buffer and
    # spectrum.  In place nothing full-size is made; a new result is the
    # one full-size array.
    monkeypatch.setattr(dst, "ThreadPoolExecutor", CountingExecutor)
    monkeypatch.setattr(dst, "_SPLIT_BLOCKS", split)
    monkeypatch.setattr(dst, "_cores", lambda: 2)
    n = 511
    t = SineTransform(n)
    v = np.random.default_rng(31).standard_normal((2, n * n))
    t.apply(v)  # first-call caches are not the transform's
    for transform, limit in ((lambda: t.apply(v, out=v), 0.25), (lambda: t.apply(v), 1.25)):
        CountingExecutor.built = 0
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = transform()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert result.shape == v.shape
        assert CountingExecutor.built == executors
        assert (peak - base) / v.nbytes <= limit


def test_out_of_the_wrong_kind_rejected():
    t = SineTransform(3)
    v = np.ones(9)
    for out in (np.empty(10), np.empty((1, 9)), np.empty(9, dtype=np.float32),
                np.empty(18)[::2], [0.0] * 9):
        with pytest.raises(ValueError):
            t.apply(v, out=out)
    with pytest.raises(ValueError):
        t.apply(np.ones((2, 9)), out=np.empty(18))


def test_worker_exception_reraises_in_caller(monkeypatch):
    caller = threading.current_thread()
    serial_tasks = dst._pass_tasks

    def failing_tasks(*args):
        if threading.current_thread() is not caller:
            raise RuntimeError("worker failed")
        serial_tasks(*args)

    monkeypatch.setattr(dst, "_cores", lambda: 3)
    monkeypatch.setattr(dst, "_SPLIT_BLOCKS", 2)
    monkeypatch.setattr(dst, "_pass_tasks", failing_tasks)
    before = set(threading.enumerate())
    t = SineTransform(255)
    with pytest.raises(RuntimeError, match="worker failed"):
        t.apply(np.ones((2, 255 * 255)))
    assert set(threading.enumerate()) <= before


def test_grids_of_few_blocks_start_no_thread(monkeypatch):
    def no_executor(*args, **kwargs):
        raise AssertionError("executor constructed")

    monkeypatch.setattr(dst, "_cores", lambda: 3)
    monkeypatch.setattr(dst, "ThreadPoolExecutor", no_executor)
    rng = np.random.default_rng(19)
    threads = threading.active_count()
    for n in (31, 127, 511):
        t = SineTransform(n)
        stack = rng.standard_normal((2, n * n))
        ref = t.apply_reference(stack)
        assert np.abs(t.apply(stack) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert threading.active_count() == threads


class InlineExecutor:
    """Executor stand-in that records its size and runs nothing: its
    futures are done at once, so the caller takes every block from the
    shared queue and no thread starts."""
    sizes = []

    def __init__(self, workers):
        InlineExecutor.sizes.append(workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(None)
        return future


def test_thread_gate_switches_between_n_622_and_623(monkeypatch):
    # n=622 spans 30 column blocks of the shared budget and is the largest
    # grid transformed serially; n=623 spans 32 and splits across the cores
    monkeypatch.setattr(dst, "ThreadPoolExecutor", InlineExecutor)
    monkeypatch.setattr(dst, "_cores", lambda: 3)
    rng = np.random.default_rng(29)
    threads = threading.active_count()
    for n, blocks, sizes in ((622, 30, []), (623, 32, [2])):
        assert len(grid_module.blocks(n, 16 * (n + 1) + 16 * (n + 2) + 8 * n)) == blocks
        v = rng.standard_normal(n * n)
        InlineExecutor.sizes = []
        split = SineTransform(n).apply(v)
        assert InlineExecutor.sizes == sizes
        monkeypatch.setattr(dst, "_cores", lambda: 1)
        np.testing.assert_array_equal(split, SineTransform(n).apply(v))
        monkeypatch.setattr(dst, "_cores", lambda: 3)
    assert threading.active_count() == threads


def test_length_mismatch_rejected():
    t = SineTransform(3)
    with pytest.raises(ValueError):
        t.apply(np.zeros(3))
    with pytest.raises(ValueError):
        t.apply(np.zeros(10))
    with pytest.raises(ValueError):
        t.apply(np.zeros((2, 10)))
    with pytest.raises(ValueError):
        t.apply(np.zeros((1, 2, 9)))


def test_invalid_construction():
    with pytest.raises(ValueError):
        SineTransform(0)
    with pytest.raises(ValueError):
        SineTransform(-3)
