"""Orthonormal two-dimensional discrete sine transform (DST-I).

The length-n transform matrix S has entries sqrt(2/(n+1)) sin(jk pi/(n+1)),
j, k = 1..n.  With this normalization it is symmetric and orthogonal, hence
its own inverse, and a single code path serves forward and backward
transforms.  Applied along both axes it diagonalizes the
constant-coefficient Dirichlet Laplacian on the unit square; the
eigenvalues it exposes, in this module's mode order, are
grid.laplacian_eigenvalues.  This module holds the transform alone.

Two evaluation routes are kept deliberately separate so they can check each
other: a fast path built on a real FFT of length 2(n+1), and an explicit
O(n^2) matrix product.  The fast path is one pass, X -> X^T S, run twice:
(X^T S)^T S = S X S.  A pass walks the columns of X a block at a time.  Each
block is copied, transposed, into a small buffer as rows of the zero-padded
sequence [0, col, 0, ..., 0] of length 2(n+1); the imaginary part of its FFT
is minus the sine sums, which land in the matching rows of the output.  The
buffer's zero columns are written once, when it is made.  Both passes
walk the same column blocks, cut by grid.blocks so that a block's buffer,
spectrum and output rows fit in grid.BLOCK_BYTES, the budget every blocked
pass of the solve shares; so no full-size extension or transposed copy is
ever made.  The one full-size intermediate is the first pass's output; the
second pass writes into a new array or into the caller's `out`, which may
be the input.

A pass's (array, block) tasks are independent, so the caller and one thread
per further core the process may run on, from an executor that lives for
one transform, take them from one shared queue, each with its own buffer.
Every output row is written once with the serial arithmetic, so the result
is bit-identical to a serial pass.  numpy's FFT, copies and products release
the interpreter lock, so the blocks run in parallel.  A shared queue rather
than one fixed chunk per thread lets the caller start at once and take over
the blocks of a thread that starts late or whose core is busy.  A grid whose
half spans fewer than _SPLIT_BLOCKS blocks (n < 623) is transformed in the
caller alone and starts no thread.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .grid import blocks, grid_stack


def sine_matrix(n: int) -> np.ndarray:
    """Dense orthonormal DST-I matrix of order n."""
    if n < 1:
        raise ValueError(f"transform size must be >= 1, got {n}")
    j = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * (math.pi / (n + 1)))


# Threads start once a half spans this many column blocks of the shared
# budget grid.BLOCK_BYTES, that is for n >= 623; the timings that set it
# are in CHANGES.md.
_SPLIT_BLOCKS = 32


def _cores() -> int:
    """Cores this process may run on (every CPU where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pass_tasks(x: np.ndarray, out: np.ndarray, tasks, lock, rows: int) -> None:
    """out[b, cols] = x[b][:, cols].T @ S for each (b, cols) taken from the
    shared iterator `tasks`, under `lock`, until it is exhausted.

    Runs in the caller or in a pool worker; each call owns its extension
    buffer of `rows` rows, and the lock hands every block to exactly one call.
    """
    n = x.shape[-1]
    scale = -math.sqrt(2.0 / (n + 1))
    ext = np.zeros((rows, 2 * (n + 1)))  # columns 0 and n+1.. stay zero
    while True:
        with lock:
            task = next(tasks, None)
        if task is None:
            return
        b, cols = task
        e = ext[:cols.stop - cols.start]
        e[:, 1:n + 1] = x[b, :, cols].T
        np.multiply(np.fft.rfft(e).imag[:, 1:n + 1], scale, out=out[b, cols])


def _transpose_dst(x: np.ndarray, cols: list[slice], pool, workers: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """out[b] = x[b].T @ S for a stack x of n-by-n arrays, one column block at a time.

    The caller and `workers - 1` calls on `pool` take the (array, block)
    tasks from one shared queue.  out, a new array if None, must not
    overlap x: a block writes rows of out that later blocks read as columns.
    """
    tasks = iter([(b, c) for b in range(len(x)) for c in cols])
    lock = threading.Lock()
    if out is None:
        out = np.empty(x.shape)
    args = (x, out, tasks, lock, cols[0].stop)  # buffer rows: the first block's
    futures = [pool.submit(_pass_tasks, *args) for _ in range(workers - 1)]
    _pass_tasks(*args)
    for future in futures:
        future.result()
    return out


def _dst2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """S x[b] S for each n-by-n array of a stack, as two passes X -> X^T S.

    The second pass writes into out, a new array if None.  out may be x
    itself: the first pass has read all of x before the second starts.
    Both passes walk the same column blocks.  A grid whose half spans
    fewer than _SPLIT_BLOCKS of them runs in the caller alone; a larger one
    splits each pass across every core.
    """
    n = x.shape[-1]
    cols = blocks(n, 16 * (n + 1) + 16 * (n + 2) + 8 * n)
    workers = min(_cores(), len(x) * len(cols)) if len(cols) >= _SPLIT_BLOCKS else 1
    with ThreadPoolExecutor(workers - 1) if workers > 1 else contextlib.nullcontext() as pool:
        return _transpose_dst(_transpose_dst(x, cols, pool, workers), cols, pool, workers, out)


class SineTransform:
    """Involutory 2D DST-I plan on an n-by-n grid, acting on flat vectors.

    Both routes take a flat vector of length n*n or a stack of them, shape
    (B, n*n), and transform each row.  apply() uses the FFT embedding;
    apply_reference() multiplies by the dense transform matrix one axis at a
    time and exists as the independent slow route for tests.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"transform size must be >= 1, got {n}")
        self.n = n

    @property
    def size(self) -> int:
        return self.n * self.n

    def apply(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """2D transform of a flat vector or of each row of a stack; same shape out.

        As in numpy, the result goes into out when it is given, and out is
        returned; otherwise into a new array.  out must be a C-contiguous
        float64 array of v's shape, and may be v itself.
        """
        x = grid_stack(v, self.n)
        if out is None:
            return _dst2(x).reshape(np.shape(v))
        if (not isinstance(out, np.ndarray) or out.shape != np.shape(v)
                or out.dtype != np.float64 or not out.flags.c_contiguous):
            raise ValueError(f"out must be a C-contiguous float64 array of shape "
                             f"{np.shape(v)}, got {getattr(out, 'shape', type(out))}")
        _dst2(x, out.reshape(x.shape))
        return out

    def apply_reference(self, v: np.ndarray) -> np.ndarray:
        s = sine_matrix(self.n)
        return (s @ grid_stack(v, self.n) @ s).reshape(np.shape(v))
