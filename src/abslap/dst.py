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
O(n^2) matrix product.  The fast path works in place: a column pass
X -> S X, then a row pass X -> X S.  A pass walks X a block of columns, or
of rows, at a time.  Each block is copied, the column pass transposing it,
into a small buffer as rows of the zero-padded sequence [0, seq, 0, ..., 0]
of length 2(n+1); the imaginary part of its FFT is minus the sine sums,
which are written back over the block.  The buffer's zero columns are
written once, when it is made.  Both passes cut the same blocks, by
grid.blocks so that a block's buffer, spectrum and rows fit in
grid.BLOCK_BYTES, the budget every blocked pass of the solve shares; so no
full-size extension, transposed copy or intermediate is ever made.

A task is a group of blocks, the same block of consecutive arrays of the
stack, and makes one copy in, one FFT, one scale and one copy back.  On a
small grid those calls' overhead, not the FFT, sets the time, so arrays are
grouped while the group's spectrum, its largest temporary, fits in a
quarter of grid.BLOCK_BYTES (128 KiB): a (2, m) stack is one group up to
n = 63, and so a pass is one FFT call.  The quarter keeps each temporary
below glibc's default mmap threshold, also 128 KiB.  Larger groups were
slower, their temporaries faulted in afresh on every transform: with no
cap, a (2, m) group at n = 113 faulted 342 pages per transform and took 1.1
to 2.8 times as long as one task per array.  An array with n >= 64 has a
spectrum above half the cap, so it is a group of one; larger grids, whose
arrays span several blocks, make one task per (array, block).

A pass's tasks are independent, so the caller and one thread per further
core the process may run on, from an executor that lives for one
transform, take them from one shared queue, each with its own buffer.
Every block is read and written by one task with the serial arithmetic,
and the FFT transforms each row of its input alone, so a group gives the
bits its arrays give one at a time; the row pass starts once the column
pass is done, so the result is bit-identical to a serial pass.  numpy's
FFT, copies and products release the interpreter lock, so the tasks run in
parallel.  A shared queue rather than one fixed chunk per thread lets the
caller start at once and take over the tasks of a thread that starts late
or whose core is busy.  A grid whose half spans fewer than _SPLIT_BLOCKS
blocks (n < 623) is transformed in the caller alone and starts no thread.
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


def _pass_tasks(tasks, lock, rows: int, n: int) -> None:
    """a = a @ S in place for each task a taken from the shared iterator
    `tasks`, under `lock`, until it is exhausted.

    A task is a (width, n) view, one block whose rows are the sequences to
    transform: columns of a grid array, transposed, or its rows; or a
    (count, width, n) view, that block of count arrays.  Runs in the caller
    or in a pool worker; each call owns its extension buffer of `rows` rows,
    and the lock hands every task to exactly one call.
    """
    scale = -math.sqrt(2.0 / (n + 1))
    ext = np.zeros((rows, 2 * (n + 1)))  # columns 0 and n+1.. stay zero
    while True:
        with lock:
            a = next(tasks, None)
        if a is None:
            return
        e = ext[:a.size // n].reshape(*a.shape[:-1], -1)
        e[..., 1:n + 1] = a
        # scaled whole: numpy walks the imaginary part as one flat run, where
        # a slice of its columns would take two 64 KB iteration buffers
        sums = np.fft.rfft(e).imag
        np.multiply(sums, scale, out=sums)
        a[...] = sums[..., 1:n + 1]
        del sums  # the spectrum goes before the next task makes its own


def _dst2(x: np.ndarray) -> None:
    """x[b] = S x[b] S in place for each n-by-n array of a stack: a column
    pass, then a row pass, over the same (group, block) tasks.

    A grid whose half spans fewer than _SPLIT_BLOCKS blocks runs in the
    caller alone; a larger one splits each pass across every core: the
    caller and `workers - 1` calls on the pool take the tasks from one
    shared queue.
    """
    n = x.shape[-1]
    cuts = blocks(n, 16 * (n + 1) + 16 * (n + 2) + 8 * n)
    groups = blocks(len(x), 4 * 16 * (n + 2) * n)  # spectra in a quarter of the budget
    workers = min(_cores(), len(groups) * len(cuts)) if len(cuts) >= _SPLIT_BLOCKS else 1
    rows = cuts[0].stop * (groups[0].stop if groups else 0)  # the first task's, the largest
    # a group of one is indexed by its array, so its tasks are the 2D blocks
    # of an ungrouped pass: 3D views there raised the peak RSS of perfbench's
    # ideal_n1023 runs from 152 to 167 MB
    groups = [g.start if g.stop - g.start == 1 else g for g in groups]
    with ThreadPoolExecutor(workers - 1) if workers > 1 else contextlib.nullcontext() as pool:
        # block by block across the stack: threads taking consecutive tasks
        # then write different arrays, not cache lines at a block's edge
        for views in ((x[g, :, c].swapaxes(-1, -2) for c in cuts for g in groups),
                      (x[g, c] for c in cuts for g in groups)):
            args = (views, threading.Lock(), rows, n)
            futures = [pool.submit(_pass_tasks, *args) for _ in range(workers - 1)]
            _pass_tasks(*args)
            for future in futures:
                future.result()


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

    def apply(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """2D transform of a flat vector or of each row of a stack; same shape out.

        As in numpy, the result goes into out when it is given, and out is
        returned; otherwise into a new array.  out must be a C-contiguous
        float64 array of v's shape.  The transform runs in place in the
        result: v is copied into it once, or, when out is v itself, v is
        transformed where it stands.
        """
        x = grid_stack(v, self.n)
        if out is None:
            out = np.empty(np.shape(v))
        elif (not isinstance(out, np.ndarray) or out.shape != np.shape(v)
                or out.dtype != np.float64 or not out.flags.c_contiguous):
            raise ValueError(f"out must be a C-contiguous float64 array of shape "
                             f"{np.shape(v)}, got {getattr(out, 'shape', type(out))}")
        y = out.reshape(x.shape)
        np.copyto(y, x)  # a no-op when out is v: numpy skips a copy between identical views
        _dst2(y)
        return out

    def apply_reference(self, v: np.ndarray) -> np.ndarray:
        s = sine_matrix(self.n)
        return (s @ grid_stack(v, self.n) @ s).reshape(np.shape(v))
