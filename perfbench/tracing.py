"""In-memory spans around the library's public calls.

A span is recorded by a wrapper installed under the name its caller looks
up: `abslap.bench` imports `minres_solve`, `generate_rhs`, `build_*` and
`assemble_*` by name, so those are wrapped on `abslap.bench`, not on their
home modules; operator methods are wrapped on their classes.  Spans stay in
memory and are summarised (or written out) when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Spans are recorded by one thread from a stack of open spans, so
children of one span run one after another inside it and never overlap.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

import abslap.bench as bench
from abslap.dst import SineTransform
from abslap.grid import StencilOperator
from abslap.precond import SpectralPreconditioner
from abslap.saddle import SaddleOperator


@contextmanager
def patched(entries):
    """Replace `owner.attr` by `make(current)` for each (owner, attr, make)
    entry, in order, for the duration of the block; then restore.

    A later entry for the same attribute wraps the earlier one's wrapper.
    """
    saved = []
    try:
        for owner, attr, make in entries:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# (owner, attribute, span name, starts a new row)
TARGETS = (
    (bench, "assemble_laplacian_2d_constant", "grid.assemble", False),
    (bench, "assemble_laplacian_2d_variable", "grid.assemble", False),
    # the preconditioner build is the first call of every bench row
    (bench, "build_ideal", "precond.build", True),
    (bench, "build_averaged", "precond.build", True),
    (bench, "generate_rhs", "bench.rhs", False),
    (bench, "minres_solve", "minres.solve", False),
    (bench, "verify_spectrum", "spectral.verify", False),
    (SineTransform, "apply", "dst.apply", False),
    (StencilOperator, "apply", "grid.stencil_apply", False),
    (StencilOperator, "dense", "spectral.dense", False),
    (SaddleOperator, "apply", "saddle.apply", False),
    (SaddleOperator, "dense", "spectral.dense", False),
    (SpectralPreconditioner, "apply_inverse", "precond.apply", False),
    (SpectralPreconditioner, "materialize_block", "spectral.dense", False),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    row: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; `row` is the bench row the open spans belong to.

    Rows are numbered across the whole run; set `row` to None between
    experiments so per-grid spans (assembly) belong to no row.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.row: int | None = None
        self._rows_started = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.row))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn, new_row: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_row:
                self.row = self._rows_started
                self._rows_started += 1
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def entries(self):
        """`patched` entries that wrap every target in a span."""
        return [(owner, attr,
                 lambda fn, name=name, new_row=new_row: self.wrap(name, fn, new_row))
                for owner, attr, name, new_row in TARGETS]


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the summed durations of the direct children."""
    selfs = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            selfs[s.parent] -= s.duration
    return selfs


def solve_split(spans: list[Span]) -> dict[str, float]:
    """Self time by layer over everything inside `minres.solve` spans.

    Checks on the way that no solve span's children add up to more than the
    span itself, i.e. that self time plus child time is its duration.
    """
    selfs = self_times(spans)
    split: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s.name == "minres.solve":
            assert selfs[i] >= -1e-9 * max(1.0, s.duration), f"solve span {i} overlaps"
        j = i
        while j is not None and spans[j].name != "minres.solve":
            j = spans[j].parent
        if j is not None:
            split[s.name] = split.get(s.name, 0.0) + selfs[i]
    return split
