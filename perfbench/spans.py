"""In-memory spans around calls into langlab, and the arithmetic on them.

A Recorder keeps one row per span: name, layer, start, end, parent row and
the model context (training step, eval batch or neither) it ran in.  Spans
are opened by wrappers that the benchmark installs around the library's
public functions and Tape methods from outside; the library is unchanged.
A wrapper opens a span only when the call crosses a layer boundary (the
innermost open span belongs to another layer), so a layer's internal calls
stay inside its own span and its self time is its span minus the union of
the spans of the other layers it called.

The pure functions at the bottom (interval union, self time, tail
percentile, padding fraction, failure tally) are what the benchmark reports;
test_arith.py checks them on synthetic inputs.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import inspect
import math
import time
from array import array

import numpy as np

NO_CONTEXT, TRAIN, EVAL = 0, 1, 2

# Units of model work, as (parent span, boundary child) for Recorder.windows:
# an optimizer step (batching, forward, loss, backward and the update) and an
# eval batch (batching, forward and loss).
STEP = ("training.train", "training.optimizer")
EVAL_BATCH = ("training.evaluate_perplexity", "numcore.cross_entropy")

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.ctx = array("b")
        self._open: list[int] = []
        self._open_layer: list[str] = []
        self._ctx_stack: list[int] = [NO_CONTEXT]
        self.counters: dict[tuple[int, str], float] = {}
        self.notes: dict[str, dict[int, float]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording

    def open(self, name: str, context: int | None = None) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
            self.layers.append(name.split(".", 1)[0])
        row = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        if context is not None:
            self._ctx_stack.append(context)
        self.ctx.append(self._ctx_stack[-1])
        self.end.append(0.0)
        self._open.append(row)
        self._open_layer.append(self.layers[nid])
        self.start.append(clock())
        return row

    def close(self, row: int, context: int | None = None) -> None:
        self.end[row] = clock()
        self._open.pop()
        self._open_layer.pop()
        if context is not None:
            self._ctx_stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, context: int | None = None):
        """A span around the benchmark's own call."""
        row = self.open(name, context)
        try:
            yield
        finally:
            self.close(row, context)

    def count(self, key: str, n: float) -> None:
        k = (self._ctx_stack[-1], key)
        self.counters[k] = self.counters.get(k, 0) + n

    def note(self, row: int, key: str, value: float) -> None:
        """Attach a value to one span row."""
        self.notes.setdefault(key, {})[row] = value

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner, attr: str, name: str, *, context: int | None = None,
             always: bool = False, after=None, modules=()) -> None:
        """Replace owner.attr (and every alias of it in ``modules``) with a
        wrapper that records a span named ``name``.

        ``always`` records even when the caller is in the same layer;
        ``context`` marks the span and its descendants as TRAIN or EVAL;
        ``after(recorder, row, args, kwargs, result)`` runs once the span
        closed.
        """
        fn = owner.__dict__[attr]
        layer = name.split(".", 1)[0]
        open_layer = self._open_layer
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not always and open_layer and open_layer[-1] == layer:
                return fn(*args, **kwargs)
            row = rec.open(name, context)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(row, context)
            if after is not None:
                after(rec, row, args, kwargs, out)
            return out

        for target in (owner, *modules):
            for key, value in list(vars(target).items()):
                if value is fn:
                    self._patches.append((target, key, value))
                    setattr(target, key, wrapper)

    def wrap_public(self, module, layer: str, modules=(), skip=()) -> None:
        """Wrap every public plain function the module defines in __all__,
        except generator functions (their work runs in the caller's loop)."""
        for attr in getattr(module, "__all__", ()):
            fn = module.__dict__.get(attr)
            if (attr in skip or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)):
                continue
            self.wrap(module, attr, f"{layer}.{attr}", modules=modules)

    def restore(self) -> None:
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()

    # ------------------------------------------------------------- queries

    def rows(self, name: str | None = None, layer: str | None = None,
             context: int | None = None):
        for row in range(len(self.name)):
            nid = self.name[row]
            if name is not None and self.names[nid] != name:
                continue
            if layer is not None and self.layers[nid] != layer:
                continue
            if context is not None and self.ctx[row] != context:
                continue
            yield row

    def duration(self, row: int) -> float:
        return self.end[row] - self.start[row]

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for row in range(len(self.parent)):
            p = self.parent[row]
            if p >= 0:
                kids.setdefault(p, []).append(row)
        return kids

    def self_times(self) -> list[float]:
        kids = self.children()
        out = []
        for row in range(len(self.name)):
            out.append(self_time(
                (self.start[row], self.end[row]),
                [(self.start[c], self.end[c]) for c in kids.get(row, ())],
            ))
        return out

    def windows(self, unit: tuple[str, str]) -> list[tuple[float, float]]:
        """(start, end) of each unit of work, in time order.  ``unit`` is
        (parent span, boundary child): a unit runs from the end of the
        previous boundary child (or the start of the parent) to the end of
        its own, so all work between two boundaries counts."""
        parent, boundary = unit
        kids = self.children()
        out = []
        for row in self.rows(name=parent):
            prev = self.start[row]
            for c in kids.get(row, ()):
                if self.names[self.name[c]] == boundary:
                    out.append((prev, self.end[c]))
                    prev = self.end[c]
        return out

    def per_window(self, windows: list[tuple[float, float]], key: str) -> list[float]:
        """Sum of the ``key`` notes of the rows that start inside each window."""
        starts = [a for a, _ in windows]
        totals = [0.0] * len(windows)
        for row, value in self.notes.get(key, {}).items():
            i = bisect.bisect_right(starts, self.start[row]) - 1
            if i >= 0 and self.start[row] < windows[i][1]:
                totals[i] += value
        return totals


# ------------------------------------------------------------- arithmetic


def union_length(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length covered by the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: tuple[float, float], children) -> float:
    """A span's duration minus the part of it its children cover."""
    lo, hi = span
    return (hi - lo) - union_length(children, lo, hi)


TAIL_LADDER = (500, 750, 900, 950, 990, 999)  # per mille


def tail_percentile(samples) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile on
    TAIL_LADDER that leaves at least ten samples beyond it, by nearest rank.
    Falls back to the median when fewer than 20 samples exist."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    best = None
    for per_mille in TAIL_LADDER:
        rank = max(1, -(-per_mille * n // 1000))  # ceil without float rounding
        if best is None or n - rank >= 10:
            best = (per_mille / 10, xs[rank - 1], n - rank)
    return best


def padding_fraction(targets, pad_id: int) -> tuple[int, int]:
    """(pad positions, computed positions) of a padded target batch."""
    t = np.asarray(targets)
    return int((t == pad_id).sum()), int(t.size)


class Tally:
    """Attempted and failed workload executions; a raise or a failed
    correctness check is one failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    @property
    def failed_frac(self) -> float:
        if self.attempted == 0:
            raise ValueError("nothing attempted")
        return self.failed / self.attempted
