"""Self-tests of the benchmark's own arithmetic, on synthetic inputs.

    python3 -m pytest -q perfbench/test_arith.py
"""

from __future__ import annotations

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import (  # noqa: E402
    STEP, Recorder, Tally, padding_fraction, self_time, tail_percentile,
    union_length,
)


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = list(range(1, 101))  # 100 samples: p90 leaves 10 beyond, p95 only 5
    assert tail_percentile(xs) == (90.0, 90, 10)
    xs = list(range(1000, 0, -1))  # order must not matter; p99 leaves 10
    assert tail_percentile(xs) == (99.0, 990, 10)
    assert tail_percentile(range(1, 21)) == (50.0, 10, 10)
    # too few samples for any tail: the median, with what lies beyond it
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0, 1)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_self_time_subtracts_union_of_overlapping_children():
    # children overlap each other ([1,3] and [2,5]) and stick out of the
    # parent ([8,12] is clipped to [8,10]): covered = 4 + 2
    assert self_time((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 4.0
    assert self_time((0.0, 10.0), [(2.0, 3.0), (2.0, 3.0)]) == 9.0  # duplicates
    assert self_time((0.0, 10.0), [(0.0, 10.0), (4.0, 6.0)]) == 0.0
    assert self_time((0.0, 10.0), []) == 10.0
    assert union_length([(5.0, 1.0), (11.0, 12.0)], 0.0, 10.0) == 0.0


def test_padding_fraction_of_hand_built_batch():
    batch = np.array([[1, 5, 6, 2],
                      [1, 7, 2, 0],
                      [1, 2, 0, 0]])
    targets = batch[:, 1:]
    assert padding_fraction(targets, 0) == (3, 9)
    assert padding_fraction(np.array([[4, 4]]), 0) == (0, 2)


def test_failed_frac_counts_raises_and_failed_checks():
    tally = Tally()
    with pytest.raises(ValueError):
        tally.failed_frac
    for ok in (True, False, True, True):  # one repetition failed
        tally.record(ok)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert math.isclose(tally.failed_frac, 0.25)


def test_step_windows_and_layer_boundaries():
    rec = Recorder()
    mod = types.SimpleNamespace()
    def inner(x):
        return x

    def outer(x):
        return mod.inner(x) + mod.inner(x)  # same layer: no span of its own

    mod.inner, mod.outer = inner, outer
    rec.wrap(mod, "inner", "toy.inner")
    rec.wrap(mod, "outer", "toy.outer")
    with rec.span("bench.run"):
        assert mod.outer(2) == 4
    assert [rec.names[n] for n in rec.name] == ["bench.run", "toy.outer"]
    rec.restore()
    assert mod.inner is inner and mod.outer is outer

    # two optimizer steps inside one train span, on a synthetic clock; each
    # step holds one loss call carrying its token count
    rec = Recorder()
    train = rec.open("training.train")
    for tokens in (5, 7):
        loss = rec.open("numcore.cross_entropy")
        rec.close(loss)
        rec.note(loss, "tokens", tokens)
        rec.close(rec.open("training.optimizer"))
    rec.close(train)
    clock = [(0.0, 10.0), (1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (8.0, 9.5)]
    for row, (a, b) in enumerate(clock):
        rec.start[row], rec.end[row] = a, b
    steps = rec.windows(STEP)
    assert steps == [(0.0, 4.0), (4.0, 9.5)]
    assert rec.per_window(steps, "tokens") == [5.0, 7.0]
    assert rec.self_times() == [5.5, 1.0, 1.0, 1.0, 1.5]
