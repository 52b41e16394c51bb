"""Training loop with linear warmup/decay schedule, Adam, and metric logging.

Each logged record carries the pre-update batch loss at that optimizer step,
the perplexity computed as exp of that same loss value, and the learning rate
used.  Runs are a pure function of (parameters, corpus, config): a fixed seed
reproduces the metric series byte for byte.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import models
from .corpusio import InputError, read_text, write_lines
from .numcore import Tape
from .tokenizer import PAD_ID

__all__ = [
    "TrainingConfig",
    "DivergenceError",
    "MetricRecord",
    "MetricSeries",
    "EvalResult",
    "lr_schedule",
    "AdamOptimizer",
    "train",
    "evaluate_perplexity",
]


@dataclass(frozen=True)
class TrainingConfig:
    total_steps: int = 120
    warmup_fraction: float = 0.14
    peak_lr: float = 3e-3
    batch_size: int = 64
    eval_every: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in (0, 1), got {self.warmup_fraction}"
            )
        if not 0.0 < self.peak_lr < math.inf:
            raise ValueError(f"peak_lr must be positive and finite, got {self.peak_lr}")
        if self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("batch_size, eval_every must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.eval_every > self.total_steps:
            raise ValueError(
                f"eval_every {self.eval_every} exceeds total_steps "
                f"{self.total_steps}, so no step would be logged"
            )


@dataclass(frozen=True)
class MetricRecord:
    step: int
    loss: float
    perplexity: float
    lr: float


@dataclass
class MetricSeries:
    group: str = ""
    arch: str = ""
    seed: int = 0
    records: list[MetricRecord] = field(default_factory=list)

    CSV_HEADER = "step,loss,perplexity,lr,group,arch,seed"

    def append(self, step: int, loss: float, lr: float) -> None:
        if self.records and step <= self.records[-1].step:
            raise ValueError("steps must be strictly increasing")
        self.records.append(MetricRecord(step, loss, math.exp(loss), lr))

    def to_csv(self, path: str | Path) -> None:
        tail = f"{self.group},{self.arch},{self.seed}"
        write_lines(path, [self.CSV_HEADER, *(
            f"{r.step},{r.loss:.17g},{r.perplexity:.17g},{r.lr:.17g},{tail}"
            for r in self.records)])

    @classmethod
    def from_csv(cls, path: str | Path) -> "MetricSeries":
        """The series to_csv wrote; a wrong header, a malformed row or no row
        at all is an InputError naming the file (and the row's line)."""
        lines = read_text(path).splitlines()
        if not lines or lines[0] != cls.CSV_HEADER:
            raise InputError(f"{path}: unexpected metrics CSV header")
        series = cls()
        for line_no, line in enumerate(lines[1:], 2):
            try:
                step, loss, ppl, lr, group, arch, seed = line.split(",")
                series.group, series.arch, series.seed = group, arch, int(seed)
                series.records.append(
                    MetricRecord(int(step), float(loss), float(ppl), float(lr))
                )
            except ValueError as exc:
                raise InputError(f"{path}: line {line_no}: {exc}") from exc
        if not series.records:
            raise InputError(f"{path}: no records")
        return series


class DivergenceError(FloatingPointError):
    """A training loss too large for its perplexity to be finite; the message
    names the first parameter, in init order, that holds NaN or inf, and
    ``series`` holds the metrics logged before the failing step."""

    def __init__(self, message: str, series: MetricSeries):
        super().__init__(message)
        self.series = series


@dataclass(frozen=True)
class EvalResult:
    loss: float
    perplexity: float
    tokens: int


def lr_schedule(step: int, config: TrainingConfig) -> float:
    """Linear ramp to peak_lr at ceil(warmup_fraction * total), then linear
    decay to zero at total_steps."""
    total = config.total_steps
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside 0..{total}")
    # the 1e-9 nudge keeps exact-integer products (0.14 * 200) from being
    # pushed to the next step by float rounding
    warmup_end = max(1, math.ceil(config.warmup_fraction * total - 1e-9))
    if step <= warmup_end:
        return config.peak_lr * step / warmup_end
    return config.peak_lr * (total - step) / (total - warmup_end)


# Adam's moment decay rates and denominator guard
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class AdamOptimizer:
    """Adam with bias correction and no weight decay."""

    def __init__(self):
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: models.ModelParameters,
             grads: dict[str, np.ndarray], step_num: int, lr: float) -> None:
        if step_num < 1:
            raise ValueError(f"step must be >= 1, got {step_num}")
        b1, b2 = _BETA1, _BETA2
        for name, tensor in params.tensors.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(tensor.data)
            elif g.shape != tensor.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter "
                    f"{name} shape {tensor.data.shape}"
                )
            m = self._m.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(tensor.data)
                self._v[name] = np.zeros_like(tensor.data)
            v = self._v[name]
            # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g * g, in
            # place: only the optimizer holds m and v
            a = np.multiply(g, 1 - b1)
            m *= b1
            m += a
            np.multiply(g, 1 - b2, out=a)
            a *= g
            v *= b2
            v += a
            # lr * m_hat / (sqrt(v_hat) + eps) in a and d
            np.divide(m, 1 - b1 ** step_num, out=a)
            a *= lr
            d = np.divide(v, 1 - b2 ** step_num)
            np.sqrt(d, out=d)
            d += _EPS
            a /= d
            # assignment (not in-place) so tensors referenced by old tapes
            # keep their values
            tensor.data = tensor.data - a


# the largest loss whose perplexity exp(loss) is a finite float
_MAX_LOSS = math.log(sys.float_info.max)


def _pad_batch(seqs: Sequence[tuple[int, ...]]) -> np.ndarray:
    width = max(len(s) for s in seqs)
    arr = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    for i, s in enumerate(seqs):
        arr[i, : len(s)] = s
    return arr


def _check_vocab(params: models.ModelParameters,
                 corpus: Sequence[tuple[int, ...]]) -> None:
    top = max(map(max, corpus))
    if top >= params.config.vocab:
        raise ValueError(
            f"vocab mismatch: corpus id {top} >= model vocab {params.config.vocab}"
        )


def train(
    params: models.ModelParameters,
    corpus: Sequence[tuple[int, ...]],
    config: TrainingConfig,
    group: str = "",
) -> tuple[MetricSeries, models.ModelParameters]:
    """Run config.total_steps Adam steps over seeded shuffled batches."""
    config.validate()
    if not corpus:
        raise ValueError("empty corpus")
    _check_vocab(params, corpus)

    rng = np.random.default_rng(config.seed)
    optimizer = AdamOptimizer()
    series = MetricSeries(group=group, arch=params.arch, seed=config.seed)

    def batches():
        while True:
            order = rng.permutation(len(corpus))
            for lo in range(0, len(corpus), config.batch_size):
                yield _pad_batch([corpus[i] for i in order[lo : lo + config.batch_size]])

    batch_iter = batches()
    for step in range(1, config.total_steps + 1):
        batch = next(batch_iter)
        keep = batch[:, 1:] != PAD_ID  # a prefix of each row: padding is on the right
        tape = Tape()
        logits = models.forward(params, batch[:, :-1], tape, keep.sum(1))
        loss = tape.cross_entropy(logits, batch[:, 1:][keep])
        del logits  # backward frees them with the loss record
        loss_value = float(loss.data)
        if not loss_value < _MAX_LOSS:
            bad = [n for n, t in params.tensors.items() if not np.isfinite(t.data).all()]
            raise DivergenceError(
                f"training diverged at step {step} (group {group!r}, "
                f"seed {config.seed}): loss {loss_value!r}"
                + (f"; parameter {bad[0]} holds NaN or inf" if bad else ""), series
            )
        tape.backward(loss)
        lr = lr_schedule(step, config)
        optimizer.step(params, {name: t.grad for name, t in params.tensors.items()},
                       step, lr)
        for t in params.tensors.values():
            t.grad = None  # this step's gradients die with it
        if step % config.eval_every == 0:
            series.append(step, loss_value, lr)
    return series, params


def evaluate_perplexity(
    params: models.ModelParameters,
    corpus: Sequence[tuple[int, ...]],
    batch_size: int = TrainingConfig.batch_size,
) -> EvalResult:
    """exp of the mean cross-entropy over all non-PAD target tokens."""
    if not corpus:
        raise ValueError("empty evaluation set")
    _check_vocab(params, corpus)
    total_nll = 0.0
    total_tokens = 0
    for lo in range(0, len(corpus), batch_size):
        batch = _pad_batch(corpus[lo : lo + batch_size])
        keep = batch[:, 1:] != PAD_ID
        tape = Tape(record=False)
        logits = models.forward(params, batch[:, :-1], tape, keep.sum(1))
        loss = tape.cross_entropy(logits, batch[:, 1:][keep])
        n = logits.shape[0]
        total_nll += float(loss.data) * n
        total_tokens += n
    mean = total_nll / total_tokens
    return EvalResult(mean, math.exp(mean), total_tokens)
