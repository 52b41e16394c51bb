"""What only the tests use of a Tape: the finite-difference gradient check,
the loss reduction of the gradient checks, the primitive rules the unfused
references are built from and gelu's unblocked rule.  Each rule is a free
function of a Tape that records through Tape._emit, like the library's own
ops, so finite_difference_check can run it on the Tapes it makes."""

import math

import numpy as np

from langlab.numcore import Tape, Tensor, _sigmoid


def finite_difference_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``f`` must map (tape, tensor) to a scalar Tensor and be deterministic.
    Relative error per coordinate uses denominator max(|analytic|, |numeric|,
    1e-8).
    """
    if h <= 0:
        raise ValueError("step must be positive")
    base = x.data.copy()

    tape = Tape()
    probe = Tensor(base.copy())
    tape.backward(f(tape, probe))
    analytic = (probe.grad if probe.grad is not None
                else np.zeros_like(base)).ravel()

    def value_at(arr: np.ndarray) -> float:
        out = f(Tape(record=False), Tensor(arr))
        return float(out.data)

    worst = 0.0
    flat = base.ravel()
    for i in range(flat.size):
        plus = flat.copy()
        plus[i] += h
        minus = flat.copy()
        minus[i] -= h
        numeric = (value_at(plus.reshape(base.shape))
                   - value_at(minus.reshape(base.shape))) / (2 * h)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


def dot(t, a, b):
    """sum(a * b), the scalar loss of the gradient checks."""
    return t._emit(np.asarray((a.data * b.data).sum()), (a, b),
                   lambda g: (g * b.data, g * a.data))


def mul(t, a, b):
    return t._emit(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(t, a, c):
    return t._emit(a.data * c, (a,), lambda g: (g * c,))


def tanh(t, a):
    y = np.tanh(a.data)
    return t._emit(y, (a,), lambda g: (g * (1.0 - y * y),))


def sigmoid(t, a):
    y = _sigmoid(a.data)
    return t._emit(y, (a,), lambda g: (g * y * (1.0 - y),))


def gelu(t, a):
    """Tape.gelu unblocked: whole-array temporaries, and dy/dx formed in the
    rule from the saved input and tanh."""
    x, c = a.data, math.sqrt(2.0 / math.pi)
    th = np.tanh(c * (x + 0.044715 * (x * x * x)))

    def bwd(g):
        du = c * (1.0 + 3 * 0.044715 * (x * x))
        return (g * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * du),)

    return t._emit(0.5 * x * (1.0 + th), (a,), bwd)


def add_bias(t, a, b):
    """a [n, k] + b [k]."""
    return t._emit(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0)))


def matmul(t, a, b):
    """a @ b over the last two axes, batched over the leading ones."""
    return t._emit(a.data @ b.data, (a, b),
                   lambda g: (g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g))


def transpose(t, a):
    """Swap the last two axes."""
    return t._emit(a.data.swapaxes(-1, -2), (a,), lambda g: (g.swapaxes(-1, -2),))


def softmax(t, a):
    """Softmax over the last axis with max-subtraction."""
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return t._emit(y, (a,), lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),))


def reshape(t, a, shape):
    return t._emit(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def take(t, a, index):
    """a.data[index], its gradient scattered back into zeros."""

    def bwd(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return t._emit(a.data[index], (a,), bwd)


def concat(t, parts, axis):
    offsets = np.cumsum([p.shape[axis] for p in parts])[:-1]
    return t._emit(np.concatenate([p.data for p in parts], axis=axis), tuple(parts),
                   lambda g: tuple(np.split(g, offsets, axis=axis)))
