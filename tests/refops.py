"""Tape ops that only the tests use: the loss reduction of the gradient checks
and the primitive rules the unfused references are built from.  Each is a
free function of a Tape that records through Tape._emit, like the library's
own ops, so finite_difference_check can run it on the Tapes it makes."""

import numpy as np

from langlab.numcore import _sigmoid


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


def add_bias(t, a, b):
    """a [n, k] + b [k]."""
    return t._emit(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0)))


def matmul(t, a, b):
    """a @ b over the last two axes, batched over the leading ones."""
    return t._emit(a.data @ b.data, (a, b),
                   lambda g: (g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g))


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
