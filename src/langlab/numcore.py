"""Dense float64 tensors with tape-based reverse-mode differentiation.

A Tape records every differentiable op it executes; Tape.backward consumes
the record in reverse, accumulating gradients into every leaf tensor on the
path to the loss.  A record holds a gradient slot for the op's output, not
the output itself, so an output's data lives only as long as its caller or a
backward rule that saved it.  Backward drops each op's record, with the arrays
its rule saved, and the gradient in the output's slot as soon as that rule has
run, so only leaf tensors (ones no op of the tape produced: parameters,
inputs) keep .grad, and a tape serves one backward.  Tensors are written once
by their producing op and treated as immutable afterwards; independent Tapes
are independent, so separate threads may each run their own.

The Tape has the nine ops that the two language models run, each emitting
one tape record: add, gelu, linear (x @ w + b over the last axis of x),
unembed (x @ table^T, the output projection tied to an embedding table),
embedding_lookup, causal_attention (multi-head masked self-attention),
lstm_layer (one LSTM layer), layer_norm and cross_entropy.  linear, unembed,
causal_attention and lstm_layer are fused, with hand-written backwards.
causal_attention and lstm_layer take padding-free packed rows: one row per
kept position, batch-major, the kept positions of each sequence a prefix of
it, named by a [batch, seq] mask.

A recorded op keeps only what its backward reads.  gelu keeps its derivative
dy/dx, not its input, and cross_entropy its gradient (softmax minus one-hot),
not the logits; their backward rules scale that array in place and return it,
so neither allocates one.  lstm_layer keeps its gate activations, cell states,
time-major input rows and its own output, not a time-major copy of the hidden
states or tanh of the cell states: its backward gathers h_{t-1} from the
output and recomputes tanh(c_t) one step at a time.

Freeing saved arrays mid-step would make glibc hand every buffer of 128 KB or
more back to the OS and fault it in again on its next use, so on import the
module fixes malloc's mmap threshold at 32 MiB and its trim threshold at
256 MiB, for the whole process; where libc has no mallopt, nothing changes.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable

import numpy as np

__all__ = ["Tensor", "Tape", "ShapeError", "MASK_FILL"]

MASK_FILL = -1e9  # finite, exp(masked - max) underflows to exactly 0.0
_LN_EPS = 1e-5  # added to layer_norm's variance
_GELU_ROWS = 64  # rows per gelu block


class ShapeError(ValueError):
    pass


def _fix_heap_thresholds() -> None:
    """Freed arrays of a training step stay in the heap for the next one."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt in this libc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


_fix_heap_thresholds()


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function from e = exp(-|x|), which cannot overflow: 1 / (1 + e)
    where x >= 0, else e / (1 + e).  out may be x itself."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = np.maximum(e, x >= 0, out=out)  # e <= 1, so 1 where x >= 0, else e
    e += 1.0
    y /= e
    return y


def _prefix_keep(keep, rows: int, what: str) -> np.ndarray:
    """keep as a [batch, seq] mask of row prefixes, one true entry per row."""
    keep = np.asarray(keep, dtype=bool)
    if keep.ndim != 2 or keep.sum() != rows or (keep[:, 1:] > keep[:, :-1]).any():
        raise ShapeError(f"{what} vs keep {keep.shape} ({keep.sum()}), a prefix of each row")
    return keep


class _Node:
    """The gradient slot of a recorded op output, held by the tape records
    in place of the output tensor, so the tape keeps no op output's data."""
    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


class Tensor:
    __slots__ = ("data", "grad", "_node")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None  # set by the Tape that records this output

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


# Backward rules receive the output gradient and return one gradient per
# input, in input order.
_BackwardFn = Callable[[np.ndarray], tuple]


class Tape:
    """Ordered record of executed ops; single-threaded by design."""

    def __init__(self, record: bool = True):
        self.record = record
        # (output's node, input nodes or leaf tensors, backward rule)
        self._records: list[tuple[_Node, tuple[_Node | Tensor, ...], _BackwardFn]] | None = []

    # ------------------------------------------------------------------ core

    def _emit(self, out_data: np.ndarray, inputs: tuple[Tensor, ...],
              bwd: _BackwardFn) -> Tensor:
        out = Tensor(out_data)
        if self.record:
            out._node = _Node()
            self._records.append((out._node, tuple(t._node or t for t in inputs), bwd))
        return out

    def backward(self, loss: Tensor) -> None:
        """Populate .grad for every leaf tensor reachable from loss, consuming
        the tape: each record is popped, run and dropped.  The records hold
        gradient slots, not op outputs, so an output's data lives only as
        long as its caller or a rule that saved it, and only leaf tensors get
        .grad.  The tape records nothing more, and a second backward raises
        ValueError."""
        if self._records is None:
            raise ValueError("backward: this tape was consumed by an earlier backward")
        if loss.shape != ():
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        records, self._records, self.record = self._records, None, False
        for _, inputs, _ in records:
            for t in inputs:
                t.grad = None
        (loss._node or loss).grad = np.ones(())
        while records:
            # rebinding drops the previous record, its closure and saved arrays
            node, inputs, bwd = records.pop()
            g, node.grad = node.grad, None
            if g is None:
                continue
            for t, gi in zip(inputs, bwd(g)):
                # never in place: a backward rule may return one array for
                # several inputs (add returns g twice)
                t.grad = gi if t.grad is None else t.grad + gi

    # ------------------------------------------------------- elementwise ops

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"add: shapes {a.shape} vs {b.shape}")
        return self._emit(a.data + b.data, (a, b), lambda g: (g, g))

    def gelu(self, a: Tensor) -> Tensor:
        """Gaussian error linear unit, tanh approximation.  Walks blocks of
        _GELU_ROWS rows (last-axis rows), so its one temporary is block-sized;
        a recorded call also writes dy/dx, which is all its rule keeps."""
        c = math.sqrt(2.0 / math.pi)
        x = a.data.reshape(-1)
        y = np.empty(a.shape)
        dy = np.empty(a.shape) if self.record else None
        step = _GELU_ROWS * (a.shape[-1] if a.shape else 1) or 1
        block = np.empty(min(step, x.size))
        for lo in range(0, x.size, step):
            xb = x[lo:lo + step]
            yb = y.reshape(-1)[lo:lo + step]
            t = block[:xb.size]
            # t = tanh(c * (x + 0.044715 * (x * x * x))), built in one buffer;
            # x * x * x, not x ** 3: numpy's float pow is ~40x slower
            np.multiply(xb, xb, out=t)
            t *= xb
            t *= 0.044715
            t += xb
            t *= c
            np.tanh(t, out=t)
            if dy is not None:
                # dy/dx = 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * du,
                # du = c * (1 + 3 * 0.044715 * (x * x)); yb holds the second term
                d = dy.reshape(-1)[lo:lo + step]
                np.multiply(t, t, out=d)
                np.subtract(1.0, d, out=d)
                np.multiply(xb, 0.5, out=yb)
                yb *= d
                np.multiply(xb, xb, out=d)
                d *= 3 * 0.044715
                d += 1.0
                d *= c
                yb *= d
                np.add(t, 1.0, out=d)
                d *= 0.5
                d += yb
            np.add(t, 1.0, out=yb)
            np.multiply(xb, 0.5, out=t)
            yb *= t  # 0.5 * x * (1 + t)

        return self._emit(y, (a,), lambda g: (np.multiply(dy, g, out=dy),))

    # ------------------------------------------------------- structural ops

    def linear(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """x @ w + b over the last axis of x: [..., in] to [..., out]."""
        if (x.data.ndim < 1 or w.data.ndim != 2 or x.shape[-1] != w.shape[0]
                or b.shape != w.shape[1:]):
            raise ShapeError(f"linear: x {x.shape}, w {w.shape}, b {b.shape}")
        x2 = x.data.reshape(-1, w.shape[0])
        y = x2 @ w.data
        y += b.data

        def bwd(g):
            g2 = g.reshape(-1, w.shape[1])
            return (g2 @ w.data.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0)

        return self._emit(y.reshape(x.shape[:-1] + w.shape[1:]), (x, w, b), bwd)

    def unembed(self, x: Tensor, table: Tensor) -> Tensor:
        """x [n, d] @ table [vocab, d]^T: scores of every table row, the
        output projection tied to an embedding table."""
        if x.data.ndim != 2 or table.data.ndim != 2 or x.shape[1] != table.shape[1]:
            raise ShapeError(f"unembed: x {x.shape} vs table {table.shape}")
        # (x^T g)^T, not g^T x: the table gradient keeps the BLAS summation
        # order of matmul(x, transpose(table)), bit for bit
        return self._emit(x.data @ table.data.T, (x, table),
                          lambda g: (g @ table.data, (x.data.T @ g).T))

    def embedding_lookup(self, table: Tensor, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if table.data.ndim != 2:
            raise ShapeError(f"embedding_lookup: table must be 2-d, got {table.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
            raise ShapeError(
                f"embedding_lookup: id out of range for table rows {table.shape[0]}"
            )

        def bwd(g):
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids.ravel(), g.reshape(-1, table.shape[1]))
            return (gt,)

        return self._emit(table.data[ids], (table,), bwd)

    # ----------------------------------------------------------- row-wise ops

    def causal_attention(self, q: Tensor, k: Tensor, v: Tensor, heads: int,
                         keep: np.ndarray) -> Tensor:
        """Multi-head causal self-attention of packed [rows, dim] inputs, one
        row per true entry of keep, a [batch, seq] mask of row prefixes: the
        rows are scattered into [batch, heads, seq, dim/heads] (zeros
        elsewhere), scores q @ k^T / sqrt(dim/heads) plus a causal mask (i
        attends to j <= i, all kept) softmaxed with max-subtraction, and the
        kept rows of the head outputs gathered."""
        what = f"causal_attention: q {q.shape}, k {k.shape}, v {v.shape}"
        if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
            raise ShapeError(what)
        keep = _prefix_keep(keep, q.shape[0], what)
        (batch, seq), dim = keep.shape, q.shape[1]
        if heads < 1 or dim % heads:
            raise ShapeError(f"causal_attention: dim {dim} not divisible by {heads} heads")
        dh = dim // heads

        def split(x):  # kept rows [n, d] -> [b, h, s, dh]
            full = np.zeros((batch, seq, heads, dh))
            full[keep] = x.reshape(-1, heads, dh)
            return full.transpose(0, 2, 1, 3)

        def merge(x):  # [b, h, s, dh] -> kept rows [n, d]
            return x.transpose(0, 2, 1, 3)[keep].reshape(-1, dim)

        qh, kh, vh = split(q.data), split(k.data), split(v.data)
        c = 1.0 / np.sqrt(dh)
        causal = np.where(np.tril(np.ones((seq, seq), dtype=bool)), 0.0, MASK_FILL)
        s = np.matmul(qh, kh.swapaxes(-1, -2))
        s *= c
        s += causal
        s -= s.max(axis=-1, keepdims=True)
        y = np.exp(s, out=s)
        y /= y.sum(axis=-1, keepdims=True)

        def bwd(g):
            gh = split(g)
            dy = np.matmul(gh, vh.swapaxes(-1, -2))
            dy -= (dy * y).sum(axis=-1, keepdims=True)
            ds = y * dy
            ds *= c
            return (merge(np.matmul(ds, kh)),
                    merge(np.matmul(ds.swapaxes(-1, -2), qh)),
                    merge(np.matmul(y.swapaxes(-1, -2), gh)))

        return self._emit(merge(np.matmul(y, vh)), (q, k, v), bwd)

    def lstm_layer(self, x: Tensor, wx: Tensor, wh: Tensor, b: Tensor,
                   keep: np.ndarray) -> Tensor:
        """One LSTM layer from a zero state over packed [rows, in] inputs, one
        row per true entry of keep, a [batch, seq] mask of row prefixes; wx
        [in, 4h], wh [h, 4h] and b [4h] hold the gates (input, forget, cell,
        output).  Returns the hidden states [rows, h] in the order of x.  The
        rows run time-major, longest sequence first (a stable sort), so step
        t computes only its n_t running sequences, the first n_t rows of step
        t - 1.  The backward walks time in reverse; the input projection and
        each weight gradient are one matmul over all rows.  A recorded call
        keeps the activations (which the backward overwrites with the gate
        gradients), the cell states, the time-major input rows and the
        output, from which the backward gathers h_{t-1}; it recomputes
        tanh(c_t) with the same np.tanh, gathers one step's rows of the output
        gradient at a time and frees the cell states before the weight
        gradients."""
        n = wh.shape[0] if wh.data.ndim == 2 else 0
        what = f"lstm_layer: x {x.shape}, wx {wx.shape}, wh {wh.shape}, b {b.shape}"
        if (x.data.ndim != 2 or n < 1 or wh.shape != (n, 4 * n)
                or wx.shape != (x.shape[1], 4 * n) or b.shape != (4 * n,)):
            raise ShapeError(what)
        keep = _prefix_keep(keep, x.shape[0], what)
        order = np.argsort(-keep.sum(axis=1), kind="stable")
        running = keep[order].T  # [seq, batch]
        rows = (np.cumsum(keep).reshape(keep.shape) - 1)[order].T[running]  # rows of x
        counts = running.sum(axis=1)
        bounds = [0] + np.cumsum(counts[counts > 0]).tolist()  # step t: bounds[t:t + 2]

        def gates(a):  # views of the (input, forget, cell, output) blocks
            return a[:, :n], a[:, n:2 * n], a[:, 2 * n:3 * n], a[:, 3 * n:]

        def before(t, m, slab):  # step t - 1's first m rows of a slab; 0 at t = 0
            return slab[bounds[t - 1]:bounds[t - 1] + m] if t else 0.0

        xt = x.data[rows]
        # pre-activations, overwritten step by step with the activations
        acts = xt @ wx.data
        acts += b.data
        hs, cs = np.zeros((len(rows), n)), np.zeros((len(rows), n))  # h_t, c_t
        tcs = np.empty((len(keep), n))  # tanh(c_t) of one step
        rec = np.empty((max(len(keep), 2), 4 * n))
        for t in range(len(bounds) - 1):
            lo, hi = bounds[t], bounds[t + 1]
            a = acts[lo:hi]
            if t:  # 2+ rows (hs has a 2nd): numpy's 1-row gemv rounds unlike gemm
                r = max(hi - lo, 2)
                a += np.matmul(before(t, r, hs), wh.data, out=rec[:r])[:hi - lo]
            g = np.tanh(a[:, 2 * n:3 * n])
            _sigmoid(a, out=a)
            a[:, 2 * n:3 * n] = g
            i, f, g, o = gates(a)
            np.add(f * before(t, hi - lo, cs), i * g, out=cs[lo:hi])
            np.multiply(o, np.tanh(cs[lo:hi], out=tcs[:hi - lo]), out=hs[lo:hi])
        back = np.argsort(rows)  # packed row order from time-major
        out = hs[back]

        def bwd(gout):
            nonlocal cs
            # the gate gradients overwrite the activations step by step: every
            # operand of a gate's gradient is read before its block is written
            dz = acts
            dh, dc = np.zeros((2, len(keep), n))  # a row that stops starts at 0
            for t in reversed(range(len(bounds) - 1)):
                lo, hi = bounds[t], bounds[t + 1]
                i, f, g, o = gates(acts[lo:hi])
                di, df, dg, do = gates(dz[lo:hi])
                d, c = dh[:hi - lo], dc[:hi - lo]
                tc = np.tanh(cs[lo:hi], out=tcs[:hi - lo])  # as the forward did
                d += gout[rows[lo:hi]]
                c += d * o * (1.0 - tc * tc)
                np.multiply(d * tc * o, 1.0 - o, out=do)
                cgi = c * g * i
                np.multiply(c * i, 1.0 - g * g, out=dg)
                np.multiply(cgi, 1.0 - i, out=di)
                cf = c * before(t, hi - lo, cs) * f
                c *= f
                np.multiply(cf, 1.0 - f, out=df)
                if t:
                    np.matmul(dz[lo:hi], wh.data.T, out=d)
            cs = None  # not read again: freed before the weight gradients
            # dwh: each row of steps t >= 1 by its h_{t-1}, a row of out
            first = counts[:1].sum()
            prev = rows[np.arange(first, len(rows)) - np.repeat(counts[:-1], counts[1:])]
            return ((dz @ wx.data.T)[back], xt.T @ dz, out[prev].T @ dz[first:],
                    dz.sum(axis=0))

        return self._emit(out, (x, wx, wh, b), bwd)

    def layer_norm(self, a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
        k = a.shape[-1]
        if gain.shape != (k,) or bias.shape != (k,):
            raise ShapeError(
                f"layer_norm: gain {gain.shape} / bias {bias.shape} vs rows of {a.shape}"
            )
        xhat = a.data - a.data.mean(axis=-1, keepdims=True)
        y = xhat * xhat
        std = np.sqrt(y.mean(axis=-1, keepdims=True) + _LN_EPS)
        xhat /= std
        np.multiply(xhat, gain.data, out=y)
        y += bias.data
        lead = tuple(range(a.data.ndim - 1))

        def bwd(g):
            # (gx - mean(gx) - xhat * mean(gx * xhat)) / std, gx = g * gain
            dx = g * gain.data
            m = dx.mean(axis=-1, keepdims=True)
            p = dx * xhat
            np.multiply(xhat, p.mean(axis=-1, keepdims=True), out=p)
            dx -= m
            dx -= p
            dx /= std
            np.multiply(g, xhat, out=p)
            dgain = p.sum(axis=lead) if lead else p
            dbias = g.sum(axis=lead) if lead else g
            return dx, dgain, dbias

        return self._emit(y, (a, gain, bias), bwd)

    # ------------------------------------------------------------- reductions

    def cross_entropy(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        """Mean negative log-likelihood of targets [n] (integer ids) under the
        row softmax of logits [n, vocab]; log-sum-exp uses max-subtraction."""
        targets = np.asarray(targets, dtype=np.int64)
        if logits.data.ndim != 2 or targets.shape != logits.shape[:1]:
            raise ShapeError(
                f"cross_entropy: logits {logits.shape} vs targets {targets.shape}"
            )
        n, vocab = logits.shape
        if n == 0:
            raise ValueError("cross_entropy: no targets")
        if targets.min() < 0 or targets.max() >= vocab:
            raise ValueError("cross_entropy: target id out of range")
        x, rows = logits.data, np.arange(n)
        m = x.max(axis=-1, keepdims=True)
        p = x - m
        np.exp(p, out=p)
        lse = m + np.log(p.sum(axis=-1, keepdims=True))
        loss = -(x[rows, targets] - lse[:, 0]).sum() / n
        if self.record:  # p = softmax - one-hot, the gradient of n * loss
            np.subtract(x, lse, out=p)
            np.exp(p, out=p)
            p[rows, targets] -= 1.0

        return self._emit(np.asarray(loss), (logits,),
                          lambda g: (np.multiply(p, float(g) / n, out=p),))
