import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from langlab import numcore
from langlab.numcore import (
    MASK_FILL,
    ShapeError,
    Tape,
    Tensor,
    _sigmoid,
)
from refops import (add_bias, concat, dot, finite_difference_check, matmul, mul, reshape,
                    scale, sigmoid, softmax, take, tanh, transpose)
from refops import gelu as unblocked_gelu

RNG = np.random.default_rng(7)


def rand(*shape):
    return Tensor(RNG.normal(size=shape))


# ------------------------------------------------------------ forward values


def test_softmax_uniform_row():
    y = softmax(Tape(), Tensor([[0.0, 0.0, 0.0]]))
    assert np.allclose(y.data, 1 / 3, atol=1e-15)


def test_softmax_rows_sum_to_one():
    y = softmax(Tape(), rand(5, 9))
    sums = y.data.sum(axis=-1)
    assert np.all(np.abs(sums - 1.0) <= 1e-12)
    assert np.all(y.data > 0) and np.all(y.data < 1)


def test_matmul_identity():
    a = RNG.normal(size=(3, 5))
    out = matmul(Tape(), Tensor(np.eye(3)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_layer_norm_against_scalar_oracle():
    # independent one-off mean/variance computation
    row = [1.0, 2.0, 3.0]
    eps = 1e-5
    mu = sum(row) / 3
    var = sum((v - mu) ** 2 for v in row) / 3
    expected = [(v - mu) / math.sqrt(var + eps) for v in row]
    out = Tape().layer_norm(Tensor([row]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    assert np.all(np.abs(out.data[0] - np.array(expected)) < 1e-12)


def test_cross_entropy_uniform_logits():
    tape = Tape()
    loss = tape.cross_entropy(Tensor(np.zeros((6, 10))), np.zeros(6, dtype=int))
    assert abs(float(loss.data) - math.log(10)) < 1e-12


def test_cross_entropy_near_one_hot():
    logits = np.zeros((1, 5))
    logits[0, 2] = 100.0
    loss = Tape().cross_entropy(Tensor(logits), np.array([2]))
    assert float(loss.data) < 1e-12


def test_cross_entropy_against_brute_force_oracle():
    logits = RNG.normal(size=(6, 7))
    targets = RNG.integers(0, 7, size=6)
    # direct softmax-then-log oracle
    total = 0.0
    for row, target in zip(logits, targets):
        p = np.exp(row) / np.exp(row).sum()
        total += -math.log(p[target])
    expected = total / 6
    loss = Tape().cross_entropy(Tensor(logits), targets)
    assert abs(float(loss.data) - expected) < 1e-12


def test_cross_entropy_ignore_id():
    """Targets are ignored by taking the masked rows of the logits first."""
    logits = RNG.normal(size=(4, 6))
    targets = np.array([2, 0, 0, 3])
    tape = Tape()
    keep = targets != 0
    loss = tape.cross_entropy(take(tape, Tensor(logits), keep), targets[keep])
    total = 0.0
    for t in (0, 3):
        p = np.exp(logits[t]) / np.exp(logits[t]).sum()
        total += -math.log(p[targets[t]])
    assert abs(float(loss.data) - total / 2) < 1e-12


def test_cross_entropy_all_ignored():
    tape = Tape()
    rows = take(tape, Tensor(np.zeros((2, 4))), np.zeros(2, dtype=bool))
    with pytest.raises(ValueError, match="no targets"):
        tape.cross_entropy(rows, np.zeros(0, dtype=int))


def test_cross_entropy_nonnegative():
    for _ in range(10):
        loss = Tape().cross_entropy(rand(6, 9), RNG.integers(0, 9, 6))
        assert float(loss.data) >= 0.0


# ----------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    tape = Tape()
    x = Tensor(RNG.normal(size=(3, 4)))
    tape.backward(dot(tape, x, Tensor(np.ones((3, 4)))))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_dot_square():
    tape = Tape()
    x = Tensor(RNG.normal(size=(5,)))
    tape.backward(dot(tape, x, x))
    assert np.allclose(x.grad, 2 * x.data, atol=1e-15)


def test_backward_requires_scalar():
    tape = Tape()
    x = Tensor(RNG.normal(size=(2, 2)))
    y = tape.add(x, x)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(y)


def test_gradient_accumulates_over_reuse():
    tape = Tape()
    x = Tensor(np.array(3.0))
    tape.backward(tape.add(x, x))
    assert x.grad == pytest.approx(2.0)


def test_backward_leaves_grad_on_leaves_only():
    tape = Tape()
    x = Tensor(RNG.normal(size=(3, 4)))
    w = Tensor(RNG.normal(size=(3, 4)))
    y = tape.gelu(x)
    loss = dot(tape, y, w)
    tape.backward(loss)
    assert x.grad is not None and w.grad is not None
    assert y.grad is None and loss.grad is None


def test_backward_consumes_the_tape():
    tape = Tape()
    x = Tensor(RNG.normal(size=(3, 4)))
    loss = dot(tape, tape.gelu(x), Tensor(np.ones((3, 4))))
    tape.backward(loss)
    grad = x.grad
    with pytest.raises(ValueError, match="consumed by an earlier backward"):
        tape.backward(loss)
    assert x.grad is grad


def _refs(a):
    """Weak references to an array and to the array it is a view of."""
    return [weakref.ref(a)] + ([weakref.ref(a.base)] if a.base is not None else [])


def test_tape_keeps_no_op_output_a_rule_did_not_save():
    """Records hold gradient slots, not outputs: before backward, an add
    output (no rule saves it) dies with the caller's reference, and so does a
    linear output that goes only to causal_attention (which saves its own
    padded copies); backward still reaches the leaves through the slots."""
    tape = Tape()
    x = Tensor(RNG.normal(size=(6, 4)))
    w = Tensor(RNG.normal(size=(4, 4)))
    b = Tensor(RNG.normal(size=4))
    s = tape.add(x, x)
    dead = _refs(s.data)
    q = tape.linear(tape.add(s, x), w, b)
    dead += _refs(q.data)
    y = tape.causal_attention(q, tape.linear(x, w, b), x, 2, np.ones((2, 3), dtype=bool))
    del s, q
    assert [r() is None for r in dead] == [True] * len(dead)
    tape.backward(dot(tape, y, Tensor(np.ones((6, 4)))))
    assert x.grad is not None and w.grad is not None and b.grad is not None


def test_saved_input_lives_until_backward_pops_its_record():
    """linear's rule saves its input array: it outlives the caller's
    reference and dies when backward pops the linear record, before the next
    rule runs."""
    tape = Tape()
    seen = []

    def noting(t):  # identity op whose rule notes whether linear's input is alive
        return tape._emit(t.data.copy(), (t,),
                          lambda g: (seen.append(ref() is not None), (g,))[1])

    x, w, b = rand(3, 4), rand(4, 2), rand(2)
    a = noting(x)  # its rule runs after linear's
    ref = weakref.ref(a.data)
    y = noting(tape.linear(a, w, b))  # its rule runs before linear's
    del a
    assert ref() is not None
    tape.backward(dot(tape, y, Tensor(np.ones((3, 2)))))
    assert seen == [True, False] and x.grad is not None


def _rule_and_saved(tape):
    """The backward rule of tape's last record and the arrays it holds."""
    rule = tape._records[-1][2]
    cells = [c.cell_contents for c in rule.__closure__ or ()]
    return rule, [v for v in cells if isinstance(v, np.ndarray)]


def _run_rule(rule, g):
    """rule(g) and the bytes it allocated at its peak."""
    tracemalloc.start()
    try:
        return rule(g), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gelu_rule_keeps_only_its_derivative():
    """A recorded gelu keeps one array of its input's shape, not the input,
    and its rule returns that array as the gradient, allocating none."""
    tape = Tape()
    x = rand(70, 30)
    tape.gelu(x)
    rule, saved = _rule_and_saved(tape)
    assert len(saved) == 1 and saved[0].shape == x.shape
    assert not np.shares_memory(saved[0], x.data)
    (grad,), allocated = _run_rule(rule, RNG.normal(size=x.shape))
    assert grad is saved[0] and allocated < 1024


def test_cross_entropy_rule_returns_its_saved_gradient():
    """A recorded cross_entropy keeps its gradient, not the logits, and its
    rule scales it in place and returns it, allocating no array."""
    tape = Tape()
    logits = rand(40, 30)
    tape.cross_entropy(logits, RNG.integers(0, 30, 40))
    rule, saved = _rule_and_saved(tape)
    assert len(saved) == 1 and saved[0].shape == logits.shape
    assert not np.shares_memory(saved[0], logits.data)
    (grad,), allocated = _run_rule(rule, np.ones(()))
    assert grad is saved[0] and allocated < 1024


def test_lstm_rule_keeps_output_activations_cells_and_inputs():
    """A recorded lstm_layer keeps its output (the returned tensor's array),
    the gate-activation slab, the time-major cell states and input rows, and
    one [batch, h] scratch in which its backward recomputes tanh(c_t): no
    time-major copy of the hidden states and no tanh(c_t) slab."""
    rng = np.random.default_rng(11)  # own generator: RNG's draws stay as they were
    keep = np.arange(6) < np.array([6, 3, 5, 1])[:, None]
    rows, n_in, n = int(keep.sum()), 3, 5
    tape = Tape()
    x, wx, wh, b = (Tensor(rng.normal(size=s))
                    for s in ((rows, n_in), (n_in, 4 * n), (n, 4 * n), (4 * n,)))
    y = tape.lstm_layer(x, wx, wh, b, keep)
    _, saved = _rule_and_saved(tape)
    floats = [a for a in saved if a.dtype.kind == "f"]
    assert sorted(a.shape for a in floats) == sorted(
        [(rows, n), (rows, 4 * n), (rows, n), (rows, n_in), (len(keep), n)])
    assert sum(a is y.data for a in floats) == 1
    assert not any(np.shares_memory(a, c) for a in floats for c in floats if a is not c)
    assert not any(np.shares_memory(a, x.data) for a in floats)


def test_docstrings_say_only_leaves_keep_grad():
    assert "only leaf tensors" in " ".join(numcore.__doc__.split())
    assert "leaf tensor" in " ".join(Tape.backward.__doc__.split())


# ------------------------------------------------- finite-difference checks


def fd(f, x, h=1e-5):
    err = finite_difference_check(f, x, h)
    assert err < 1e-6, f"finite-difference error {err:.3e}"


def test_fd_requires_positive_step():
    with pytest.raises(ValueError, match="step must be positive"):
        finite_difference_check(lambda t, x: dot(t, x, x), rand(2), h=0.0)


def test_fd_sum_of_squares_tight():
    err = finite_difference_check(
        lambda t, x: dot(t, x, x), rand(3, 3)
    )
    assert err < 1e-9


def test_fd_add():
    other = rand(3, 4)
    fd(lambda t, x: dot(t, t.add(x, other), t.add(x, other)), rand(3, 4))


def test_fd_add_bias():
    a = rand(6, 4)
    fd(lambda t, b: dot(t, add_bias(t, a, b), add_bias(t, a, b)), rand(4))
    bias = rand(4)
    fd(lambda t, x: dot(t, add_bias(t, x, bias), add_bias(t, x, bias)), rand(6, 4))


def test_fd_mul():
    other = rand(4, 2)
    fd(lambda t, x: dot(t, mul(t, x, other), x), rand(4, 2))


def test_fd_scale():
    fd(lambda t, x: dot(t, scale(t, x, -1.7), scale(t, x, 0.3)), rand(5))


def test_fd_matmul_2d():
    b = rand(4, 3)
    fd(lambda t, x: dot(t, matmul(t, x, b), matmul(t, x, b)), rand(2, 4))
    a = rand(2, 4)
    fd(lambda t, x: dot(t, matmul(t, a, x), matmul(t, a, x)), rand(4, 3))


def test_fd_matmul_batched():
    b = rand(2, 4, 3)
    fd(lambda t, x: dot(t, matmul(t, x, b), matmul(t, x, b)), rand(2, 5, 4))


def test_fd_transpose():
    fd(lambda t, x: dot(t, transpose(t, x), transpose(t, x)), rand(3, 5))


def test_fd_reshape():
    fd(lambda t, x: dot(t, reshape(t, x, (6,)), reshape(t, x, (6,))), rand(2, 3))


def test_fd_concat():
    other = rand(2, 3)
    fd(lambda t, x: dot(t, concat(t, [x, other], 1), concat(t, [other, x], 1)), rand(2, 3))


def test_fd_slice():
    fd(lambda t, x: dot(t, take(t, x, np.s_[:, 1:3]), take(t, x, np.s_[:, 2:4])), rand(3, 5))


def test_fd_embedding_lookup():
    ids = np.array([[0, 2], [1, 0]])
    fd(lambda t, x: dot(t, t.embedding_lookup(x, ids), t.embedding_lookup(x, ids)),
       rand(3, 4))


def test_fd_softmax():
    w = rand(4, 6)
    fd(lambda t, x: dot(t, softmax(t, x), w), rand(4, 6))


def test_fd_layer_norm():
    gain, bias = rand(5), rand(5)
    w = rand(3, 5)
    fd(lambda t, x: dot(t, t.layer_norm(x, gain, bias), w), rand(3, 5))
    x0 = rand(3, 5)
    fd(lambda t, g: dot(t, t.layer_norm(x0, g, bias), w), rand(5))
    fd(lambda t, b: dot(t, t.layer_norm(x0, gain, b), w), rand(5))


def test_fd_tanh_sigmoid_gelu():
    for op in (tanh, sigmoid, Tape.gelu):
        fd(lambda t, x, op=op: dot(t, op(t, x), op(t, x)), rand(3, 4))


@st.composite
def attention_case(draw):
    """(q, k, v, loss weights, heads) with batch 1-3, seq 1-6, heads in
    {1, 2, 4} dividing dim."""
    batch = draw(st.integers(1, 3))
    seq = draw(st.integers(1, 6))
    heads = draw(st.sampled_from((1, 2, 4)))
    dim = heads * draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, k, v, w = (Tensor(rng.normal(size=(batch, seq, dim))) for _ in range(4))
    return q, k, v, w, heads


@st.composite
def ragged_attention_case(draw):
    """(q, k, v, loss weights, heads, keep): packed rows for a prefix of 0
    to seq positions of each row, one row whole, with the shapes of
    attention_case."""
    batch = draw(st.integers(1, 3))
    seq = draw(st.integers(1, 6))
    heads = draw(st.sampled_from((1, 2, 4)))
    dim = heads * draw(st.integers(1, 3))
    lengths = [seq] + draw(st.lists(st.integers(0, seq), min_size=batch - 1,
                                    max_size=batch - 1))
    keep = np.arange(seq) < np.array(lengths)[:, None]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, k, v, w = (Tensor(rng.normal(size=(int(keep.sum()), dim))) for _ in range(4))
    return q, k, v, w, heads, keep


def full_attention(t, q, k, v, heads):
    """causal_attention of [batch, seq, dim] inputs with every position kept."""
    rows = (q.shape[0] * q.shape[1], q.shape[2])
    out = t.causal_attention(*(reshape(t, x, rows) for x in (q, k, v)), heads,
                             np.ones(q.shape[:2], dtype=bool))
    return reshape(t, out, q.shape)


def fd_scaled(f, x, h=1e-3):
    """Worst |analytic - numeric| over the largest gradient entry, the numeric
    gradient the fourth-order central difference
    (8 (f(x + h) - f(x - h)) - (f(x + 2h) - f(x - 2h))) / 12h.

    Attention gradients have entries near 0 by cancellation (softmax rows sum
    to 1), where the per-entry relative error of finite_difference_check
    measures round-off, not the gradient: it reaches 1e-3 on such entries for
    the per-head loop of primitive ops too.  Each difference quotient also
    carries a round-off of about eps * |f| / h, large next to a gradient far
    below |f|: an LSTM's wh gradient over two steps, 6.6e-5 with |f| = 0.57,
    read 1.13e-7 off at the second-order h = 1e-5.  The fourth-order stencil's
    O(h^4) truncation allows h = 1e-3, which cuts that round-off a hundredfold;
    its differences come first, so an f that h does not move reads exactly 0.
    """
    tape = Tape()
    probe = Tensor(x.data.copy())
    tape.backward(f(tape, probe))
    numeric = np.empty_like(x.data)
    for i in np.ndindex(x.shape):
        at = []
        for k in (-2, -1, 1, 2):
            moved = x.data.copy()
            moved[i] += k * h
            at.append(float(f(Tape(record=False), Tensor(moved)).data))
        numeric[i] = (8 * (at[2] - at[1]) - (at[3] - at[0])) / (12 * h)
    return np.max(np.abs(probe.grad - numeric)) / max(np.max(np.abs(numeric)), 1e-8)


@pytest.mark.parametrize("which", range(3), ids=("q", "k", "v"))
@given(case=attention_case())
@settings(max_examples=25, deadline=None)
def test_fd_causal_attention(which, case):
    *qkv, w, heads = case

    def f(t, x):
        args = list(qkv)
        args[which] = x
        return dot(t, full_attention(t, *args, heads), w)

    err = fd_scaled(f, qkv[which])
    assert err < 1e-7, f"finite-difference error {err:.3e}"


@pytest.mark.parametrize("which", range(3), ids=("q", "k", "v"))
@given(case=ragged_attention_case())
@settings(max_examples=25, deadline=None)
def test_fd_causal_attention_ragged(which, case):
    *qkv, w, heads, keep = case

    def f(t, x):
        args = list(qkv)
        args[which] = x
        return dot(t, t.causal_attention(*args, heads, keep), w)

    err = fd_scaled(f, qkv[which])
    assert err < 1e-7, f"finite-difference error {err:.3e}"


def _per_head_attention(t, q, k, v, heads):
    """Reference: one head at a time from the primitive rules of refops."""
    batch, seq, dim = q.shape
    dh = dim // heads
    causal = np.where(np.tril(np.ones((seq, seq), dtype=bool)), 0.0, MASK_FILL)
    mask = Tensor(np.broadcast_to(causal, (batch, seq, seq)).copy())
    outs = []
    for hd in range(heads):
        qh, kh, vh = (take(t, x, np.s_[..., hd * dh:(hd + 1) * dh]) for x in (q, k, v))
        scores = scale(t, matmul(t, qh, transpose(t, kh)), 1.0 / np.sqrt(dh))
        outs.append(matmul(t, softmax(t, t.add(scores, mask)), vh))
    return concat(t, outs, axis=2)


def test_causal_attention_matches_per_head_loop():
    """Same arithmetic as the per-head loop, up to BLAS summation order."""
    data = [RNG.normal(size=(3, 5, 8)) for _ in range(3)]
    w = rand(3, 5, 8)
    results = []
    for op in (full_attention, _per_head_attention):
        tape = Tape()
        qkv = [Tensor(x.copy()) for x in data]
        out = op(tape, *qkv, 4)
        tape.backward(dot(tape, out, w))
        results.append([out.data] + [x.grad for x in qkv])
    for fused, loop in zip(*results):
        assert np.max(np.abs(fused - loop)) < 1e-14


@pytest.mark.parametrize("which", range(2), ids=("k", "v"))
def test_causal_attention_is_causal(which):
    q, k, v = rand(2, 6, 4), rand(2, 6, 4), rand(2, 6, 4)
    base = full_attention(Tape(), q, k, v, 2).data
    for j in range(6):
        changed = [k.data.copy(), v.data.copy()]
        changed[which][:, j, :] += RNG.normal(size=(2, 4))
        out = full_attention(Tape(), q, Tensor(changed[0]), Tensor(changed[1]), 2).data
        assert out[:, :j].tobytes() == base[:, :j].tobytes()
        assert not np.array_equal(out[:, j:], base[:, j:])


def test_causal_attention_shape_errors():
    keep = np.ones((1, 2), dtype=bool)
    with pytest.raises(ShapeError, match="not divisible"):
        Tape().causal_attention(rand(2, 6), rand(2, 6), rand(2, 6), 4, keep)
    with pytest.raises(ShapeError, match=r"\(2, 4\).*\(3, 4\)"):
        Tape().causal_attention(rand(2, 4), rand(3, 4), rand(2, 4), 2, keep)
    with pytest.raises(ShapeError, match=r"v \(3, 4\) vs keep \(1, 2\) \(2\), a prefix"):
        Tape().causal_attention(rand(3, 4), rand(3, 4), rand(3, 4), 2, keep)
    with pytest.raises(ShapeError, match="a prefix of each row"):
        Tape().causal_attention(rand(1, 4), rand(1, 4), rand(1, 4), 2,
                                np.array([[False, True]]))


def lstm_tensors(batch, seq, n_in, n, seed):
    """(x, wx, wh, b, loss weights) of these sizes, normal draws of seed."""
    rng = np.random.default_rng(seed)
    shapes = ((batch, seq, n_in), (n_in, 4 * n), (n, 4 * n), (4 * n,), (batch, seq, n))
    return tuple(Tensor(rng.normal(size=s)) for s in shapes)


@st.composite
def lstm_case(draw):
    """lstm_tensors with batch 1-3, seq 1-6, in 1-5 and hidden 1-8."""
    batch, seq = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    n_in, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    return lstm_tensors(batch, seq, n_in, n, draw(st.integers(0, 2**32 - 1)))


@st.composite
def ragged_lstm_case(draw):
    """lstm_case's sizes with ragged lengths 0..seq, not all 0: (x, wx, wh, b,
    loss weights, keep), x and the loss weights packed rows."""
    batch, seq = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(0, seq), min_size=batch, max_size=batch)
                   .filter(any))
    n_in, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    keep = np.arange(seq) < np.array(lengths)[:, None]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = int(keep.sum())
    shapes = ((rows, n_in), (n_in, 4 * n), (n, 4 * n), (4 * n,), (rows, n))
    return tuple(Tensor(rng.normal(size=s)) for s in shapes) + (keep,)


def full_lstm(t, x, wx, wh, b):
    """lstm_layer of [batch, seq, in] inputs with every position kept."""
    batch, seq, n_in = x.shape
    out = t.lstm_layer(reshape(t, x, (batch * seq, n_in)), wx, wh, b,
                       np.ones((batch, seq), dtype=bool))
    return reshape(t, out, (batch, seq, -1))


@pytest.mark.parametrize("which", range(4), ids=("x", "wx", "wh", "b"))
@given(case=lstm_case())
# a wh gradient 1e-4 of |f|: 1.13e-7 at the second-order step of 1e-5
@example(case=lstm_tensors(1, 2, 5, 2, seed=2))
@settings(max_examples=20, deadline=None)
def test_fd_lstm_layer(which, case):
    *args, w = case

    def f(t, v):
        probe = list(args)
        probe[which] = v
        return dot(t, full_lstm(t, *probe), w)

    err = fd_scaled(f, args[which])
    assert err < 1e-7, f"finite-difference error {err:.3e}"


@pytest.mark.parametrize("which", range(4), ids=("x", "wx", "wh", "b"))
@given(case=ragged_lstm_case())
@settings(max_examples=20, deadline=None)
def test_fd_lstm_layer_ragged(which, case):
    *args, w, keep = case

    def f(t, v):
        probe = list(args)
        probe[which] = v
        return dot(t, t.lstm_layer(*probe, keep), w)

    err = fd_scaled(f, args[which])
    assert err < 1e-7, f"finite-difference error {err:.3e}"


def _per_step_lstm(t, x, wx, wh, b):
    """Reference: one timestep at a time from the primitive rules of refops."""
    batch, seq, n_in = x.shape
    n = wh.shape[0]
    h = c = Tensor(np.zeros((batch, n)))
    outs = []
    for step in range(seq):
        xs = take(t, x, np.s_[:, step])
        z = add_bias(t, t.add(matmul(t, xs, wx), matmul(t, h, wh)), b)
        gi, gf, go = (sigmoid(t, take(t, z, np.s_[:, k * n:(k + 1) * n])) for k in (0, 1, 3))
        gg = tanh(t, take(t, z, np.s_[:, 2 * n:3 * n]))
        c = t.add(mul(t, gf, c), mul(t, gi, gg))
        h = mul(t, go, tanh(t, c))
        outs.append(reshape(t, h, (batch, 1, n)))
    return concat(t, outs, axis=1)


def test_lstm_layer_matches_per_step_loop():
    """Same arithmetic as the per-step loop, up to summation order."""
    shapes = ((3, 5, 4), (4, 24), (6, 24), (24,))
    data = [RNG.normal(size=s) for s in shapes]
    w = rand(3, 5, 6)
    results = []
    for op in (full_lstm, _per_step_lstm):
        tape = Tape()
        args = [Tensor(a.copy()) for a in data]
        out = op(tape, *args)
        tape.backward(dot(tape, out, w))
        results.append([out.data] + [a.grad for a in args])
    for fused, loop in zip(*results):
        assert fused.shape == loop.shape
        assert np.all(np.abs(fused - loop) <= 1e-14 * np.maximum(np.abs(loop), 1.0))


@pytest.mark.parametrize("lengths", ([5, 0, 3], [1, 5, 5], [2, 1, 4], [0, 0, 0]))
def test_lstm_layer_ragged_matches_per_step_loop(lengths):
    """The packed rows and the four gradients are the per-step loop's over
    the full rectangle, at the kept positions, up to summation order."""
    rng = np.random.default_rng(13)  # own generator: RNG's draws stay as they were
    keep = np.arange(5) < np.array(lengths)[:, None]
    data = [rng.normal(size=s) for s in ((3, 5, 4), (4, 24), (6, 24), (24,))]
    w = Tensor(rng.normal(size=(int(keep.sum()), 6)))
    results = []
    for packed in (True, False):
        tape = Tape()
        args = [Tensor(data[0][keep] if packed else data[0])]
        args += [Tensor(a) for a in data[1:]]
        if packed:
            out = tape.lstm_layer(*args, keep)
        else:
            out = take(tape, _per_step_lstm(tape, *args), keep)
        tape.backward(dot(tape, out, w))
        grads = [a.grad for a in args]
        results.append([out.data, grads[0] if packed else grads[0][keep]] + grads[1:])
    for fused, loop in zip(*results):
        assert fused.shape == loop.shape
        assert np.all(np.abs(fused - loop) <= 1e-14 * np.maximum(np.abs(loop), 1.0))


def test_lstm_layer_is_causal():
    wx, wh, b = rand(3, 16), rand(4, 16), rand(16)
    x = RNG.normal(size=(2, 6, 3))
    base = full_lstm(Tape(), Tensor(x), wx, wh, b).data
    for j in range(6):
        changed = x.copy()
        changed[:, j, :] += RNG.normal(size=(2, 3))
        out = full_lstm(Tape(), Tensor(changed), wx, wh, b).data
        assert out[:, :j].tobytes() == base[:, :j].tobytes()
        assert not np.array_equal(out[:, j:], base[:, j:])


def test_lstm_layer_ragged_is_causal():
    """A change to one kept input row changes its own sequence's hidden
    states from that position on, and no bit of any other row."""
    rng = np.random.default_rng(17)  # own generator: RNG's draws stay as they were
    keep = np.arange(5) < np.array([3, 5, 0, 1])[:, None]
    wx, wh, b = (Tensor(rng.normal(size=s)) for s in ((3, 16), (4, 16), (16,)))
    x = rng.normal(size=(int(keep.sum()), 3))
    base = Tape().lstm_layer(Tensor(x), wx, wh, b, keep).data
    seq_of, pos_of = np.nonzero(keep)
    for r in range(len(x)):
        changed = x.copy()
        changed[r] += rng.normal(size=3)
        out = Tape().lstm_layer(Tensor(changed), wx, wh, b, keep).data
        later = (seq_of == seq_of[r]) & (pos_of >= pos_of[r])
        assert out[~later].tobytes() == base[~later].tobytes()
        assert (out[later] != base[later]).any(axis=1).all()


def test_lstm_layer_shape_errors():
    x, wx, wh, b = rand(6, 5), rand(5, 16), rand(4, 16), rand(16)
    keep = np.ones((2, 3), dtype=bool)
    Tape().lstm_layer(x, wx, wh, b, keep)
    for bad in ((x, rand(4, 16), wh, b), (x, rand(5, 12), wh, b),
                (x, wx, rand(4, 12), b), (x, wx, rand(3, 16), b),
                (x, wx, wh, rand(12)), (Tensor(rand(3, 5).data[None]), wx, wh, b)):
        with pytest.raises(ShapeError, match="lstm_layer"):
            Tape().lstm_layer(*bad, keep)
    # a wrong count, rank or non-prefix keep: the same text from both ops
    q = Tensor(np.zeros((6, 4)))
    for bad in (np.ones((2, 2), dtype=bool), np.ones(6, dtype=bool),
                np.array([[1, 0, 1, 1], [1, 1, 1, 0]], dtype=bool)):
        with pytest.raises(ShapeError, match=r"^lstm_layer: x \(6, 5\), .* vs keep") as err:
            Tape().lstm_layer(x, wx, wh, b, bad)
        with pytest.raises(ShapeError) as att_err:
            Tape().causal_attention(q, q, q, 2, bad)
        tail = f" vs keep {bad.shape} ({bad.sum()}), a prefix of each row"
        assert str(err.value).endswith(tail) and str(att_err.value).endswith(tail)


@st.composite
def linear_case(draw, rank):
    """(x, w, b, loss weights) with x of the given rank, leading dims 1-3
    and in/out dims 1-5."""
    lead = tuple(draw(st.integers(1, 3)) for _ in range(rank - 1))
    n_in, n_out = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = (lead + (n_in,), (n_in, n_out), (n_out,), lead + (n_out,))
    return tuple(Tensor(rng.normal(size=s)) for s in shapes)


@pytest.mark.parametrize("which", range(3), ids=("x", "w", "b"))
@pytest.mark.parametrize("rank", (2, 3))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fd_linear(rank, which, data):
    *args, w = data.draw(linear_case(rank))

    def f(t, v):
        probe = list(args)
        probe[which] = v
        return dot(t, t.linear(*probe), w)

    err = fd_scaled(f, args[which])
    assert err < 1e-7, f"finite-difference error {err:.3e}"


def test_linear_shape_errors():
    x, w, b = rand(2, 3, 4), rand(4, 5), rand(5)
    assert Tape().linear(x, w, b).shape == (2, 3, 5)
    for bad in ((rand(2, 3, 3), w, b), (x, rand(3, 5), b), (x, w, rand(4)),
                (x, rand(4, 5, 1), b), (x, w, rand(1, 5)), (rand(), w, b)):
        shapes = f"x {bad[0].shape}, w {bad[1].shape}, b {bad[2].shape}"
        with pytest.raises(ShapeError, match=re.escape(f"linear: {shapes}")):
            Tape().linear(*bad)


@st.composite
def unembed_case(draw):
    """(x, table, loss weights) with rows 1-6, dim 1-5 and vocab 1-7."""
    n, d, vocab = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return tuple(Tensor(rng.normal(size=s)) for s in ((n, d), (vocab, d), (n, vocab)))


@pytest.mark.parametrize("which", range(2), ids=("x", "table"))
@given(case=unembed_case())
@settings(max_examples=20, deadline=None)
def test_fd_unembed(which, case):
    *args, w = case

    def f(t, v):
        probe = list(args)
        probe[which] = v
        return dot(t, t.unembed(*probe), w)

    err = fd_scaled(f, args[which])
    assert err < 1e-7, f"finite-difference error {err:.3e}"


def test_unembed_shape_errors():
    def zeros(*shape):
        return Tensor(np.zeros(shape))

    x, table = zeros(3, 4), zeros(7, 4)
    assert Tape().unembed(x, table).shape == (3, 7)
    for bad in ((zeros(3, 5), table), (x, zeros(4, 7)), (zeros(2, 3, 4), table),
                (x, zeros(7, 4, 1)), (zeros(4), table)):
        with pytest.raises(ShapeError, match=re.escape(
                f"unembed: x {bad[0].shape} vs table {bad[1].shape}")):
            Tape().unembed(*bad)


def _grads_of(op, data, weights):
    """Output and input gradients of sum(op(*inputs) * weights); the weights
    reach op's backward bit for bit (1.0 * w)."""
    tape = Tape()
    inputs = [Tensor(a.copy()) for a in data]
    out = op(tape, *inputs)
    tape.backward(dot(tape, out, Tensor(weights)))
    return [out.data] + [t.grad for t in inputs]


def _assert_same_bytes(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_gelu_bit_identical_to_unbuffered_formula():
    x = RNG.normal(scale=4.0, size=(70, 30))
    g = RNG.normal(size=x.shape)
    _assert_same_bytes(_grads_of(Tape.gelu, [x], g), _grads_of(unblocked_gelu, [x], g))


@given(rows=st.sampled_from((1, 63, 64, 65, 130)), cols=st.integers(1, 9),
       lead=st.sampled_from(((), (2,))), scale=st.sampled_from((0.5, 4.0, 30.0)),
       record=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gelu_blocks_bit_identical_to_unblocked_rule(rows, cols, lead, scale, record, seed):
    """gelu's row blocks (64 rows) change no bit of its output or gradient,
    whether the rows end inside a block or on its edge, for 2-d and 3-d
    inputs, and with recording off."""
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=scale, size=lead + (rows, cols))
    if not record:
        _assert_same_bytes([Tape(record=False).gelu(Tensor(x)).data],
                           [unblocked_gelu(Tape(record=False), Tensor(x)).data])
        return
    g = rng.normal(size=x.shape)
    _assert_same_bytes(_grads_of(Tape.gelu, [x], g), _grads_of(unblocked_gelu, [x], g))


def test_layer_norm_bit_identical_to_unbuffered_formula():
    a, gain, bias = (RNG.normal(size=s) for s in ((4, 9, 16), (16,), (16,)))
    g = RNG.normal(size=a.shape)
    mu = a.mean(axis=-1, keepdims=True)
    d = a - mu
    var = (d * d).mean(axis=-1, keepdims=True)
    std = np.sqrt(var + 1e-5)
    xhat = d / std
    y = xhat * gain + bias
    gx = g * gain
    dx = (gx - gx.mean(axis=-1, keepdims=True)
          - xhat * (gx * xhat).mean(axis=-1, keepdims=True)) / std
    ref = [y, dx, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))]
    _assert_same_bytes(_grads_of(Tape.layer_norm, [a, gain, bias], g), ref)


@pytest.mark.parametrize("lead", ((24,), (4, 6)), ids=("2d", "3d"))
def test_linear_bit_identical_to_matmul_add_bias(lead):
    x, w, b = (RNG.normal(size=s) for s in (lead + (16,), (16, 32), (32,)))
    g = RNG.normal(size=lead + (32,))

    def unfused(t, x, w, b):
        y = add_bias(t, matmul(t, reshape(t, x, (24, 16)), w), b)
        return reshape(t, y, lead + (32,))

    _assert_same_bytes(_grads_of(Tape.linear, [x, w, b], g),
                       _grads_of(unfused, [x, w, b], g))


def test_unembed_bit_identical_to_matmul_of_transpose():
    rng = np.random.default_rng(19)  # own generator: RNG's draws stay as they were
    x, table, g = (rng.normal(size=s) for s in ((24, 16), (40, 16), (24, 40)))
    _assert_same_bytes(_grads_of(Tape.unembed, [x, table], g),
                       _grads_of(lambda t, x, e: matmul(t, x, transpose(t, e)), [x, table], g))


def test_cross_entropy_grad_bit_identical_to_unbuffered_formula():
    logits = RNG.normal(scale=3.0, size=(21, 11))
    targets = RNG.integers(0, 11, size=21)  # 21 targets: p / 21 and p * (1 / 21) differ
    tape = Tape()
    probe = Tensor(logits.copy())
    tape.backward(tape.cross_entropy(probe, targets))
    m = logits.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
    p = np.exp(logits - lse)
    p[np.arange(21), targets] -= 1.0
    assert probe.grad.tobytes() == ((1.0 / 21) * p).tobytes()


def test_gelu_matches_pow_formula():
    x = np.linspace(-10.0, 10.0, 200_001)
    c = math.sqrt(2.0 / math.pi)
    ref = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))
    y = Tape().gelu(Tensor(x)).data
    # relative to max(|y|, 1): below x ~ -4, y is the small difference
    # 1 + tanh(u), and a one-ulp change in the cube moves it by up to a few
    # 1e-12 relative, while the absolute difference stays below 1e-15
    assert np.all(np.abs(y - ref) <= 1e-15 * np.maximum(np.abs(ref), 1.0))


def test_sigmoid_bit_identical_to_where_formula():
    x = RNG.normal(scale=8.0, size=100_000)
    ref = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert _sigmoid(x).tobytes() == ref.tobytes()


def test_fd_softmax_cross_entropy():
    targets = RNG.integers(0, 7, size=6)
    err = finite_difference_check(lambda t, x: t.cross_entropy(x, targets), rand(6, 7))
    assert err < 1e-6


# ----------------------------------------------------------- shapes, errors


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
        Tape().add(rand(2, 3), rand(3, 2))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        Tape().unembed(rand(2, 3), rand(2, 2))
    with pytest.raises(ShapeError):
        Tape().layer_norm(rand(2, 3), rand(4), rand(3))


def test_embedding_range_check():
    with pytest.raises(ShapeError, match="out of range"):
        Tape().embedding_lookup(rand(3, 4), np.array([[5]]))


def test_forward_determinism_bit_identical():
    x = rand(4, 6)
    a = Tape().gelu(Tensor(x.data.copy())).data
    b = Tape().gelu(Tensor(x.data.copy())).data
    assert a.tobytes() == b.tobytes()
