import importlib.util
import json
import math
import struct
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np
import pytest

from langlab.models import (
    CheckpointError,
    LstmConfig,
    ModelParameters,
    TransformerConfig,
    forward,
    init_model,
    load_checkpoint,
    lstm_forward,
    save_checkpoint,
    transformer_forward,
)
from langlab.numcore import Tape
from langlab.tokenizer import PAD_ID
from refops import take

_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).parent.parent / "tools" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

TINY_T = TransformerConfig(layers=1, model_dim=16, heads=2, ff_dim=32,
                           max_seq=8, vocab=16, seed=3)
TINY_L = LstmConfig(layers=1, hidden_dim=16, embed_dim=16, vocab=16, seed=3)

IDS = np.array([[1, 4, 5, 6, 2, 7, 8, 3], [1, 7, 8, 2, 9, 10, 11, 12]])


def logits_of(params, ids):
    """Logits of every position, [batch, seq, vocab]."""
    out = forward(params, ids, Tape(record=False))
    return out.data.reshape(ids.shape + (-1,))


# ----------------------------------------------------------- initialization


def test_transformer_param_count_closed_form():
    cfg = TransformerConfig(layers=2, model_dim=64, heads=2, ff_dim=256,
                            max_seq=16, vocab=100, seed=0)
    params = init_model(cfg)
    d, f = cfg.model_dim, cfg.ff_dim
    per_layer = (
        2 * d            # ln1 gain/bias
        + 4 * d * d      # wq wk wv wo
        + 4 * d          # bq bk bv bo
        + 2 * d          # ln2 gain/bias
        + d * f + f      # ff w1 b1
        + f * d + d      # ff w2 b2
    )
    expected = cfg.vocab * d + cfg.max_seq * d + cfg.layers * per_layer + 2 * d
    assert sum(t.data.size for t in params.tensors.values()) == expected


def test_lstm_param_count_closed_form():
    cfg = LstmConfig(layers=2, hidden_dim=32, embed_dim=24, vocab=50, seed=0)
    params = init_model(cfg)
    h = cfg.hidden_dim
    expected = (
        cfg.vocab * cfg.embed_dim
        + (cfg.embed_dim * 4 * h + h * 4 * h + 4 * h)  # layer 0
        + (h * 4 * h + h * 4 * h + 4 * h)              # layer 1
        + h * cfg.vocab + cfg.vocab                    # output projection
    )
    assert sum(t.data.size for t in params.tensors.values()) == expected


def test_init_deterministic():
    a = init_model(TINY_T)
    b = init_model(TINY_T)
    for name in a.tensors:
        assert a.tensors[name].data.tobytes() == b.tensors[name].data.tobytes()


def test_heads_divisibility_error():
    with pytest.raises(ValueError, match="divisible"):
        init_model(TransformerConfig(model_dim=64, heads=3))


def test_lstm_dims_validated():
    with pytest.raises(ValueError, match="positive"):
        init_model(LstmConfig(hidden_dim=0))


def test_forget_gate_bias_one():
    params = init_model(TINY_L)
    h = TINY_L.hidden_dim
    bias = params.tensors["l0.b"].data
    assert np.all(bias[h:2 * h] == 1.0)
    assert np.all(bias[:h] == 0.0)


def test_transformer_has_no_separate_unembedding():
    params = init_model(TINY_T)
    assert not any("unembed" in name or "head" in name for name in params.tensors)


# ------------------------------------------------------------------ forward


def test_overlength_sequence_rejected():
    params = init_model(TINY_T)
    too_long = [(1,) * (TINY_T.max_seq + 1), (1, 2)]
    with pytest.raises(ValueError, match="sequence length 9 exceeds max_seq 8"):
        transformer_forward(params, too_long, Tape())


def test_logits_shape_both_archs():
    for cfg in (TINY_T, TINY_L):
        params = init_model(cfg)
        out = forward(params, IDS, Tape(record=False))
        assert out.shape == (16, 16)


def test_lstm_single_token_input():
    params = init_model(TINY_L)
    out = lstm_forward(params, [(5,)], Tape(record=False))
    assert out.shape == (1, 16)


@pytest.mark.parametrize("arch_cfg", [TINY_T, TINY_L], ids=["transformer", "lstm"])
def test_causality_bitwise(arch_cfg):
    params = init_model(arch_cfg)
    base = logits_of(params, IDS)
    for j in (3, 5):
        perturbed = IDS.copy()
        perturbed[0, j] = (perturbed[0, j] + 1) % arch_cfg.vocab
        out = logits_of(params, perturbed)
        assert out[0, :j].tobytes() == base[0, :j].tobytes()
        assert not np.array_equal(out[0, j:], base[0, j:])
        assert out[1].tobytes() == base[1].tobytes()  # other row untouched


@pytest.mark.parametrize("arch_cfg", [TINY_T, TINY_L], ids=["transformer", "lstm"])
def test_identical_rows_identical_logits(arch_cfg):
    params = init_model(arch_cfg)
    twin = np.stack([IDS[0], IDS[0]])
    out = logits_of(params, twin)
    assert out[0].tobytes() == out[1].tobytes()


@pytest.mark.parametrize("arch_cfg", [TINY_T, TINY_L], ids=["transformer", "lstm"])
def test_fresh_init_loss_near_uniform(arch_cfg):
    params = init_model(arch_cfg)
    tape = Tape(record=False)
    logits = forward(params, IDS[:, :-1], tape)
    loss = float(tape.cross_entropy(logits, IDS[:, 1:].ravel()).data)
    assert abs(loss - math.log(arch_cfg.vocab)) < 0.05 * math.log(arch_cfg.vocab)


@pytest.mark.parametrize("arch_cfg", [TINY_T, TINY_L], ids=["transformer", "lstm"])
def test_packed_logits_bit_identical_to_full_forward(arch_cfg):
    """The logits of rows of mixed lengths, each a prefix of a row of IDS,
    are the full forward's at those positions, bit for bit.  That needs BLAS
    to do the same arithmetic for a row whatever the row count of the
    product; at this config it does, but a kernel can round an entry's last
    bit differently when the row count moves the entry into a remainder
    block (OpenBLAS, vocab 265) or when a single row goes to gemv."""
    params = init_model(arch_cfg)
    full = logits_of(params, IDS)
    for lengths in ([8, 5], [3, 6], [0, 8], [8, 8]):
        keep = np.arange(8) < np.array(lengths)[:, None]
        rows = [tuple(row[:n]) for row, n in zip(IDS.tolist(), lengths)]
        out = forward(params, rows, Tape(record=False)).data
        assert out.shape == (sum(lengths), arch_cfg.vocab)
        assert out.tobytes() == full[keep].tobytes()


@pytest.mark.parametrize("arch_cfg", [TINY_T, TINY_L], ids=["transformer", "lstm"])
def test_packed_gradients_match_ignore_id_path(arch_cfg):
    """The training loss over rows of mixed lengths has the gradients of the
    full forward's loss with PAD targets ignored (its non-PAD rows), within
    the golden bound."""
    params = init_model(arch_cfg)
    ids = IDS.copy()
    ids[0, 6:] = ids[1, 3:] = PAD_ID  # right padding, as the batcher builds it
    targets = ids[:, 1:]
    keep = targets != PAD_ID
    losses, grads = [], []
    for packed in (False, True):
        tape = Tape()
        if packed:
            logits = forward(params, [row[:n] for row, n in zip(ids[:, :-1], keep.sum(1))],
                             tape)
        else:
            full = forward(params, ids[:, :-1], tape)
            logits = take(tape, full, keep.ravel())
        loss = tape.cross_entropy(logits, targets[keep])
        tape.backward(loss)
        losses.append(float(loss.data))
        grads.append({n: t.grad.copy() for n, t in params.tensors.items()})
    assert abs(losses[1] - losses[0]) <= 1e-12 * max(abs(losses[0]), 1.0)
    for name, ref in grads[0].items():
        assert np.all(np.abs(grads[1][name] - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))


def test_backward_peak_memory_stays_near_the_forward_tape():
    """Backward frees each op's saved arrays and gradients once it has used
    them: during backward of one transformer step of the experiment shape
    (64 sentences of 10 positions) the traced peak stays within 1.3x of the
    memory held after forward (it reaches 1.6x when nothing is freed)."""
    params = init_model(TransformerConfig(seed=1))
    ids = np.random.default_rng(0).integers(4, 128, size=(64, 11))
    tracemalloc.start()
    try:
        tape = Tape()
        logits = forward(params, ids[:, :-1], tape)
        loss = tape.cross_entropy(logits, ids[:, 1:].ravel())
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * held, f"peak {peak} bytes, {peak / held:.2f}x the {held} after forward"


def _traced_step(cfg):
    """(bytes held after forward, peak bytes during forward, peak bytes
    during backward) of one training step of the test above's shape under
    tracemalloc; the parameters are not counted."""
    params = init_model(cfg)
    ids = np.random.default_rng(0).integers(4, 128, size=(64, 11))
    tracemalloc.start()
    try:
        tape = Tape()
        logits = forward(params, ids[:, :-1], tape)
        loss = tape.cross_entropy(logits, ids[:, 1:].ravel())
        del logits
        held, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        tape.backward(loss)
        return held, forward_peak, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transformer_tape_holds_only_saved_arrays():
    """The tape keeps no op output that no backward rule saved (residual adds,
    the packed q/k/v, the attention and feed-forward output projections), and
    a record keeps only what its rule reads (gelu its derivative, not its
    input and tanh; cross_entropy its gradient, not the logits): a
    transformer step of the experiment shape holds at most 13 MB after
    forward (12.07 MB; 14.71 MB when gelu and cross_entropy kept their
    inputs, 20.3 MB when the tape keeps every output)."""
    held, _, _ = _traced_step(TransformerConfig(seed=1))
    assert held <= 13e6, f"{held} bytes held after forward"


def test_transformer_step_peak_memory():
    """gelu's temporaries are row blocks and the gelu and cross_entropy rules
    allocate no array, so neither half of a transformer step of the
    experiment shape peaks above 14.5 MB (13.51 MB forward, 13.25 MB
    backward; 15.99 and 17.19 MB with whole-array gelu temporaries and
    rules that allocate their gradients)."""
    _, forward_peak, backward_peak = _traced_step(TransformerConfig(seed=1))
    assert forward_peak <= 14.5e6, f"forward peak {forward_peak} bytes"
    assert backward_peak <= 14.5e6, f"backward peak {backward_peak} bytes"


def test_lstm_backward_writes_gate_gradients_over_the_activations():
    """lstm_layer's backward reuses the activation slab for the gate
    gradients: the LSTM backward peak stays within 1.5x of the memory held
    after forward (1.9x with a fresh gradient slab)."""
    held, _, peak = _traced_step(LstmConfig(seed=1))
    assert peak <= 1.5 * held, f"peak {peak} bytes, {peak / held:.2f}x the {held} after forward"


def test_lstm_gates_match_scalar_oracle():
    """1-dim LSTM with hand-set weights vs a scalar gate computation."""
    cfg = LstmConfig(layers=1, hidden_dim=1, embed_dim=1, vocab=3, seed=0)
    params = init_model(cfg)
    wx = [0.5, -0.3, 0.8, 0.1]   # i, f, g, o columns
    wh = [0.2, 0.4, -0.5, 0.7]
    bias = [0.05, 1.0, -0.02, 0.3]
    emb = [0.0, 0.6, -0.4]
    params.tensors["embed"].data = np.array(emb).reshape(3, 1)
    params.tensors["l0.wx"].data = np.array(wx).reshape(1, 4)
    params.tensors["l0.wh"].data = np.array(wh).reshape(1, 4)
    params.tensors["l0.b"].data = np.array(bias)
    params.tensors["out.w"].data = np.array([[1.0, -1.0, 0.5]])
    params.tensors["out.b"].data = np.zeros(3)

    def sigmoid(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = c = 0.0
    expected_rows = []
    for token in (1, 2, 1):
        x = emb[token]
        gi = sigmoid(wx[0] * x + wh[0] * h + bias[0])
        gf = sigmoid(wx[1] * x + wh[1] * h + bias[1])
        gg = math.tanh(wx[2] * x + wh[2] * h + bias[2])
        go = sigmoid(wx[3] * x + wh[3] * h + bias[3])
        c = gf * c + gi * gg
        h = go * math.tanh(c)
        expected_rows.append([h * 1.0, h * -1.0, h * 0.5])

    out = lstm_forward(params, [(1, 2, 1)], Tape(record=False))
    assert np.all(np.abs(out.data - np.array(expected_rows)) < 1e-12)


def _check_golden(file_name, config_cls):
    """Logits and every parameter gradient of the training loss against the
    frozen values, within 1e-12 * max(|ref|, 1)."""
    payload = json.loads((Path(__file__).parent / "data" / file_name).read_text())
    params = init_model(config_cls(**payload["config"]))
    logits, grads = make_golden.golden_values(params, np.array(payload["ids"]))

    def close(got, ref):
        # scale-aware: entries near 1e-7 differ by round-off only, which is
        # large relative to the entry but not to the bound's unit scale
        ref = np.array(ref, dtype=np.float64)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))

    close(logits, payload["logits"])
    assert set(payload["grads"]) == set(params.tensors)
    for name, ref in payload["grads"].items():
        close(grads[name], ref)


def test_transformer_golden_logits():
    _check_golden("transformer_golden.json", TransformerConfig)


def test_lstm_golden_logits_and_grads():
    _check_golden("lstm_golden.json", LstmConfig)


def test_make_golden_reproduces_transformer_golden(tmp_path, monkeypatch):
    monkeypatch.setattr(make_golden, "DATA", tmp_path)
    make_golden.main(["transformer"])
    frozen = Path(__file__).parent / "data" / "transformer_golden.json"
    assert (tmp_path / frozen.name).read_bytes() == frozen.read_bytes()


# --------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip(tmp_path):
    for cfg in (TINY_T, TINY_L):
        params = init_model(cfg)
        path = tmp_path / f"{cfg.arch}.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config.arch == cfg.arch
        assert loaded.config == cfg
        assert set(loaded.tensors) == set(params.tensors)
        for name in params.tensors:
            assert (loaded.tensors[name].data.tobytes()
                    == params.tensors[name].data.tobytes())


class _Unwritable:
    @property
    def data(self):
        raise OSError("no space left on device")


def test_checkpoint_write_that_fails_halfway_leaves_the_old_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_model(TINY_L), path)
    old = path.read_bytes()
    params = init_model(replace(TINY_L, seed=4))
    params.tensors["out.w"] = _Unwritable()  # written after the embedding and the layer
    with pytest.raises(OSError, match="no space left"):
        save_checkpoint(params, path)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]  # the temporary file is removed


def test_checkpoint_binary_layout(tmp_path):
    """Parse the checkpoint with struct alone to pin the wire format."""
    params = init_model(TINY_L)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    pos = 0

    def u32():
        nonlocal pos
        (v,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        return v

    def text():
        nonlocal pos
        n = u32()
        s = blob[pos:pos + n].decode("utf-8")
        pos += n
        return s

    assert text() == "lstm"
    config = {text(): text() for _ in range(u32())}
    assert config["hidden_dim"] == "16"
    n_tensors = u32()
    assert n_tensors == len(params.tensors)
    for _ in range(n_tensors):
        name = text()
        rank = u32()
        dims = struct.unpack_from(f"<{rank}Q", blob, pos)
        pos += 8 * rank
        count = 1
        for dim in dims:
            count *= dim
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=pos)
        pos += 8 * count
        assert values.reshape(dims).tobytes() == \
            params.tensors[name].data.tobytes()
    assert pos == len(blob)


def test_checkpoint_rejects_unknown_arch(tmp_path):
    path = tmp_path / "bad.ckpt"
    body = struct.pack("<I", 3) + b"foo" + struct.pack("<I", 0) + struct.pack("<I", 0)
    path.write_bytes(body)
    with pytest.raises(ValueError, match="unknown architecture"):
        load_checkpoint(path)


@pytest.mark.parametrize("body, offset, reason", [
    pytest.param(struct.pack("<I", 3) + b"\xff\xfe\xfd", 4, "invalid start byte",
                 id="tag"),
    pytest.param(struct.pack("<I", 4) + b"lstm" + struct.pack("<II", 1, 3) + b"a\xe9b",
                 17, "invalid continuation byte", id="config-key"),
])
def test_checkpoint_rejects_non_utf8_string(tmp_path, body, offset, reason):
    path = tmp_path / "latin.ckpt"
    path.write_bytes(body)
    with pytest.raises(CheckpointError,
                       match=rf"latin\.ckpt: not UTF-8 at byte offset {offset} \({reason}\)$"):
        load_checkpoint(path)


def test_checkpoint_rejects_invalid_config_and_repeated_tensor(tmp_path):
    bad = TransformerConfig(layers=1, model_dim=4, heads=3, ff_dim=4, max_seq=4, vocab=8)
    path = tmp_path / "heads.ckpt"
    save_checkpoint(ModelParameters(bad, {}), path)
    with pytest.raises(CheckpointError,
                       match=r"heads\.ckpt: config: model_dim 4 not divisible by heads 3$"):
        load_checkpoint(path)
    path = tmp_path / "twice.ckpt"
    save_checkpoint(init_model(TINY_L), path)
    blob = path.read_bytes()
    first, last = (blob.index(struct.pack("<I", 5) + name) for name in (b"embed", b"out.b"))
    (count,) = struct.unpack_from("<I", blob, first - 4)
    path.write_bytes(blob[:first - 4] + struct.pack("<I", count + 1) + blob[first:]
                     + blob[last:])
    with pytest.raises(CheckpointError, match=r"twice\.ckpt: tensor out\.b: repeated$"):
        load_checkpoint(path)


@dataclass(frozen=True)
class _LstmConfigPlus(LstmConfig):
    colour: int = 1


@dataclass(frozen=True)
class _TransformerConfigTaggedLstm(TransformerConfig):
    arch: ClassVar[str] = "lstm"


@pytest.mark.parametrize("config, message", [
    pytest.param(_LstmConfigPlus(), "config colour: not a key of the lstm config", id="unknown"),
    pytest.param(_TransformerConfigTaggedLstm(), "config hidden_dim: missing", id="missing"),
])
def test_checkpoint_config_keys_are_the_configs_fields(tmp_path, config, message):
    path = tmp_path / "keys.ckpt"
    save_checkpoint(ModelParameters(config, {}), path)
    with pytest.raises(CheckpointError, match=rf"keys\.ckpt: {message}$"):
        load_checkpoint(path)


def test_checkpoint_rejects_repeated_config_key(tmp_path):
    path = tmp_path / "twice.ckpt"
    save_checkpoint(init_model(TINY_L), path)
    blob = path.read_bytes()
    at = 8 + len("lstm")  # the first config pair, after the tag and the pair count
    (count,) = struct.unpack_from("<I", blob, at - 4)
    pair = b"".join(struct.pack("<I", len(t)) + t for t in (b"vocab", b"16"))
    path.write_bytes(blob[:at - 4] + struct.pack("<I", count + 1) + pair + blob[at:])
    with pytest.raises(CheckpointError, match=r"twice\.ckpt: config vocab: repeated$"):
        load_checkpoint(path)
