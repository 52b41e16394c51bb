"""Miniature decoder-only transformer and LSTM language models.

Both forwards map token ids [batch, positions] and lengths [batch] to
next-token logits.  Only the positions t < lengths[i] of each row i (a
prefix) are computed, and their logits come packed batch-major as
[sum(lengths), vocab]; np.full(batch, positions) keeps every position.  The
models are causal: position i only sees tokens at positions <= i.  The
transformer runs on packed rows: learned positional embeddings, pre-layer-norm
blocks, masked multi-head attention, a gelu feed-forward, Tape.linear
projections and a Tape.unembed output projection tied to the token
embedding.  The LSTM runs on packed rows too: its recurrence (gates input,
forget, cell, output; one fused Tape.lstm_layer op per layer) steps each
sequence only through its own length, then a Tape.linear output projection.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import corpusio
from .numcore import ShapeError, Tape, Tensor

__all__ = [
    "TransformerConfig",
    "LstmConfig",
    "ModelParameters",
    "init_model",
    "forward",
    "transformer_forward",
    "lstm_forward",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
]


class CheckpointError(ValueError):
    """A checkpoint file that does not match the binary layout or its config,
    or that holds NaN or inf."""


@dataclass(frozen=True)
class TransformerConfig:
    layers: int = 2
    model_dim: int = 64
    heads: int = 2
    ff_dim: int = 256
    max_seq: int = 16
    vocab: int = 128
    seed: int = 0

    def validate(self) -> None:
        if min(self.layers, self.model_dim, self.heads, self.ff_dim,
               self.max_seq, self.vocab) < 1:
            raise ValueError(f"all transformer dims must be positive: {self}")
        if self.model_dim % self.heads != 0:
            raise ValueError(
                f"model_dim {self.model_dim} not divisible by heads {self.heads}"
            )


@dataclass(frozen=True)
class LstmConfig:
    layers: int = 1
    hidden_dim: int = 128
    embed_dim: int = 64
    vocab: int = 128
    seed: int = 0

    def validate(self) -> None:
        if min(self.layers, self.hidden_dim, self.embed_dim, self.vocab) < 1:
            raise ValueError(f"all LSTM dims must be positive: {self}")


# architecture name -> its config class: the one list of architectures
CONFIG_TYPES = {"transformer": TransformerConfig, "lstm": LstmConfig}


@dataclass
class ModelParameters:
    arch: str  # a key of CONFIG_TYPES
    config: TransformerConfig | LstmConfig
    tensors: dict[str, Tensor]


def _param_shapes(cfg: TransformerConfig | LstmConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter, in init order, of a config it validates."""
    cfg.validate()
    if isinstance(cfg, LstmConfig):
        h, in_dim = cfg.hidden_dim, cfg.embed_dim
        shapes = {"embed": (cfg.vocab, in_dim)}
        for i in range(cfg.layers):
            shapes.update({f"l{i}.wx": (in_dim, 4 * h), f"l{i}.wh": (h, 4 * h),
                           f"l{i}.b": (4 * h,)})
            in_dim = h
        return shapes | {"out.w": (h, cfg.vocab), "out.b": (cfg.vocab,)}
    d, f = cfg.model_dim, cfg.ff_dim
    shapes = {"tok_emb": (cfg.vocab, d), "pos_emb": (cfg.max_seq, d)}
    for i in range(cfg.layers):
        pre = f"l{i}."
        shapes.update({pre + "ln1.g": (d,), pre + "ln1.b": (d,)})
        shapes.update({pre + "attn." + name: (d, d) for name in ("wq", "wk", "wv", "wo")})
        shapes.update({pre + "attn." + name: (d,) for name in ("bq", "bk", "bv", "bo")})
        shapes.update({pre + "ln2.g": (d,), pre + "ln2.b": (d,),
                       pre + "ff.w1": (d, f), pre + "ff.b1": (f,),
                       pre + "ff.w2": (f, d), pre + "ff.b2": (d,)})
    return shapes | {"ln_f.g": (d,), "ln_f.b": (d,)}


def _init_transformer(cfg: TransformerConfig) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(cfg.seed)
    p = {}
    for name, shape in _param_shapes(cfg).items():
        kind = name.rsplit(".", 1)[-1]  # g: layer-norm gain, b...: a bias
        p[name] = (np.ones(shape) if kind == "g" else np.zeros(shape) if kind[0] == "b"
                   else rng.normal(0.0, 0.02, shape))
    return p


def _init_lstm(cfg: LstmConfig) -> dict[str, np.ndarray]:
    shapes = _param_shapes(cfg)
    rng = np.random.default_rng(cfg.seed)
    h = cfg.hidden_dim
    bound = 1.0 / np.sqrt(h)
    p = {}
    for name, shape in shapes.items():
        if name.endswith(".b"):
            p[name] = np.zeros(shape)
            if name != "out.b":
                p[name][h:2 * h] = 1.0  # forget gate starts open
        else:
            p[name] = rng.uniform(-bound, bound, shape)
    return p


def init_model(config: TransformerConfig | LstmConfig) -> ModelParameters:
    """Seed-deterministic parameter initialization for either family."""
    if isinstance(config, TransformerConfig):
        arch, arrays = "transformer", _init_transformer(config)
    elif isinstance(config, LstmConfig):
        arch, arrays = "lstm", _init_lstm(config)
    else:
        raise TypeError(f"unsupported config type: {type(config).__name__}")
    return ModelParameters(arch, config, {name: Tensor(a, requires_grad=True)
                                          for name, a in arrays.items()})


def _keep_mask(ids: np.ndarray, lengths) -> np.ndarray:
    """[batch, seq] mask of the first lengths[i] positions of each row i."""
    batch, seq = np.shape(ids)
    lengths = np.asarray(lengths)
    if lengths.shape != (batch,) or ((lengths < 0) | (lengths > seq)).any():
        raise ShapeError(f"lengths {lengths.tolist()} must be {batch} counts in 0..{seq}")
    return np.arange(seq) < lengths[:, None]


def transformer_forward(params: ModelParameters, ids: np.ndarray, tape: Tape,
                        lengths) -> Tensor:
    """Packed logits under causal masked attention."""
    cfg: TransformerConfig = params.config
    p = params.tensors
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape[1] > cfg.max_seq:
        raise ValueError(f"sequence length {ids.shape[1]} exceeds max_seq {cfg.max_seq}")
    keep = _keep_mask(ids, lengths)
    x = tape.add(tape.embedding_lookup(p["tok_emb"], ids[keep]),
                 tape.embedding_lookup(p["pos_emb"], np.nonzero(keep)[1]))

    def linear(t, w, b):  # parameters of the current layer, prefix pre
        return tape.linear(t, p[pre + w], p[pre + b])

    for i in range(cfg.layers):
        pre = f"l{i}."
        h = tape.layer_norm(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
        q = linear(h, "attn.wq", "attn.bq")
        k = linear(h, "attn.wk", "attn.bk")
        v = linear(h, "attn.wv", "attn.bv")
        merged = tape.causal_attention(q, k, v, cfg.heads, keep)
        x = tape.add(x, linear(merged, "attn.wo", "attn.bo"))

        h = tape.layer_norm(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
        ff = tape.gelu(linear(h, "ff.w1", "ff.b1"))
        x = tape.add(x, linear(ff, "ff.w2", "ff.b2"))

    x = tape.layer_norm(x, p["ln_f.g"], p["ln_f.b"])
    return tape.unembed(x, p["tok_emb"])


def lstm_forward(params: ModelParameters, ids: np.ndarray, tape: Tape, lengths) -> Tensor:
    """Packed logits from the stacked LSTM recurrence."""
    cfg: LstmConfig = params.config
    p = params.tensors
    keep = _keep_mask(ids, lengths)
    x = tape.embedding_lookup(p["embed"], np.asarray(ids)[keep])
    for i in range(cfg.layers):
        x = tape.lstm_layer(x, p[f"l{i}.wx"], p[f"l{i}.wh"], p[f"l{i}.b"], keep)
    return tape.linear(x, p["out.w"], p["out.b"])


def forward(params: ModelParameters, ids: np.ndarray, tape: Tape, lengths) -> Tensor:
    if params.arch == "transformer":
        return transformer_forward(params, ids, tape, lengths)
    if params.arch == "lstm":
        return lstm_forward(params, ids, tape, lengths)
    raise ValueError(f"unknown architecture tag: {params.arch!r}")


# ------------------------------------------------------------------ checkpoint
#
# Binary layout, all little-endian:
#   u32 tag_len, tag bytes (architecture)
#   u32 n_config; per entry: u32 key_len, key, u32 val_len, val (both utf-8)
#   u32 n_tensors; per tensor: u32 name_len, name, u32 rank, u64 dims...,
#   float64 values in row-major order.


def _pack_str(s: str) -> bytes:
    b = s.encode("utf-8")
    return struct.pack("<I", len(b)) + b


def save_checkpoint(params: ModelParameters, path: str | Path) -> None:
    """Written through corpusio.replacing: a failed write leaves path as it was."""
    cfg_items = [(f.name, repr(getattr(params.config, f.name)))
                 for f in fields(params.config)]
    with corpusio.replacing(path) as fh:
        fh.write(_pack_str(params.arch))
        fh.write(struct.pack("<I", len(cfg_items)))
        for key, val in cfg_items:
            fh.write(_pack_str(key))
            fh.write(_pack_str(val))
        fh.write(struct.pack("<I", len(params.tensors)))
        for name, t in params.tensors.items():
            fh.write(_pack_str(name))
            fh.write(struct.pack("<I", t.data.ndim))
            fh.write(struct.pack(f"<{t.data.ndim}Q", *t.data.shape))
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> ModelParameters:
    blob = memoryview(corpusio.read_bytes(path))
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if n > len(blob) - pos:
            raise CheckpointError(
                f"{path}: truncated at byte offset {pos}: {n} bytes needed, "
                f"{len(blob) - pos} left"
            )
        pos += n
        return blob[pos - n:pos]

    def read_u32():
        return struct.unpack("<I", take(4))[0]

    def read_str():
        data = take(read_u32())
        try:
            return str(data, "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(
                f"{path}: not UTF-8 at byte offset {pos - len(data) + exc.start} "
                f"({exc.reason})"
            ) from exc

    arch = read_str()
    if arch not in CONFIG_TYPES:
        raise CheckpointError(f"{path}: unknown architecture tag {arch!r}")
    cfg_cls = CONFIG_TYPES[arch]
    raw = {}
    for _ in range(read_u32()):
        key = read_str()
        if key in raw:
            raise CheckpointError(f"{path}: config {key}: repeated")
        raw[key] = read_str()
    values = {}
    for f in fields(cfg_cls):
        value = raw.pop(f.name, None)
        if value is None:
            raise CheckpointError(f"{path}: config {f.name}: missing")
        try:  # every config field is an int
            values[f.name] = int(value)
        except ValueError:
            raise CheckpointError(
                f"{path}: config {f.name}: {value!r} does not parse as int") from None
    if raw:
        raise CheckpointError(
            f"{path}: config {next(iter(raw))}: not a key of the {arch} config")
    config = cfg_cls(**values)
    try:
        shapes = _param_shapes(config)
    except ValueError as exc:
        raise CheckpointError(f"{path}: config: {exc}") from None
    tensors: dict[str, Tensor] = {}
    for _ in range(read_u32()):
        name = read_str()
        rank = read_u32()
        dims = struct.unpack(f"<{rank}Q", take(8 * rank))
        if name not in shapes or name in tensors:
            what = "repeated" if name in tensors else f"not a tensor of this {arch} config"
            raise CheckpointError(f"{path}: tensor {name}: {what}")
        if dims != shapes[name]:
            raise CheckpointError(
                f"{path}: tensor {name}: shape {dims}, the config needs {shapes[name]}")
        data = np.frombuffer(take(8 * math.prod(dims)), dtype="<f8").reshape(dims)
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: tensor {name}: holds NaN or inf")
        tensors[name] = Tensor(data.copy(), requires_grad=True)
    if pos != len(blob):
        raise CheckpointError(
            f"{path}: {len(blob) - pos} trailing bytes after the last tensor, "
            f"from byte offset {pos}"
        )
    missing = [name for name in shapes if name not in tensors]
    if missing:
        raise CheckpointError(f"{path}: tensor {missing[0]}: missing")
    return ModelParameters(arch, config, tensors)

