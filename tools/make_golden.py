"""Regenerate the frozen model outputs used as regression anchors.

Run from the repository root, naming each golden file to write:

    PYTHONPATH=src python tools/make_golden.py transformer
    PYTHONPATH=src python tools/make_golden.py lstm

``transformer`` writes tests/data/transformer_golden.json and ``lstm`` writes
tests/data/lstm_golden.json; each holds a model's logits and every parameter
gradient of its training loss.  Only rerun this for the model whose
initialization or forward pass an intentional change invalidated, and commit
the regenerated file; the other file is left as it is.  The stored LSTM values
come from the per-timestep forward that Tape.lstm_layer replaced, so a rerun
of ``lstm`` changes their last digits only.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from langlab.models import LstmConfig, TransformerConfig, forward, init_model
from langlab.numcore import Tape
from langlab.tokenizer import PAD_ID

DATA = Path(__file__).parent.parent / "tests" / "data"

CONFIG = dict(layers=2, model_dim=16, heads=2, ff_dim=32, max_seq=8,
              vocab=16, seed=1234)
LSTM_CONFIG = dict(layers=2, hidden_dim=8, embed_dim=6, vocab=16, seed=1234)
IDS = [[1, 4, 7, 12, 3, 2, 0, 5], [1, 15, 14, 2, 8, 9, 10, 11]]


def _text(values):
    """Nested lists of floats as nested lists of round-tripping strings."""
    if isinstance(values, list):
        return [_text(v) for v in values]
    return f"{values:.17g}"


def _kept_rows(tape, rows, keep):
    """rows.data[keep], the gradient scattered back into zeros.  keep need not
    be a prefix of each sequence: IDS has a PAD inside its first row."""

    def bwd(g):
        full = np.zeros_like(rows.data)
        full[keep] = g
        return (full,)

    return tape._emit(rows.data[keep], (rows,), bwd)


def golden_values(params, ids):
    """Logits of every position, [batch, seq, vocab], and the parameter
    gradients of the training loss, which predicts the non-PAD ids[:, 1:]
    from ids[:, :-1]."""
    logits = forward(params, ids, Tape(record=False))
    tape = Tape()
    rows = forward(params, ids[:, :-1], tape)
    keep = ids[:, 1:] != PAD_ID
    tape.backward(tape.cross_entropy(_kept_rows(tape, rows, keep.ravel()),
                                     ids[:, 1:][keep]))
    return (logits.data.reshape(ids.shape + (-1,)),
            {name: t.grad for name, t in params.tensors.items()})


GOLDENS = {"transformer": (TransformerConfig, CONFIG),
           "lstm": (LstmConfig, LSTM_CONFIG)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("golden", nargs="+", choices=sorted(GOLDENS),
                        help="golden file(s) to regenerate")
    for name in parser.parse_args(argv).golden:
        config_cls, config = GOLDENS[name]
        params = init_model(config_cls(**config))
        logits, grads = golden_values(params, np.array(IDS))
        payload = {"config": config, "ids": IDS, "logits": _text(logits.tolist()),
                   "grads": {n: _text(g.tolist()) for n, g in grads.items()}}
        path = DATA / f"{name}_golden.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
