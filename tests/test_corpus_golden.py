"""Frozen corpus bytes: generation and file transforms.

The SHA-256 constants were computed from the recursive generator and the
per-sentence file transform; any rewrite of the corpus layers must reproduce
them exactly (same words, same RNG stream).
"""

import hashlib

import pytest

from langlab.corpusio import write_corpus
from langlab.grammar import GenerationConfig, generate_corpus
from langlab.transforms import TransformKind, transform_file

FULL = GenerationConfig(count=3000, seed=12345)

FROZEN_FULL = "29ed99afcac0a2afcae54f88c9af4564cfe48854aa681d22b752408b44fc0e09"
FROZEN_TRANSFORMS = {
    TransformKind.REVERSE:
        "1b67d24cbd510a86d17e4cf169a85668a333ea23b08c55bcb9fb76c303685169",
    TransformKind.PARITY_NEGATION:
        "ddfd58267c71b80261e68502cac9ab297b38ecd6054631383a9b517f40dece96",
}


def _sha(lines) -> str:
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


@pytest.mark.parametrize("config", [FULL], ids=["full"])
def test_generated_corpus_frozen(grammar, config):
    assert _sha(" ".join(s) for s in generate_corpus(grammar, config)) == FROZEN_FULL


@pytest.mark.parametrize("kind", list(FROZEN_TRANSFORMS), ids=lambda k: k.value)
def test_transform_file_output_frozen(grammar, tmp_path, kind):
    src, out = tmp_path / "natural.txt", tmp_path / "out.txt"
    write_corpus(src, generate_corpus(grammar, FULL))
    assert transform_file(kind, src, out) == FULL.count
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FROZEN_TRANSFORMS[kind]
