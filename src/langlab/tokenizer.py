"""Closed word-level vocabulary and sequence encoding for the mini models.

Ids 0..3 are reserved for PAD/BOS/EOS/UNK; corpus words get ids from 4 up in
first-appearance order, so the id assignment is a pure function of the corpus
bytes.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Iterable

from .corpusio import InputError, read_text, write_lines
from .grammar import Sentence, gc_paused

__all__ = [
    "PAD_ID",
    "BOS_ID",
    "EOS_ID",
    "UNK_ID",
    "SPECIAL_TOKENS",
    "Vocabulary",
    "build_vocabulary",
    "encode",
    "encode_corpus",
    "save_vocabulary",
    "load_vocabulary",
]

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")


class _WordIds(dict):
    """A word -> id dict whose lookup of an unknown word gives UNK_ID."""

    def __missing__(self, word: str) -> int:
        return UNK_ID


class Vocabulary:
    """Bidirectional word/id map; immutable after build."""

    def __init__(self, words: Iterable[str]):
        self.id_to_word: list[str] = list(SPECIAL_TOKENS)
        self.word_to_id: dict[str, int] = _WordIds()
        for w in words:
            if w in self.word_to_id or w in SPECIAL_TOKENS:
                continue
            self.word_to_id[w] = len(self.id_to_word)
            self.id_to_word.append(w)
        self._id_of = self.word_to_id.__getitem__  # encode's lookup, bound once

    def __len__(self) -> int:
        return len(self.id_to_word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self.id_to_word == other.id_to_word


def build_vocabulary(sentences: Iterable[Sentence]) -> Vocabulary:
    """Vocabulary over every distinct corpus word, first-appearance order."""
    sentences = iter(sentences)
    first = next(sentences, None)
    if first is None:
        raise ValueError("empty corpus")
    return Vocabulary(dict.fromkeys(chain(first, chain.from_iterable(sentences))))


def encode(vocab: Vocabulary, s: Sentence) -> tuple[int, ...]:
    """The token ids of s: BOS, one id per word (UNK_ID for a word outside
    vocab), EOS."""
    return (BOS_ID, *map(vocab._id_of, s), EOS_ID)


def encode_corpus(vocab: Vocabulary, sentences: Iterable[Sentence]) -> list[tuple[int, ...]]:
    """encode of every sentence, with cyclic GC paused as read_corpus does."""
    with gc_paused():
        return [encode(vocab, s) for s in sentences]


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """One token per line; 4 special lines first, then words (line == id)."""
    write_lines(path, vocab.id_to_word)


def load_vocabulary(path: str | Path) -> Vocabulary:
    """The vocabulary save_vocabulary wrote: a file without the special-token
    header, or with a token on two lines, is an InputError."""
    lines = read_text(path).splitlines()
    if tuple(lines[:4]) != SPECIAL_TOKENS:
        raise InputError(f"{path}: missing special-token header")
    vocab = Vocabulary(lines[4:])
    if len(vocab) != len(lines):  # a repeat was skipped: the ids after it would shift
        first: dict[str, int] = {}
        line_no = next(i for i, w in enumerate(lines, 1) if first.setdefault(w, i) != i)
        raise InputError(f"{path}: line {line_no}: repeated token {lines[line_no - 1]!r}")
    return vocab
