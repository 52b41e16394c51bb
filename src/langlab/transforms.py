"""The three corpus transformations that define the experiment groups.

Identity leaves sentences untouched, Reverse flips the whole word order, and
ParityNegation inserts the reserved token NOT at the end of odd-length
sentences and at the start of even-length ones.  All transforms are purely
positional over word tokens.
"""

from __future__ import annotations

import enum
from pathlib import Path

from .corpusio import iter_corpus, write_lines
from .grammar import Sentence

__all__ = [
    "TransformKind",
    "TransformError",
    "NOT_TOKEN",
    "apply_transform",
    "invert_parity_negation",
    "transform_file",
]

NOT_TOKEN = "NOT"


class TransformKind(enum.Enum):
    IDENTITY = "identity"
    REVERSE = "reverse"
    PARITY_NEGATION = "parity-negation"


class TransformError(ValueError):
    pass


def _transform_words(kind: TransformKind, words: tuple[str, ...]) -> tuple[str, ...]:
    if not words:
        raise TransformError("empty input")
    if NOT_TOKEN in words:
        raise TransformError("reserved token present")
    if kind is TransformKind.IDENTITY:
        return words
    if kind is TransformKind.REVERSE:
        return words[::-1]
    if kind is TransformKind.PARITY_NEGATION:
        return words + (NOT_TOKEN,) if len(words) % 2 == 1 else (NOT_TOKEN,) + words
    raise TransformError(f"unknown transform kind: {kind!r}")


def apply_transform(kind: TransformKind, s: Sentence) -> Sentence:
    words = _transform_words(kind, s.words)
    return s if kind is TransformKind.IDENTITY else Sentence(words)


def invert_parity_negation(s: Sentence) -> Sentence:
    """Strip the single leading or trailing NOT; inverse of the parity transform."""
    count = s.words.count(NOT_TOKEN)
    if count != 1:
        raise TransformError("not a parity-negation sentence")
    if s.words[-1] == NOT_TOKEN:
        return Sentence(s.words[:-1])
    if s.words[0] == NOT_TOKEN:
        return Sentence(s.words[1:])
    raise TransformError("not a parity-negation sentence")


def transform_file(
    kind: TransformKind,
    in_path: str | Path,
    out_path: str | Path,
    normalize: bool = False,
) -> int:
    """Transform a corpus file line by line; returns the line count written.
    A failure names the file and its 1-based line, blank lines included, and
    leaves an existing out_path as it was."""
    def lines():
        for line_no, words in iter_corpus(in_path, normalize):
            try:
                words = _transform_words(kind, words)
            except TransformError as exc:
                raise TransformError(f"{in_path}: line {line_no}: {exc}") from exc
            yield " ".join(words)
    return write_lines(out_path, lines())
