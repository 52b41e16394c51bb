"""The three corpus transformations that define the experiment groups.

Identity leaves sentences untouched, Reverse flips the whole word order, and
ParityNegation inserts the reserved token NOT at the end of odd-length
sentences and at the start of even-length ones.  All transforms are purely
positional over word tokens.
"""

from __future__ import annotations

import enum
from pathlib import Path

from .corpusio import _checked_lines, _corpus_text, _well_formed, write_lines
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


def apply_transform(kind: TransformKind, s: Sentence) -> Sentence:
    if not s:
        raise TransformError("empty input")
    if NOT_TOKEN in s:
        raise TransformError("reserved token present")
    if kind is TransformKind.IDENTITY:
        return s
    if kind is TransformKind.REVERSE:
        return Sentence(s[::-1])
    if kind is TransformKind.PARITY_NEGATION:
        return Sentence(s + (NOT_TOKEN,) if len(s) % 2 == 1 else (NOT_TOKEN,) + s)
    raise TransformError(f"unknown transform kind: {kind!r}")


def invert_parity_negation(s: Sentence) -> Sentence:
    """Strip the single leading or trailing NOT; inverse of the parity transform."""
    if s.count(NOT_TOKEN) != 1:
        raise TransformError("not a parity-negation sentence")
    if s[-1] == NOT_TOKEN:
        return Sentence(s[:-1])
    if s[0] == NOT_TOKEN:
        return Sentence(s[1:])
    raise TransformError("not a parity-negation sentence")


def transform_file(
    kind: TransformKind,
    in_path: str | Path,
    out_path: str | Path,
    normalize: bool = False,
) -> int:
    """Transform a corpus file, held in memory whole, one non-blank line per
    sentence; returns the line count written.  A failure names the file and
    its 1-based line, blank lines included, and leaves an existing out_path
    as it was."""
    text = _corpus_text(in_path, normalize)
    lines = text.split("\n")
    if NOT_TOKEN in text or not _well_formed(text):  # name the first bad line, if any
        for line_no, words in _checked_lines(in_path, lines):
            if NOT_TOKEN in words:
                raise TransformError(f"{in_path}: line {line_no}: reserved token present")
    if kind is TransformKind.REVERSE:
        out = (" ".join(line.split(" ")[::-1]) for line in lines if line)
    elif kind is TransformKind.PARITY_NEGATION:  # odd word count: even space count
        tail, head = " " + NOT_TOKEN, NOT_TOKEN + " "
        out = (line + tail if line.count(" ") % 2 == 0 else head + line
               for line in lines if line)
    else:
        out = filter(None, lines)
    return write_lines(out_path, out)
