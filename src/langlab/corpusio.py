"""Corpus file helpers: one sentence per line, single spaces, UTF-8."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator

from .grammar import Sentence, gc_paused

# write_lines stays out of __all__: perfbench times each __all__ function as
# its module's work, and the lines it writes are its caller's work
__all__ = ["InputError", "write_corpus", "read_corpus", "iter_corpus",
           "normalize_line", "read_text"]

_TERMINAL_PUNCTUATION = ".!?,;:"


class InputError(ValueError):
    """A missing, unreadable or malformed input file."""


def _not_utf8(path, exc: UnicodeDecodeError) -> InputError:
    return InputError(f"{path}: not UTF-8 text ({exc.reason})")


def read_text(path: str | Path) -> str:
    """The whole text of a UTF-8 file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each line and a "\\n" as UTF-8 to a temporary sibling, path's
    name + ".tmp", which then replaces path: if writing or drawing a line
    fails, the temporary file is removed and an existing path is left as it
    was.  Returns the line count.  Every text artifact is written here."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    count = 0
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for count, line in enumerate(lines, 1):
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count


def write_corpus(path: str | Path, sentences: Iterable[Sentence]) -> None:
    write_lines(path, (s.text for s in sentences))


def normalize_line(line: str) -> str:
    """Ingest normalization for raw external text: lowercase, strip terminal
    punctuation from the end of the line, collapse whitespace."""
    line = line.strip().lower()
    while line and line[-1] in _TERMINAL_PUNCTUATION:
        line = line[:-1].rstrip()
    return " ".join(line.split())


def iter_corpus(path: str | Path,
                normalize: bool = False) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Stream (1-based file line number, words) pairs from a corpus file,
    skipping blank lines; with ``normalize``, each line goes through
    normalize_line first.  Every word is a new string."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, 1):
                line = normalize_line(line) if normalize else line.rstrip("\n")
                if line:
                    words = tuple(line.split(" "))
                    if "" in words:
                        raise InputError(f"{path}: line {line_no}: empty word (stray space)")
                    if not line.isprintable():  # of all whitespace, only " " passes
                        c = next(c for c in line if not c.isprintable())
                        kind = "whitespace" if c.isspace() else "unprintable character"
                        raise InputError(f"{path}: line {line_no}: {kind} U+{ord(c):04X} inside a word")
                    yield line_no, words
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc


def read_corpus(path: str | Path, normalize: bool = False) -> list[Sentence]:
    """The sentences of iter_corpus, sharing one string per distinct word of
    the file, so a corpus kept in memory holds its vocabulary once."""
    share = {}.setdefault
    with gc_paused():
        return [Sentence(tuple(map(share, words, words)))
                for _, words in iter_corpus(path, normalize)]
