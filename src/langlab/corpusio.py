"""Corpus file helpers: one sentence per line, single spaces, UTF-8."""

from __future__ import annotations

import os
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator

from .grammar import Sentence, gc_paused

# write_lines stays out of __all__: perfbench times each __all__ function as
# its module's work, and the lines it writes are its caller's work
__all__ = ["InputError", "write_corpus", "read_corpus", "normalize_line",
           "read_text"]

_TERMINAL_PUNCTUATION = ".!?,;:"
_CHUNK_LINES = 8192  # lines joined into one write


class InputError(ValueError):
    """A missing, unreadable or malformed input file."""


def _not_utf8(path, exc: UnicodeDecodeError) -> InputError:
    return InputError(f"{path}: not UTF-8 text ({exc.reason})")


def read_text(path: str | Path) -> str:
    """The whole text of a UTF-8 file; a file that cannot be read, such as a
    missing one or a directory, raises InputError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc.strerror})") from exc


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each line and a "\\n" as UTF-8 to a temporary sibling, path's
    name + ".tmp", which then replaces path: if writing or drawing a line
    fails, the temporary file is removed and an existing path is left as it
    was.  Returns the line count.  Every text artifact is written here."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    lines = iter(lines)
    count = 0
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            while chunk := list(islice(lines, _CHUNK_LINES)):
                count += len(chunk)
                chunk.append("")  # the last line's "\n"
                fh.write("\n".join(chunk))
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


def _corpus_text(path: str | Path, normalize: bool = False) -> str:
    """The text of a corpus file, with ``normalize`` each line through
    normalize_line.  Its lines end at "\\n" after universal-newline
    translation only: "\\x0b", "\\x85" and the like stay inside a line."""
    text = read_text(path)
    if normalize:
        text = "\n".join(map(normalize_line, text.split("\n")))
    return text


def _well_formed(text: str) -> bool:
    """Whether every line of text passes _checked_lines, tested over the
    whole text at once."""
    return not ("  " in text or "\n " in text or " \n" in text or text[:1] == " "
                or text[-1:] == " ") and text.replace("\n", "").isprintable()


def _checked_lines(path: str | Path,
                   lines: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, words) of each non-blank line, in order; the
    first line that does not split on single spaces into words of printable
    characters raises InputError."""
    for line_no, line in enumerate(lines, 1):
        if line:
            words = line.split(" ")
            if "" in words:
                raise InputError(f"{path}: line {line_no}: empty word (stray space)")
            if not line.isprintable():  # of all whitespace, only " " passes
                c = next(c for c in line if not c.isprintable())
                kind = "whitespace" if c.isspace() else "unprintable character"
                raise InputError(f"{path}: line {line_no}: {kind} U+{ord(c):04X} inside a word")
            yield line_no, words


def read_corpus(path: str | Path, normalize: bool = False) -> list[Sentence]:
    """The sentences of a corpus file, one per non-blank line, sharing one
    string per distinct word of the file, so a corpus kept in memory holds
    its vocabulary once.  The lines are checked through their distinct
    words; a failed check names the first bad line."""
    lines = _corpus_text(path, normalize).split("\n")
    distinct: dict[str, str] = {}
    share = distinct.setdefault
    with gc_paused():
        sentences = [Sentence(map(share, words, words))
                     for words in map(str.split, filter(None, lines), repeat(" "))]
    # a stray space makes an empty word; other whitespace is unprintable
    if "" in distinct or not all(map(str.isprintable, distinct)):
        for _ in _checked_lines(path, lines):  # raises at the first bad line
            pass
    return sentences
