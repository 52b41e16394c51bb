"""Corpus file helpers: one sentence per line, single spaces, UTF-8."""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import islice, repeat
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .grammar import Sentence, gc_paused

# read_bytes, make_dir, remove, replacing and write_lines stay out of __all__: perfbench times
# each __all__ function as its module's work, and what they move is the caller's
__all__ = ["InputError", "write_corpus", "read_corpus", "normalize_line",
           "read_text"]

_TERMINAL_PUNCTUATION = ".!?,;:"
_CHUNK_LINES = 8192  # lines joined into one write


class InputError(ValueError):
    """A missing, unreadable or malformed input file or sentence, or a file
    that cannot be written."""


def _not_utf8(path, exc: UnicodeDecodeError) -> InputError:
    return InputError(f"{path}: not UTF-8 text ({exc.reason})")


def _cannot_write(path, exc: OSError) -> InputError:
    return InputError(f"{path}: cannot write ({exc.strerror or exc})")


def read_bytes(path: str | Path) -> bytes:
    """The bytes of a file; a file that cannot be read, such as a missing one
    or a directory, raises InputError naming it.  Every input file is read here."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc.strerror})") from exc


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file read through read_bytes, with "\\r\\n" and
    "\\r" line ends translated to "\\n"."""
    try:
        text = read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def make_dir(path: str | Path) -> None:
    """Create directory path and its parents, keeping one that exists; an
    OSError, such as a file in its place, raises InputError naming path.
    Every output directory is made here."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def remove(path: str | Path) -> None:
    """Delete file path, if there is one; an OSError, such as a directory in
    its place, raises InputError naming path."""
    try:
        Path(path).unlink(missing_ok=True)
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


@contextmanager
def replacing(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file open at a temporary sibling, path's name + ".tmp", which
    replaces path when the block ends; if the block raises, the temporary
    file is removed and path is left as it was.  An OSError of the open, a
    write or the rename raises InputError naming path.  Every file is
    written here."""
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise _cannot_write(path, exc) from exc
        raise


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each line and a "\\n" as UTF-8 through replacing; returns the
    line count.  Every text artifact is written here."""
    lines = iter(lines)
    count = 0
    with replacing(path) as fh:
        while chunk := list(islice(lines, _CHUNK_LINES)):
            count += len(chunk)
            chunk.append("")  # the last line's "\n"
            fh.write("\n".join(chunk).encode("utf-8"))
    return count


def write_corpus(path: str | Path, sentences: Iterable[Sentence]) -> None:
    write_lines(path, map(" ".join, sentences))


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
    words; a failed check names the first bad line, and a file with no
    sentence raises InputError too."""
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
    if not sentences:
        raise InputError(f"{path}: no sentences")
    return sentences
