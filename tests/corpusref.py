"""The per-line corpus reader and file transform that the whole-file paths
of corpusio and transforms replaced, kept as their reference: each line is
read, checked, split and transformed on its own, in file order."""

from pathlib import Path

from langlab.corpusio import InputError, _not_utf8, normalize_line
from langlab.grammar import Sentence
from langlab.transforms import apply_transform


def iter_corpus(path, normalize=False):
    """(1-based file line number, words) of each non-blank line.  The file is
    decoded whole first, as the product reads it, so a byte that is not UTF-8
    is reported before any line fault: a line-by-line decoder would reach a
    truncated sequence at the end of the file only after the last line."""
    try:
        Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = normalize_line(line) if normalize else line.rstrip("\n")
            if line:
                words = tuple(line.split(" "))
                if "" in words:
                    raise InputError(f"{path}: line {line_no}: empty word (stray space)")
                if not line.isprintable():
                    c = next(c for c in line if not c.isprintable())
                    kind = "whitespace" if c.isspace() else "unprintable character"
                    raise InputError(
                        f"{path}: line {line_no}: {kind} U+{ord(c):04X} inside a word")
                yield line_no, words


def read_corpus(path, normalize=False) -> list[Sentence]:
    sentences = [Sentence(words) for _, words in iter_corpus(path, normalize)]
    if not sentences:
        raise InputError(f"{path}: no sentences")
    return sentences


def transform_file(kind, in_path, out_path, normalize=False) -> int:
    """The transformed lines, each with its "\\n", written to out_path as
    they are made; returns the line count."""
    count = 0
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        for count, (line_no, words) in enumerate(iter_corpus(in_path, normalize), 1):
            try:
                words = apply_transform(kind, Sentence(words))
            except InputError as exc:
                raise InputError(f"{in_path}: line {line_no}: {exc}") from exc
            fh.write(" ".join(words))
            fh.write("\n")
    return count
