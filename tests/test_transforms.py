import gc
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langlab.corpusio import (InputError, normalize_line, read_corpus, write_corpus,
                              write_lines)
from langlab.grammar import GenerationConfig, Sentence, generate_corpus
from langlab.tokenizer import build_vocabulary, encode, encode_corpus
from langlab.transforms import (
    NOT_TOKEN,
    TransformKind,
    apply_transform,
    invert_parity_negation,
    transform_file,
)
import corpusref
from sentences import sent

words_strategy = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
    min_size=1,
    max_size=12,
).map(tuple)



# --------------------------------------------------------- example sentences


def test_reverse_example():
    out = apply_transform(TransformKind.REVERSE, sent("the workers are using phones"))
    assert " ".join(out) == "phones using are workers the"


def test_parity_even_prepends():
    out = apply_transform(
        TransformKind.PARITY_NEGATION, sent("the horse has enjoyed the school")
    )
    assert " ".join(out) == "NOT the horse has enjoyed the school"


def test_parity_odd_appends():
    out = apply_transform(TransformKind.PARITY_NEGATION, sent("the girl is given cats"))
    assert " ".join(out) == "the girl is given cats NOT"


def test_identity_returns_same_sentence():
    s = sent("the girl is given cats")
    assert apply_transform(TransformKind.IDENTITY, s) is s


# ------------------------------------------------------------------- errors


def test_empty_input_rejected():
    with pytest.raises(InputError, match="empty input"):
        apply_transform(TransformKind.REVERSE, Sentence(()))


def test_reserved_token_rejected():
    with pytest.raises(InputError, match="reserved token present"):
        apply_transform(TransformKind.IDENTITY, sent("the girl is given cats NOT"))


def test_invert_rejects_interior_not():
    with pytest.raises(InputError, match="not a parity-negation"):
        invert_parity_negation(sent("the NOT girl runs"))


def test_invert_rejects_zero_or_multiple():
    with pytest.raises(InputError):
        invert_parity_negation(sent("the girl runs"))
    with pytest.raises(InputError):
        invert_parity_negation(sent("NOT the girl runs NOT"))


# --------------------------------------------------------------- properties


@given(words=words_strategy)
@settings(max_examples=200)
def test_reverse_involution(words):
    s = Sentence(words)
    twice = apply_transform(TransformKind.REVERSE,
                            apply_transform(TransformKind.REVERSE, s))
    assert twice.words == s.words


@given(words=words_strategy)
@settings(max_examples=200)
def test_reverse_preserves_multiset(words):
    s = Sentence(words)
    out = apply_transform(TransformKind.REVERSE, s)
    assert sorted(out.words) == sorted(s.words)
    assert len(out.words) == len(s.words)


@given(words=words_strategy)
@settings(max_examples=200)
def test_parity_position_and_length(words):
    s = Sentence(words)
    out = apply_transform(TransformKind.PARITY_NEGATION, s)
    assert len(out.words) == len(s.words) + 1
    if len(s.words) % 2 == 1:
        assert out.words[-1] == NOT_TOKEN
        assert NOT_TOKEN not in out.words[:-1]
    else:
        assert out.words[0] == NOT_TOKEN
        assert NOT_TOKEN not in out.words[1:]


@given(words=words_strategy)
@settings(max_examples=200)
def test_parity_inversion_round_trip(words):
    s = Sentence(words)
    assert invert_parity_negation(
        apply_transform(TransformKind.PARITY_NEGATION, s)
    ).words == s.words


def test_transforms_on_generated_corpus(small_corpus):
    for s in small_corpus:
        rev = apply_transform(TransformKind.REVERSE, s)
        assert apply_transform(TransformKind.REVERSE, rev).words == s.words
        par = apply_transform(TransformKind.PARITY_NEGATION, s)
        assert invert_parity_negation(par).words == s.words
        assert (par.words[-1] == NOT_TOKEN) == (len(s.words) % 2 == 1)


# ------------------------------------------------------------------ corpora


def test_transform_file_round_trip(tmp_path, small_corpus):
    src = tmp_path / "src.txt"
    mid = tmp_path / "mid.txt"
    back = tmp_path / "back.txt"
    write_corpus(src, small_corpus)
    n = transform_file(TransformKind.REVERSE, src, mid)
    assert n == len(small_corpus)
    transform_file(TransformKind.REVERSE, mid, back)
    assert back.read_bytes() == src.read_bytes()


@pytest.mark.parametrize("kind", list(TransformKind), ids=lambda k: k.value)
def test_transform_file_matches_per_sentence_reference(tmp_path, small_corpus, kind):
    src, out = tmp_path / "src.txt", tmp_path / "out.txt"
    src.write_text("\n".join(["the girl runs", ""] + [" ".join(s) for s in small_corpus])
                   + "\n")  # a blank line is skipped, not transformed
    transform_file(kind, src, out)
    expected = "".join(" ".join(apply_transform(kind, s)) + "\n"
                       for s in read_corpus(src))
    assert out.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("line", ["the cat  sat", "   ", "the dog ran ", " the dog"])
def test_stray_space_is_an_input_error(tmp_path, line):
    src = tmp_path / "bad.txt"
    src.write_text(f"the girl runs\n\n{line}\n")
    with pytest.raises(InputError, match=r"bad\.txt: line 3: empty word"):
        read_corpus(src)
    with pytest.raises(InputError, match=r"bad\.txt: line 3: empty word"):
        transform_file(TransformKind.REVERSE, src, tmp_path / "out.txt")
    assert all("" not in s.words for s in read_corpus(src, normalize=True))


@pytest.mark.parametrize("char", ["\t", "\u00a0"], ids=["tab", "nbsp"])
def test_whitespace_inside_a_word_is_an_input_error(tmp_path, char):
    src = tmp_path / "bad.txt"
    src.write_text(f"the girl runs\n\nthe cat{char}sat\n", encoding="utf-8")
    message = rf"bad\.txt: line 3: whitespace U\+{ord(char):04X} inside a word$"
    with pytest.raises(InputError, match=message):
        read_corpus(src)
    with pytest.raises(InputError, match=message):
        transform_file(TransformKind.REVERSE, src, tmp_path / "out.txt")
    assert [s.words for s in read_corpus(src, normalize=True)][-1] == ("the", "cat", "sat")


def test_corpus_file_format(tmp_path, small_corpus):
    path = tmp_path / "c.txt"
    write_corpus(path, small_corpus[:10])
    raw = path.read_text(encoding="utf-8")
    assert raw.endswith("\n")
    for line in raw.splitlines():
        assert line == " ".join(line.split())
        assert line.strip() == line
    assert [s.words for s in read_corpus(path)] == \
        [s.words for s in small_corpus[:10]]


def test_write_lines_replaces_the_file_only_once_every_line_is_written(tmp_path):
    path = tmp_path / "out.txt"
    assert write_lines(path, ["first", "", "third"]) == 3
    before = path.read_bytes()
    assert before == b"first\n\nthird\n"

    def failing(count):
        yield from (f"new {i}" for i in range(count))
        raise InputError("bad line")

    # in the first chunk, and in the second, after a whole chunk was written
    for count in (1, 10_000):
        with pytest.raises(InputError, match="bad line"):
            write_lines(path, failing(count))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
    assert write_lines(path, (f"new {i}" for i in range(10_000))) == 10_000
    assert path.read_bytes() == "".join(f"new {i}\n" for i in range(10_000)).encode()


# Corpus files for the reference property: lowercase words and words that
# hold NOT, blank lines, LF, CRLF or CR endings, and at most one fault or a
# valid non-ASCII word.
_FILE_WORDS = st.one_of(st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=5),
                        st.sampled_from(["NOT", "NOTE", "kNOT"]))
_FILE_LINES = st.lists(st.one_of(st.just(""),
                                 st.lists(_FILE_WORDS, min_size=1, max_size=6).map(" ".join)),
                       min_size=1, max_size=8)
_INSERTED = ["\t", "\u00a0", "\x0b", "\x85", "\u2028", "\x7f", "café"]


@st.composite
def corpus_files(draw) -> bytes:
    lines = draw(_FILE_LINES)
    fault = draw(st.sampled_from([None, "doubled", "leading", "trailing", "not-utf8",
                                  *_INSERTED]))
    i = draw(st.integers(0, len(lines) - 1))
    if fault == "doubled":
        lines[i] = lines[i].replace(" ", "  ", 1) if " " in lines[i] else lines[i] + "  a"
    elif fault == "leading":
        lines[i] = " " + lines[i]
    elif fault == "trailing":
        lines[i] += " "
    elif fault in _INSERTED:  # anywhere in the line, inside a word or not
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + fault + lines[i][at:]
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (ending.join(lines) + draw(st.sampled_from(["", ending]))).encode("utf-8")
    if fault == "not-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    return data


def _outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=corpus_files(), normalize=st.booleans())
def test_whole_file_paths_match_the_per_line_reference(data, normalize):
    """read_corpus and transform_file give the sentences, output bytes and
    line count of the per-line reference, or raise its error and message."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "c.txt"
        src.write_bytes(data)
        got = _outcome(read_corpus, src, normalize)
        assert got == _outcome(corpusref.read_corpus, src, normalize)
        assert type(got) is tuple or all(type(s) is Sentence for s in got)
        for kind in TransformKind:
            out, ref = Path(tmp) / f"{kind.value}.out", Path(tmp) / f"{kind.value}.ref"
            got = _outcome(transform_file, kind, src, out, normalize)
            assert got == _outcome(corpusref.transform_file, kind, src, ref, normalize)
            if type(got) is int:
                assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
def test_read_corpus_holds_one_string_per_distinct_word(tmp_path, small_corpus, normalize):
    path = tmp_path / "c.txt"
    write_corpus(path, small_corpus)
    back = read_corpus(path, normalize)
    words = [w for s in back for w in s.words]
    assert len({id(w) for w in words}) == len(set(words)) < len(words)
    assert back == small_corpus
    assert [s.words for s in back] == [s.words for s in small_corpus]


def test_read_corpus_shares_normalized_words(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("The girl runs.\nthe GIRL runs\n")
    first, second = read_corpus(path, normalize=True)
    assert first == second == sent("the girl runs")
    assert all(a is b for a, b in zip(first.words, second.words))


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_corpus_builders_restore_the_callers_gc_state(tmp_path, grammar, enabled):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("the girl runs\nthe boy runs\n")
    bad.write_text("the girl runs\n\nthe cat  sat\n")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(generate_corpus(grammar, GenerationConfig(count=20, seed=1))) == 20
        assert gc.isenabled() is enabled
        sentences = read_corpus(good)
        assert len(sentences) == 2
        assert gc.isenabled() is enabled
        vocab = build_vocabulary(sentences)
        assert encode_corpus(vocab, sentences) == [encode(vocab, s) for s in sentences]
        assert gc.isenabled() is enabled
        with pytest.raises(TypeError):  # None has no words to map over
            encode_corpus(vocab, [None])
        assert gc.isenabled() is enabled
        with pytest.raises(InputError, match=r"bad\.txt: line 3: empty word"):
            read_corpus(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_normalize_line():
    assert normalize_line("The girl   is given cats.") == "the girl is given cats"
    assert normalize_line("Hello world!?") == "hello world"
    assert normalize_line("NOT here") == "not here"
    assert normalize_line("   ") == ""
