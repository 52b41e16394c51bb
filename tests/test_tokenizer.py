import copy
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langlab.corpusio import InputError, read_corpus, write_corpus
from langlab.grammar import GenerationConfig, Sentence, generate_corpus
from langlab.tokenizer import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    build_vocabulary,
    encode,
    encode_corpus,
    load_vocabulary,
    save_vocabulary,
)
from langlab.transforms import TransformKind, apply_transform
from sentences import sent



def decoded(vocab, s):
    """The words of encode(vocab, s), read back through vocab.id_to_word."""
    return tuple(vocab.id_to_word[i] for i in encode(vocab, s)[1:-1])


def test_special_ids():
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)


def test_one_line_vocab_size():
    vocab = build_vocabulary([sent("the dog runs")])
    assert len(vocab) == 7


def test_determinism():
    corpus = [sent("the dog runs"), sent("the cat runs")]
    assert build_vocabulary(corpus) == build_vocabulary(corpus)


def test_first_appearance_order():
    vocab = build_vocabulary([sent("b a"), sent("c a")])
    assert vocab.word_to_id == {"b": 4, "a": 5, "c": 6}


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocabulary([])


def test_encode_known_example():
    vocab = build_vocabulary([sent("the dog runs")])
    assert encode(vocab, sent("the dog runs")) == (1, 4, 5, 6, 2)


def test_encode_empty_sentence():
    vocab = build_vocabulary([sent("the dog runs")])
    assert encode(vocab, Sentence(())) == (1, 2)


def test_encode_unknown_word():
    vocab = build_vocabulary([sent("the dog runs")])
    assert encode(vocab, sent("the wolf runs")) == (1, 4, UNK_ID, 6, 2)


def test_decode_inverse():
    vocab = build_vocabulary([sent("the dog runs")])
    assert decoded(vocab, sent("the dog runs")) == ("the", "dog", "runs")


def test_decode_boundary():
    vocab = build_vocabulary([sent("the dog runs")])
    assert decoded(vocab, Sentence(())) == ()


def test_round_trip_generated_corpus(small_corpus):
    vocab = build_vocabulary(small_corpus)
    for s in small_corpus:
        assert decoded(vocab, s) == s.words


def test_vocab_size_against_distinct_count_oracle(tmp_path, small_corpus):
    # independent count: distinct whitespace-separated words in the file
    path = tmp_path / "corpus.txt"
    write_corpus(path, small_corpus)
    distinct = set(path.read_text(encoding="utf-8").split())
    vocab = build_vocabulary(small_corpus)
    assert len(vocab) == 4 + len(distinct)


def test_not_membership(small_corpus):
    natural = build_vocabulary(small_corpus)
    parity = build_vocabulary(
        [apply_transform(TransformKind.PARITY_NEGATION, s) for s in small_corpus]
    )
    assert "NOT" not in natural.word_to_id
    assert "NOT" in parity.word_to_id


def test_id_assignment_pure_function_of_corpus(small_corpus):
    a = build_vocabulary(small_corpus)
    b = build_vocabulary(list(small_corpus))
    assert a.word_to_id == b.word_to_id


def test_save_load_round_trip(tmp_path, small_corpus):
    vocab = build_vocabulary(small_corpus)
    path = tmp_path / "words.vocab"
    save_vocabulary(vocab, path)
    assert load_vocabulary(path) == vocab


def test_vocab_file_layout(tmp_path):
    vocab = build_vocabulary([sent("the dog runs")])
    path = tmp_path / "v.vocab"
    save_vocabulary(vocab, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert tuple(lines[:4]) == SPECIAL_TOKENS
    # word line number equals id - 4 after the 4-line header
    for offset, word in enumerate(lines[4:]):
        assert vocab.word_to_id[word] - 4 == offset


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.vocab"
    path.write_text("a\nb\nc\nd\ne\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"bad\.vocab: missing special-token header$"):
        load_vocabulary(path)


@settings(max_examples=100)
@given(st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6),
    min_size=1, max_size=10,
))
def test_round_trip_property(words):
    s = Sentence(tuple(words))
    vocab = build_vocabulary([s])
    assert decoded(vocab, s) == s.words


def _reference_encode(vocab, s):
    """The per-word loop encode() replaced."""
    ids = [BOS_ID]
    for w in s.words:
        ids.append(vocab.word_to_id.get(w, UNK_ID))
    return tuple(ids + [EOS_ID])


_small_words = st.lists(st.sampled_from("a b c d e f g h <unk> <pad>".split()),
                        max_size=9).map(tuple)


@settings(max_examples=150)
@given(train=st.lists(_small_words.filter(bool), min_size=1, max_size=6),
       probe=_small_words)
def test_encode_and_vocabulary_match_reference(train, probe):
    vocab = build_vocabulary(Sentence(w) for w in train)
    order = []
    for w in (w for words in train for w in words):
        if w not in order and w not in SPECIAL_TOKENS:
            order.append(w)
    assert vocab.id_to_word == list(SPECIAL_TOKENS) + order
    assert encode(vocab, Sentence(probe)) == _reference_encode(vocab, Sentence(probe))


@pytest.mark.parametrize("value", [Sentence(("the", "dog"))], ids=["sentence"])
def test_value_types_are_slotted_and_copyable(value):
    assert not hasattr(value, "__dict__")
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin == value and type(twin) is type(value)
        assert hash(twin) == hash(value)
        assert twin.words == ("the", "dog") and " ".join(twin) == "the dog"


# ------------------------------------------------------------- corpus records


@settings(max_examples=50)
@given(words=st.lists(st.sampled_from(["the", "dog", "runs", "NOT"]), max_size=12))
def test_sentence_is_the_size_of_its_tuple(words):
    """A sentence is its tuple of words and nothing more: no wrapper object
    per sentence, no per-instance dict."""
    s = Sentence(words)
    assert sys.getsizeof(s) == sys.getsizeof(tuple(words))
    assert s == tuple(words) and s.words is s
    assert " ".join(s) == " ".join(words)


def test_corpus_producers_return_sentences_and_encode_plain_tuples(tmp_path, grammar):
    generated = generate_corpus(grammar, GenerationConfig(count=50, seed=5))
    path = tmp_path / "c.txt"
    write_corpus(path, generated)
    back = read_corpus(path)
    transformed = [apply_transform(kind, s) for kind in TransformKind for s in back]
    for corpus in (generated, back, transformed):
        assert {type(s) for s in corpus} == {Sentence}
        assert all(type(s.words) is Sentence for s in corpus)
    vocab = build_vocabulary(back)
    encoded = encode_corpus(vocab, back)
    assert {type(e) for e in encoded} == {tuple}
    assert encoded == [encode(vocab, s) for s in generated]
    assert [len(e) for e in encoded] == [len(s) + 2 for s in back]
