"""Grammar tests, checked against an independent structural oracle.

The oracle below re-reads the lexicon file and re-implements pluralization
and the surface shapes on its own, so it shares no parsing or generation code
with the package.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langlab.grammar import (
    GenerationConfig,
    Grammar,
    RewriteRule,
    generate_corpus,
    pluralize,
    MODALS,
)

LEXICON = Path(__file__).parent.parent / "src" / "langlab" / "data" / "lexicon.txt"

# ------------------------------------------------------------------- oracle

_ORACLE_IRREGULAR = {
    "child": "children", "man": "men", "woman": "women", "person": "people",
    "mouse": "mice", "tooth": "teeth", "foot": "feet", "goose": "geese",
    "sheep": "sheep", "fish": "fish", "wolf": "wolves", "knife": "knives",
    "leaf": "leaves", "shelf": "shelves",
}


def _oracle_plural(noun):
    if noun in _ORACLE_IRREGULAR:
        return _ORACLE_IRREGULAR[noun]
    if noun.endswith("y") and noun[-2] not in "aeiou":
        return noun[:-1] + "ies"
    for suffix in ("s", "x", "z", "ch", "sh"):
        if noun.endswith(suffix):
            return noun + "es"
    return noun + "s"


def _oracle_lexicon():
    nouns, verbs = [], []
    section = None
    for raw in LEXICON.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            section = line.strip("[]")
        elif section == "nouns":
            nouns.append(line)
        elif section == "verbs":
            verbs.append(tuple(line.split()))
    return nouns, verbs


_NOUNS, _VERBS = _oracle_lexicon()
_SING = set(_NOUNS)
_PLUR = {_oracle_plural(n) for n in _NOUNS}
_V_BASE = {v[0] for v in _VERBS}
_V_ING = {v[1] for v in _VERBS}
_V_EN = {v[2] for v in _VERBS}

# auxiliary chains: (words after subject, verb-form set, subject number or None)
_AUX_PATTERNS = []
for aux, num in (("is", "sing"), ("are", "pl"), ("was", "sing"), ("were", "pl")):
    _AUX_PATTERNS.append(((aux,), _V_ING, num))
    _AUX_PATTERNS.append(((aux,), _V_EN, num))
for aux, num in (("has", "sing"), ("have", "pl")):
    _AUX_PATTERNS.append(((aux,), _V_EN, num))
for m in ("will", "can", "may", "shall", "must"):
    _AUX_PATTERNS.append(((m,), _V_BASE, None))
    _AUX_PATTERNS.append(((m, "be"), _V_ING, None))
    _AUX_PATTERNS.append(((m, "have"), _V_EN, None))
    _AUX_PATTERNS.append(((m, "have", "been"), _V_ING, None))


def oracle_parse(words):
    """Returns the subject number if the sentence matches the SVO surface
    grammar with subject-auxiliary agreement, else None.  Nouns whose plural
    equals the singular (fish, sheep) admit either number."""
    if len(words) < 5 or words[0] != "the":
        return None
    numbers = [n for n, forms in (("sing", _SING), ("pl", _PLUR))
               if words[1] in forms]
    if not numbers:
        return None
    rest = words[2:]
    for number in numbers:
        for chain, verb_forms, req_num in _AUX_PATTERNS:
            n = len(chain)
            if tuple(rest[:n]) != chain or len(rest) <= n:
                continue
            if req_num is not None and req_num != number:
                continue
            if rest[n] not in verb_forms:
                continue
            obj = rest[n + 1:]
            if len(obj) == 1 and obj[0] in _PLUR:
                return number
            if (len(obj) == 2 and obj[0] == "the"
                    and (obj[1] in _SING or obj[1] in _PLUR)):
                return number
    return None


# -------------------------------------------------------------------- tests


def test_first_rule_is_sentence_to_np_vp(grammar):
    assert grammar.start == "Sentence"
    assert grammar.rules[0] == RewriteRule("Sentence", ("NP", "VP"))


def test_modal_set(grammar):
    modal_words = {grammar.rules[i].rhs[0] for i in grammar.rules_for("M")}
    assert modal_words == {"will", "can", "may", "shall", "must"}
    assert MODALS == ("will", "can", "may", "shall", "must")


def test_nonterminals_terminals_disjoint(grammar):
    assert not (grammar.nonterminals & grammar.terminals)
    grammar.validate()


def test_grammar_validation_rejects_bad_rules():
    bad = Grammar(
        nonterminals=frozenset({"S"}),
        terminals=frozenset({"a"}),
        rules=(RewriteRule("S", ()),),
        start="S",
    )
    with pytest.raises(ValueError, match="empty rhs"):
        bad.validate()


def test_empty_rhs_only_for_singular_morpheme(grammar):
    empties = [r for r in grammar.rules if not r.rhs]
    assert [r.lhs for r in empties] == ["SgMorph"]


def test_pluralizer_fixtures():
    assert pluralize("worker") == "workers"
    assert pluralize("phone") == "phones"
    assert pluralize("cat") == "cats"
    assert pluralize("child") == "children"
    assert pluralize("city") == "cities"
    assert pluralize("box") == "boxes"
    assert pluralize("church") == "churches"
    assert pluralize("wolf") == "wolves"
    assert pluralize("sheep") == "sheep"


def test_lexicon_sizes():
    assert len(_NOUNS) >= 50
    assert len(_VERBS) >= 30
    assert len(set(_NOUNS)) == len(_NOUNS)


def test_generate_deterministic(grammar):
    a = generate_corpus(grammar, GenerationConfig(count=1, seed=42))
    b = generate_corpus(grammar, GenerationConfig(count=1, seed=42))
    assert a == b


def test_corpus_deterministic(grammar):
    config = GenerationConfig(count=50, seed=9)
    assert generate_corpus(grammar, config) == generate_corpus(grammar, config)


def test_empty_corpus(grammar):
    assert generate_corpus(grammar, GenerationConfig(count=0, seed=1)) == []


def test_corpus_count(grammar):
    assert len(generate_corpus(grammar, GenerationConfig(count=137, seed=3))) == 137


def test_three_sentences_seed7_oracle_checked(grammar):
    for s in generate_corpus(grammar, GenerationConfig(count=3, seed=7)):
        assert oracle_parse(s.words) is not None, " ".join(s)


def test_generated_sentences_match_oracle_and_derive(grammar, small_corpus):
    for s in small_corpus:
        assert oracle_parse(s.words) is not None, " ".join(s)


def test_surface_length_bounds(grammar, small_corpus):
    lengths = {len(s.words) for s in small_corpus}
    assert min(lengths) == 5
    assert max(lengths) == 8


def test_agreement_enforced(grammar, small_corpus):
    # oracle_parse returns None on any number-agreement violation
    for s in small_corpus:
        number = oracle_parse(s.words)
        assert number in ("sing", "pl")


def test_sentence_tokens_clean(small_corpus):
    for s in small_corpus:
        assert s.words
        for w in s.words:
            assert w == w.lower()
            assert w.isalpha()


def test_derives_reference_sentences():
    assert oracle_parse("the workers are using phones".split()) == "pl"
    assert oracle_parse("the horse has enjoyed the school".split()) == "sing"
    assert oracle_parse("the girl is given cats".split()) == "sing"


def test_derives_rejects_reversed():
    assert oracle_parse("phones using are workers the".split()) is None


def test_derives_rejects_empty():
    assert oracle_parse(()) is None


def test_derives_rejects_garbage():
    assert oracle_parse("the the the the the".split()) is None
    assert oracle_parse("the girl is given".split()) is None


def test_negative_count_rejected(grammar):
    with pytest.raises(ValueError, match="non-negative"):
        generate_corpus(grammar, GenerationConfig(count=-1, seed=1))


def test_nonterminal_without_rules_raises_instead_of_drawing_forever():
    # randrange(0) raises; a draw of getrandbits(0) until it is below 0 would not end
    grammar = Grammar(frozenset({"S", "X"}), frozenset({"a"}),
                      (RewriteRule("S", ("a", "X")),), "S")
    grammar.validate()
    with pytest.raises(KeyError, match="X"):
        generate_corpus(grammar, GenerationConfig(count=1, seed=1))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 63 - 1))
def test_any_seed_generates_derivable(grammar, seed):
    [s] = generate_corpus(grammar, GenerationConfig(count=1, seed=seed))
    assert oracle_parse(s.words) is not None, " ".join(s)
    assert 5 <= len(s.words) <= 8


# ------------------------------------------- reference: recursive expansion

_REF_AUX_NUMBER = {"is": "sing", "are": "pl", "was": "sing", "were": "pl",
                   "has": "sing", "have": "pl"}


def _reference_expand(grammar, symbol, rng, state, words):
    """The recursive generator the compiled expander replaced."""
    if symbol in grammar.terminals:
        words.append(symbol)
        return
    candidates = grammar.rules_for(symbol)
    if symbol in ("AuxBePres", "AuxBePast", "AuxHave"):
        number = state["number"]
        candidates = tuple(i for i in candidates
                           if _REF_AUX_NUMBER[grammar.rules[i].rhs[0]] == number)
    index = candidates[rng.randrange(len(candidates))]
    rule = grammar.rules[index]
    if symbol == "NP":
        state["number"] = "sing" if rule.rhs == ("NP_sing",) else "pl"
    for sym in rule.rhs:
        _reference_expand(grammar, sym, rng, state, words)


def _reference_sentence(grammar, rng):
    words = []
    _reference_expand(grammar, grammar.start, rng, {"number": ""}, words)
    return tuple(words)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 63 - 1))
def test_expander_matches_recursive_reference(grammar, seed):
    config = GenerationConfig(count=60, seed=seed)
    rng = random.Random(seed)
    expected = [_reference_sentence(grammar, rng) for _ in range(config.count)]
    assert [s.words for s in generate_corpus(grammar, config)] == expected
