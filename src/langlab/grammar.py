"""Context-free SVO grammar and seeded corpus generation.

The grammar is a plain (V, sigma, R, S) quadruple over lowercase English words.
Number agreement between the subject and the auxiliary is enforced during
generation, not encoded in the rules, so the rule set stays a pure CFG.
"""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

__all__ = [
    "Grammar",
    "RewriteRule",
    "Sentence",
    "GenerationConfig",
    "default_grammar",
    "generate_corpus",
    "pluralize",
    "load_lexicon",
    "MODALS",
]

_DATA_DIR = Path(__file__).parent / "data"

# The one nonterminal whose rule may have an empty right-hand side
# (the silent singular number morpheme).
SG_MORPH = "SgMorph"

MODALS = ("will", "can", "may", "shall", "must")

# Auxiliary surface forms that must agree with the subject's number.
_AUX_NUMBER = {
    "is": "sing",
    "are": "pl",
    "was": "sing",
    "were": "pl",
    "has": "sing",
    "have": "pl",
}

_IRREGULAR_PLURALS = {
    "child": "children",
    "man": "men",
    "woman": "women",
    "person": "people",
    "mouse": "mice",
    "tooth": "teeth",
    "foot": "feet",
    "goose": "geese",
    "sheep": "sheep",
    "fish": "fish",
    "wolf": "wolves",
    "knife": "knives",
    "leaf": "leaves",
    "shelf": "shelves",
}

_SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")
_VOWELS = "aeiou"


def pluralize(noun: str) -> str:
    """Plural surface form of a singular noun (irregular-aware)."""
    if noun in _IRREGULAR_PLURALS:
        return _IRREGULAR_PLURALS[noun]
    if noun.endswith("y") and len(noun) > 1 and noun[-2] not in _VOWELS:
        return noun[:-1] + "ies"
    if noun.endswith(_SIBILANT_ENDINGS):
        return noun + "es"
    return noun + "s"


@lru_cache(maxsize=None)
def load_lexicon() -> tuple[tuple[str, ...], tuple[tuple[str, str, str], ...]]:
    """Word lists from the bundled data file: (nouns, verb form triples)."""
    nouns: list[str] = []
    verbs: list[tuple[str, str, str]] = []
    section = None
    for raw in (_DATA_DIR / "lexicon.txt").read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            section = line.strip("[]")
            continue
        if section == "nouns":
            nouns.append(line)
        elif section == "verbs":
            base, ing, en = line.split()
            verbs.append((base, ing, en))
    return tuple(nouns), tuple(verbs)


@dataclass(frozen=True)
class RewriteRule:
    lhs: str
    rhs: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.lhs} -> {' '.join(self.rhs) if self.rhs else 'EMPTY'}"


class Sentence(tuple):
    """An ordered sequence of lowercase word tokens, free of punctuation: the
    tuple of its words, with nothing else per sentence."""

    __slots__ = ()

    @property
    def words(self) -> tuple[str, ...]:
        return self


@dataclass(frozen=True)
class Grammar:
    """CFG quadruple: nonterminals, terminals, ordered rules, start symbol."""

    nonterminals: frozenset[str]
    terminals: frozenset[str]
    rules: tuple[RewriteRule, ...]
    start: str

    def validate(self) -> None:
        overlap = self.nonterminals & self.terminals
        if overlap:
            raise ValueError(f"nonterminals and terminals overlap: {sorted(overlap)}")
        if self.start not in self.nonterminals:
            raise ValueError(f"start symbol {self.start!r} is not a nonterminal")
        for rule in self.rules:
            if rule.lhs not in self.nonterminals:
                raise ValueError(f"rule lhs {rule.lhs!r} is not a nonterminal")
            if not rule.rhs and rule.lhs != SG_MORPH:
                raise ValueError(f"empty rhs only allowed for {SG_MORPH}: {rule}")
            for sym in rule.rhs:
                if sym not in self.nonterminals and sym not in self.terminals:
                    raise ValueError(f"unknown symbol {sym!r} in rule {rule}")

    def rules_for(self, symbol: str) -> tuple[int, ...]:
        return tuple(i for i, rule in enumerate(self.rules) if rule.lhs == symbol)


@dataclass(frozen=True)
class GenerationConfig:
    """Corpus size and seed."""

    count: int
    seed: int

    def validate(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be non-negative, got {self.count}")


def default_grammar() -> Grammar:
    """The realized SVO rule set over the bundled lexicon.

    Structure: Sentence -> NP VP; VP -> Verb NPobj; subject NPs carry the
    determiner, object NPs may also be bare plurals.  The abstract agreement
    and number morphemes are realized as auxiliary surface forms (is/are,
    was/were, has/have), optional modal chains (modal, modal have, modal have
    been), and the plural suffix on nouns.  Surface sentences span 5 to 8
    words.
    """
    nouns, verbs = load_lexicon()
    plurals = tuple(pluralize(n) for n in nouns)
    v_base = tuple(v[0] for v in verbs)
    v_ing = tuple(v[1] for v in verbs)
    v_en = tuple(v[2] for v in verbs)

    rules: list[RewriteRule] = [
        RewriteRule("Sentence", ("NP", "VP")),
        RewriteRule("NP", ("NP_sing",)),
        RewriteRule("NP", ("NP_pl",)),
        RewriteRule("NP_sing", ("T", "N", SG_MORPH)),
        RewriteRule(SG_MORPH, ()),
        RewriteRule("NP_pl", ("T", "N_pl")),
        RewriteRule("VP", ("Verb", "NPobj")),
        RewriteRule("NPobj", ("NP_sing",)),
        RewriteRule("NPobj", ("NP_pl",)),
        RewriteRule("NPobj", ("N_pl",)),
        # Aux + V patterns; the verb form is fixed by the auxiliary pattern.
        RewriteRule("Verb", ("AuxBePres", "V_ing")),
        RewriteRule("Verb", ("AuxBePres", "V_en")),
        RewriteRule("Verb", ("AuxBePast", "V_ing")),
        RewriteRule("Verb", ("AuxBePast", "V_en")),
        RewriteRule("Verb", ("AuxHave", "V_en")),
        RewriteRule("Verb", ("M", "V_base")),
        RewriteRule("Verb", ("M", "be", "V_ing")),
        RewriteRule("Verb", ("M", "have", "V_en")),
        RewriteRule("Verb", ("M", "have", "been", "V_ing")),
        RewriteRule("T", ("the",)),
        RewriteRule("AuxBePres", ("is",)),
        RewriteRule("AuxBePres", ("are",)),
        RewriteRule("AuxBePast", ("was",)),
        RewriteRule("AuxBePast", ("were",)),
        RewriteRule("AuxHave", ("has",)),
        RewriteRule("AuxHave", ("have",)),
    ]
    rules.extend(RewriteRule("M", (m,)) for m in MODALS)
    rules.extend(RewriteRule("N", (n,)) for n in nouns)
    rules.extend(RewriteRule("N_pl", (p,)) for p in plurals)
    rules.extend(RewriteRule("V_base", (v,)) for v in v_base)
    rules.extend(RewriteRule("V_ing", (v,)) for v in v_ing)
    rules.extend(RewriteRule("V_en", (v,)) for v in v_en)

    nonterminals = frozenset(r.lhs for r in rules)
    terminals = frozenset(
        sym for r in rules for sym in r.rhs if sym not in nonterminals
    )
    grammar = Grammar(nonterminals, terminals, tuple(rules), "Sentence")
    grammar.validate()
    return grammar


def _expander(grammar: Grammar):
    """Compile the grammar into ``expand(rng)``.

    Each nonterminal with rules becomes one entry, tabulated once per corpus:
    ``(candidates, n, k)``, with one candidate per rule, its count ``n``
    and ``k = n.bit_length()``.  A rule that rewrites to one terminal is
    that word; any other is its right-hand side reversed, with each
    nonterminal replaced by its entry.  The agreeing auxiliaries get a dict
    of entries keyed by subject number.  ``expand`` walks the derivation
    iteratively in preorder on a stack of words and entries, and draws one
    candidate per expanded nonterminal, single candidates included, as
    ``rng.randrange(n)`` does: ``rng.getrandbits(k)`` until the draw is
    below ``n``, so the RNG stream is the same.  A rule that names a
    nonterminal without rules raises KeyError(symbol) here, and reaching a
    subject number without candidates raises KeyError, where the draw would
    never end.
    """
    rules, terminals = grammar.rules, grammar.terminals
    entries: dict = {}
    unfilled = []  # (candidate list, rule indices), filled once every entry exists

    def entry(indices):
        candidates: list = []
        unfilled.append((candidates, indices))
        return candidates, len(indices), len(indices).bit_length()

    for sym in {rule.lhs for rule in rules}:  # the nonterminals with rules
        indices = grammar.rules_for(sym)
        if sym in ("AuxBePres", "AuxBePast", "AuxHave"):  # keyed by subject number
            agreeing = {number: tuple(i for i in indices
                                      if _AUX_NUMBER[rules[i].rhs[0]] == number)
                        for number in ("sing", "pl")}
            entries[sym] = {number: entry(c) for number, c in agreeing.items() if c}
        else:
            entries[sym] = entry(indices)
    for candidates, indices in unfilled:
        for rhs in (rules[i].rhs for i in indices):
            candidates.append(rhs[0] if len(rhs) == 1 and rhs[0] in terminals else
                              tuple(s if s in terminals else entries[s] for s in rhs[::-1]))
    subject = entries.get("NP")  # the only NP expanded: it sets the number
    subject_number = ["sing" if rules[i].rhs == ("NP_sing",) else "pl"
                      for i in grammar.rules_for("NP")]
    start = entries[grammar.start]

    def expand(rng: random.Random) -> Sentence:
        getrandbits = rng.getrandbits
        words: list[str] = []
        number = ""
        stack = [start]
        pop, push, append = stack.pop, stack.extend, words.append
        while stack:
            item = pop()
            if type(item) is str:
                append(item)
                continue
            if type(item) is not tuple:  # keyed by subject number
                item = item[number]
            candidates, n, k = item
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            if item is subject:
                number = subject_number[r]
            candidate = candidates[r]
            if type(candidate) is str:
                append(candidate)
            else:
                push(candidate)
        return Sentence(words)

    return expand


def generate_corpus(grammar: Grammar, config: GenerationConfig) -> list[Sentence]:
    """Exactly config.count sentences, a pure function of (grammar, config)."""
    config.validate()
    expand = _expander(grammar)
    rng = random.Random(config.seed)
    with gc_paused():
        return [expand(rng) for _ in range(config.count)]


@contextmanager
def gc_paused():
    """Cyclic GC off inside, then as the caller had it: for the corpus
    builders, whose lists hold only new acyclic objects, so a collection
    would find nothing to free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
