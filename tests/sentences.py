"""The one sentence constructor the tests share."""

from langlab.grammar import Sentence


def sent(text: str) -> Sentence:
    """The sentence of a whitespace-separated text."""
    return Sentence(text.split())
