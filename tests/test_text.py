"""Word tokenization and the Sentence type."""

import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiscore.text import Sentence, tokenize_words


class TestTokenizeWords:
    def test_punctuation_detached(self):
        assert tokenize_words("The cat sat.") == ["the", "cat", "sat", "."]

    def test_empty(self):
        assert tokenize_words("") == []
        assert tokenize_words("   \t\n") == []

    def test_comma(self):
        assert tokenize_words("Baku, Azerbaijan") == ["baku", ",", "azerbaijan"]

    def test_lowercase_off(self):
        assert tokenize_words("The Cat", lowercase=False) == ["The", "Cat"]

    def test_cyrillic(self):
        # Unicode casing and punctuation must work beyond ASCII
        assert tokenize_words("Баку, Азербайджан") == ["баку", ",", "азербайджан"]

    def test_internal_punctuation(self):
        assert tokenize_words("don't stop") == ["don", "'", "t", "stop"]

    def test_deterministic(self):
        text = "Some; mixed, input with. punctuation!"
        assert tokenize_words(text) == tokenize_words(text)


_raw_texts = st.one_of(st.text(), st.text(alphabet=" \t\n\u00a0\u3000,.!?'-()«»abcXYZБжİß"))


@given(_raw_texts)
def test_tokenizer_invariants(raw):
    tokens = tokenize_words(raw)
    assert not any(ch.isspace() for token in tokens for ch in token)
    # every punctuation character is a token of its own
    assert all(len(token) == 1 for token in tokens if any(unicodedata.category(ch).startswith("P") for ch in token))
    assert "".join(tokens) == "".join(raw.lower().split())


class TestSentence:
    def test_tokens_cached_and_idempotent(self):
        s = Sentence("The cat sat.")
        assert s.tokens == ("the", "cat", "sat", ".")
        assert s.tokens is s.tokens
        assert tuple(tokenize_words(s.raw)) == s.tokens

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sentence("   ")

    def test_strips_surrounding_whitespace(self):
        assert Sentence("  hi there  ").raw == "hi there"

    def test_chars_whitespace_stripped(self):
        assert Sentence("a b  c").chars == "abc"

    def test_cased(self):
        s = Sentence("The Cat", lowercase=False)
        assert s.tokens == ("The", "Cat")
        assert s.chars == "TheCat"


def test_no_alphanumeric_character_is_punctuation():
    # tokenize_words keeps an alphanumeric chunk whole without looking at
    # its characters, which is exact only while this holds
    assert not [c for c in range(0x110000) if chr(c).isalnum() and unicodedata.category(chr(c))[0] == "P"]
