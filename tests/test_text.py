"""Tokenization and n-gram primitives."""

import unicodedata

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiscore.text import Sentence, char_ngrams, overlap, tokenize_words, word_ngrams


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


class TestWordNgrams:
    def test_unigrams(self):
        grams = word_ngrams(["a", "b", "a"], 1)
        assert grams == {("a",): 2, ("b",): 1}

    def test_bigrams(self):
        grams = word_ngrams(["a", "b", "a"], 2)
        assert grams == {("a", "b"): 1, ("b", "a"): 1}

    def test_short_sequence(self):
        assert word_ngrams(["a"], 2) == {}

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            word_ngrams(["a"], 0)

    def test_unigram_total_is_token_count(self):
        rng = np.random.default_rng(11)
        vocab = list("abcdefg")
        for _ in range(50):
            tokens = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, 12))]
            assert word_ngrams(tokens, 1).total() == len(tokens)


class TestCharNgrams:
    def test_bigrams(self):
        assert char_ngrams("abab", 2) == {"ab": 2, "ba": 1}

    def test_strip_whitespace_unigrams(self):
        assert Sentence("a b").char_profile(1) == {"a": 1, "b": 1}

    def test_strip_whitespace_bigrams(self):
        # stripping joins across the space: the only bigram is "ab"
        assert Sentence("a b").char_profile(2) == {"ab": 1}

    def test_total_count_identity(self):
        rng = np.random.default_rng(7)
        chars = "abc xyz"
        for _ in range(100):
            s = "".join(chars[i] for i in rng.integers(0, len(chars), size=rng.integers(0, 20)))
            n = int(rng.integers(1, 5))
            total = char_ngrams(s, n).total()
            assert total == max(0, len(s) - n + 1)

    def test_overlap(self):
        a = char_ngrams("abab", 2)
        b = char_ngrams("abba", 2)
        # shared: ab x1 (min(2,1)), ba x1
        assert overlap(a, b) == overlap(b, a) == 2
        assert overlap(a, char_ngrams("", 2)) == 0


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
