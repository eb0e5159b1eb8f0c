"""Tokenization and n-gram extraction primitives shared by all metrics."""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property


def tokenize_words(raw: str, lowercase: bool = True) -> list[str]:
    """Split ``raw`` into word tokens.

    Chunks are separated on Unicode whitespace and every punctuation
    character becomes its own token, so ``"Baku, Azerbaijan"`` yields
    ``["baku", ",", "azerbaijan"]``. Lowercasing is on by default; pass
    ``lowercase=False`` for cased evaluation. Deterministic; an empty or
    all-whitespace string yields an empty list.
    """
    if lowercase:
        raw = raw.lower()
    tokens: list[str] = []
    for chunk in raw.split():
        if chunk.isalnum():  # letters and digits only: no character of category P
            tokens.append(chunk)
            continue
        buf: list[str] = []
        for ch in chunk:
            if unicodedata.category(ch)[0] == "P":
                if buf:
                    tokens.append("".join(buf))
                    buf = []
                tokens.append(ch)
            else:
                buf.append(ch)
        if buf:
            tokens.append("".join(buf))
    return tokens


def overlap(a: Counter, b: Counter) -> int:
    """Total count of the n-grams two count tables share (the size of their
    multiset intersection)."""
    return sum(min(a[gram], b[gram]) for gram in a.keys() & b.keys())


def word_ngrams(tokens, n: int) -> Counter:
    """Counts of all contiguous ``n``-token windows of ``tokens`` (keys are
    token tuples)."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    tokens = tuple(tokens)
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def char_ngrams(raw: str, n: int) -> Counter:
    """Counts of all contiguous ``n``-character windows of ``raw``, taken
    over Unicode code points, never bytes. Whitespace is kept: the chrF rule
    that drops it lives in :attr:`Sentence.chars`.
    """
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return Counter(raw[i : i + n] for i in range(len(raw) - n + 1))


@dataclass(frozen=True)
class Sentence:
    """One sentence with lazily computed, cached word tokens and n-gram
    profiles.

    ``lowercase`` controls both tokenization and the character stream used
    by character-level metrics, so a cased evaluation is consistent across
    metrics. Every metric that scores the same ``Sentence`` object shares
    its profiles, each computed at most once per order.
    """

    raw: str
    lowercase: bool = True
    _word_profiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _char_profiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.raw.strip():
            raise ValueError("sentence text must be non-empty")
        object.__setattr__(self, "raw", self.raw.strip())

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        return tuple(tokenize_words(self.raw, lowercase=self.lowercase))

    @cached_property
    def chars(self) -> str:
        """Whitespace-stripped character stream (chrF substrate)."""
        text = self.raw.lower() if self.lowercase else self.raw
        return "".join(text.split())

    def word_profile(self, n: int) -> Counter:
        """Counts of the word ``n``-grams of :attr:`tokens` (read-only)."""
        profile = self._word_profiles.get(n)
        if profile is None:
            profile = self._word_profiles[n] = word_ngrams(self.tokens, n)
        return profile

    def char_profile(self, n: int) -> Counter:
        """Counts of the ``n``-character windows of :attr:`chars` (read-only)."""
        profile = self._char_profiles.get(n)
        if profile is None:
            profile = self._char_profiles[n] = char_ngrams(self.chars, n)
        return profile

    def __len__(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        """The (stripped) text, so a metric may read ``str(hypothesis)``
        whether it was handed a string or a :class:`Sentence`."""
        return self.raw
