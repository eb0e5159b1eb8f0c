"""Word tokenization, and the sentence type the per-pair metrics accept."""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Sentence:
    """One sentence with its casing, and lazily computed, cached word tokens
    and character stream.

    ``lowercase`` controls both tokenization and the character stream used
    by character-level metrics, so a cased evaluation is consistent across
    metrics. The per-pair metric functions read a ``Sentence`` under its own
    casing, beside plain strings, which they lowercase.
    """

    raw: str
    lowercase: bool = True

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

    def __len__(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        """The (stripped) text, so a metric may read ``str(hypothesis)``
        whether it was handed a string or a :class:`Sentence`."""
        return self.raw
