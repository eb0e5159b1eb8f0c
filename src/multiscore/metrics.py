"""Sentence- and corpus-level quality metrics (BLEU, chrF++) plus Self-BLEU.

All scores live on a 0-100 scale. These functions are the per-pair API,
and every one of them takes its integer statistics from the count tables
of :mod:`multiscore.table`, as :func:`~multiscore.evaluate_all` and
:func:`~multiscore.corpus_multi_score` do: a segment is an instance with
one output, and a call makes one table pass over its segments. A sentence
score is one segment's statistics scored, a corpus score their sums, by
the one BLEU and chrF++ formula of :mod:`multiscore.table`. Sentence-level
scorers double as the pairwise metric consumed by the assignment-based set
evaluation, via the :class:`SentenceMetric` adapters at the bottom of the
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .text import Sentence

SentenceLike = Union[str, Sentence]

SMOOTH_NONE = "none"
SMOOTH_ADD_ONE = "add-one"  # +1 on matched and total counts for orders >= 2


@dataclass(frozen=True)
class BleuConfig:
    """BLEU parameters.

    :param max_order: highest n-gram order entering the geometric mean.
    :param smoothing: ``"add-one"`` adds 1 to matched and total counts for
        every order >= 2 (the sentence-level default); ``"none"`` is the
        corpus-level default.
    """

    max_order: int = 4
    smoothing: str = SMOOTH_ADD_ONE

    def __post_init__(self):
        if not 1 <= self.max_order <= 9:
            raise ValueError(f"max_order must be in [1, 9], got {self.max_order}")
        if self.smoothing not in (SMOOTH_NONE, SMOOTH_ADD_ONE):
            raise ValueError(f"unknown smoothing scheme: {self.smoothing!r}")


@dataclass(frozen=True)
class ChrfConfig:
    """chrF++ parameters: character orders 1..char_order, word orders
    1..word_order, F-score weight beta (recall counts beta^2 times)."""

    char_order: int = 6
    word_order: int = 2
    beta: float = 2.0

    def __post_init__(self):
        if self.char_order < 1:
            raise ValueError(f"char_order must be >= 1, got {self.char_order}")
        if self.word_order < 0:
            raise ValueError(f"word_order must be >= 0, got {self.word_order}")
        # beta * beta must be finite too, or the F-score reads inf / inf
        if not (self.beta > 0 and math.isfinite(self.beta * self.beta)):
            raise ValueError(f"beta must be > 0 with a finite square, got {self.beta}")


_SENTENCE_BLEU_DEFAULT = BleuConfig()
_CORPUS_BLEU_DEFAULT = BleuConfig(smoothing=SMOOTH_NONE)
_CHRF_DEFAULT = ChrfConfig()


class _Texts(NamedTuple):
    """An instance of the count tables, its texts keyed under their own
    casing, so the tables are read with ``lowercase=False``. Unlike an
    :class:`~multiscore.EvalInstance`, an output may be blank (``""``): it
    has no n-grams."""

    outputs: tuple[str, ...]
    references: tuple[str, ...]


def _texts(outputs: Sequence[SentenceLike], references: Sequence[SentenceLike]) -> _Texts:
    """Outputs against non-empty, non-blank references, each text keyed as
    the count tables read it: a :class:`Sentence` under its own
    ``lowercase``, a plain string lowercased."""
    from .table import _keys  # loaded on first use, like every table read

    if not references:
        raise ValueError("references must be non-empty")
    for ref in references:
        if not isinstance(ref, Sentence) and not ref.strip():
            raise ValueError("reference sentence must be non-empty")

    def key(text):
        [keyed] = _keys([text.raw], text.lowercase) if isinstance(text, Sentence) else _keys([text], True)
        return keyed

    return _Texts(tuple(map(key, outputs)), tuple(map(key, references)))


def _bleu(segments: Sequence[_Texts], config: BleuConfig) -> float:
    """BLEU of the summed statistics of one-output ``segments``, each
    output against all its references: matches clipped by the largest
    count in any one reference, and the reference length closest to the
    hypothesis length, ties toward the shorter. A blank hypothesis has
    length 0 and no n-grams."""
    from .table import _bleu_scores, count_blocks

    totals = np.zeros(2 + 2 * config.max_order, dtype=np.int64)
    for block in count_blocks(segments, False, slot_order=config.max_order):
        totals += block.slot_bleu[:, 0].sum(axis=0)
    return float(_bleu_scores(totals, config))


def _chrf(segments: Sequence[_Texts], config: ChrfConfig) -> float:
    """chrF++ of the summed statistics of one-output ``segments``, each of
    its best reference: the first best-scoring one, as
    :func:`~multiscore.evaluate_all` picks it, so a lone segment scores the
    maximum over its references. A blank hypothesis scores 0 against every
    reference and takes its shortest by characters, the first of them."""
    from .table import _chrf_scores, count_blocks

    totals = np.zeros(3 * (config.char_order + config.word_order), dtype=np.int64)
    for block in count_blocks(segments, False, char_order=config.char_order, word_order=config.word_order):
        stats = block.pair_chrf[:, 0]  # (segment, reference, statistics)
        # a column past a segment's references scores 0, after them all
        best = _chrf_scores(stats, config.beta).argmax(axis=1)
        n_refs = np.array([max(cols) + 1 for cols in block.ref_cols])
        chars = np.where(np.arange(stats.shape[1]) < n_refs[:, None], stats[:, :, 2], np.iinfo(np.int64).max)
        best = np.where(stats[:, 0, 1] == 0, chars.argmin(axis=1), best)
        totals += stats[np.arange(len(stats)), best].sum(axis=0)
    return float(_chrf_scores(totals, config.beta))


def sentence_bleu(
    hypothesis: SentenceLike,
    references: Sequence[SentenceLike],
    config: BleuConfig | None = None,
) -> float:
    """Sentence-level BLEU of ``hypothesis`` against one or more references.

    Modified n-gram precisions are clipped against the per-gram maximum
    count over the references; the brevity penalty uses the reference
    length closest to the hypothesis length (ties toward the shorter).
    Add-one smoothing (the default here) applies to orders >= 2. An empty
    hypothesis scores 0; a unigram precision of 0 scores 0.

    :param hypothesis: hypothesis sentence (may be an empty string).
    :param references: non-empty list of non-empty references.
    :param config: BLEU parameters; defaults to smoothed order-4.
    :return: score in [0, 100].
    """
    config = config or _SENTENCE_BLEU_DEFAULT
    return _bleu([_texts([hypothesis], references)], config)


def corpus_bleu(
    pairs: Sequence[tuple[SentenceLike, Sequence[SentenceLike]]],
    config: BleuConfig | None = None,
) -> float:
    """Micro-aggregated corpus BLEU.

    Clipped match counts, totals, hypothesis lengths and effective
    reference lengths are summed over all segments before the BLEU formula
    is applied once. Unsmoothed by default (the conventional corpus
    setting); a single-segment corpus therefore equals the unsmoothed
    sentence score.

    :param pairs: non-empty list of (hypothesis, reference-list) segments.
    :return: score in [0, 100].
    """
    config = config or _CORPUS_BLEU_DEFAULT
    if not pairs:
        raise ValueError("corpus must contain at least one segment")
    segments = [_texts([hypothesis], references) for hypothesis, references in pairs]
    return _bleu(segments, config)


def sentence_chrfpp(
    hypothesis: SentenceLike,
    reference: SentenceLike,
    config: ChrfConfig | None = None,
) -> float:
    """Sentence-level chrF++ of ``hypothesis`` against a single reference.

    n-gram precision and recall are computed for every character order
    (over whitespace-stripped characters) and word order, arithmetic-meaned
    across orders (orders with no n-grams on either side are skipped), and
    combined into an F-beta score.

    :return: score in [0, 100].
    """
    config = config or _CHRF_DEFAULT
    return _chrf([_texts([hypothesis], [reference])], config)


def corpus_chrfpp(
    pairs: Sequence[tuple[SentenceLike, SentenceLike | Sequence[SentenceLike]]],
    config: ChrfConfig | None = None,
) -> float:
    """Micro-aggregated corpus chrF++.

    Per-order matched/total statistics are summed over all segments, then
    the same mean-then-F computation as the sentence level is applied. A
    segment's reference may be a single sentence or a list; with a list the
    segment contributes the statistics of its best-matching reference, the
    first on ties.

    :param pairs: non-empty list of (hypothesis, reference) segments.
    :return: score in [0, 100].
    """
    config = config or _CHRF_DEFAULT
    if not pairs:
        raise ValueError("corpus must contain at least one segment")
    segments = [
        _texts([hypothesis], [reference] if isinstance(reference, (str, Sentence)) else reference)
        for hypothesis, reference in pairs
    ]
    return _chrf(segments, config)


def self_bleu(outputs: Sequence[SentenceLike], config: BleuConfig | None = None) -> float:
    """Self-BLEU of an output set: mean smoothed sentence BLEU of each
    output against all the others. Higher means less diverse.

    :param outputs: at least two sentences.
    :return: score in [0, 100].
    """
    if len(outputs) < 2:
        raise ValueError("self-BLEU needs at least 2 outputs")
    config = config or _SENTENCE_BLEU_DEFAULT
    from .table import _bleu_scores, count_blocks

    # each output is a reference of the others, so none may be blank; an
    # output's others are the set less one copy of it: one score per text
    texts = _texts(outputs, outputs)
    [block] = count_blocks([texts._replace(references=())], False, self_order=config.max_order)
    scores = _bleu_scores(block.self_bleu[0], config).tolist()
    return sum(scores[col] for col in block.out_cols[0]) / len(outputs)


class SentenceMetric:
    """Contract for a pairwise scorer mapping (hypothesis, references) to a
    deterministic value in [0, 100], with identity scoring 100.

    ``score`` must be a pure function of its texts (and casing): it may not
    keep state between calls or depend on which equal object it is handed.
    :func:`~multiscore.score_matrix` relies on this and calls it once per
    distinct (output, reference) pair, copying the score to every cell that
    pair occupies."""

    name = "metric"

    def score(self, hypothesis: SentenceLike, references: Sequence[SentenceLike]) -> float:
        raise NotImplementedError


class BleuMetric(SentenceMetric):
    """Smoothed sentence-level BLEU as a :class:`SentenceMetric`."""

    name = "bleu"

    def __init__(self, config: BleuConfig | None = None):
        self.config = config or _SENTENCE_BLEU_DEFAULT

    def score(self, hypothesis, references):
        return sentence_bleu(hypothesis, references, self.config)


class ChrfMetric(SentenceMetric):
    """Sentence-level chrF++ as a :class:`SentenceMetric`. Multiple
    references score as the maximum over single-reference scores."""

    name = "chrf"

    def __init__(self, config: ChrfConfig | None = None):
        self.config = config or _CHRF_DEFAULT

    def score(self, hypothesis, references):
        return _chrf([_texts([hypothesis], references)], self.config)
