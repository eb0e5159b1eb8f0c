"""Sentence- and corpus-level quality metrics (BLEU, chrF++) plus Self-BLEU.

All scores live on a 0-100 scale. Each metric extracts one segment's
sufficient statistics (``_bleu_stats``, ``_chrf_stats``); a sentence score
is computed from one segment's statistics, a corpus score from their sums,
by the one BLEU and chrF++ formula of :mod:`multiscore.table`. Sentence-level
scorers double as the pairwise metric consumed by the assignment-based set
evaluation, via the :class:`SentenceMetric` adapters at the bottom of the
module.

These functions are the per-pair API. :func:`~multiscore.evaluate_all`,
and :func:`~multiscore.corpus_multi_score` with a :class:`BleuMetric` or
:class:`ChrfMetric`, take the same integer statistics from the count
tables of :mod:`multiscore.table` instead, a block of them at a time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence, Union

from .text import Sentence, overlap

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


def _segment(
    hypothesis: SentenceLike, references: Sequence[SentenceLike]
) -> tuple[Sentence | None, list[Sentence]]:
    """One segment's hypothesis and references as :class:`Sentence`s. A
    blank string hypothesis becomes ``None``: it has no n-grams."""
    if not references:
        raise ValueError("references must be non-empty")
    refs = []
    for ref in references:
        if not isinstance(ref, Sentence):
            if not ref.strip():
                raise ValueError("reference sentence must be non-empty")
            ref = Sentence(ref)
        refs.append(ref)
    if isinstance(hypothesis, Sentence):
        return hypothesis, refs
    return (Sentence(hypothesis) if hypothesis.strip() else None), refs


def _bleu_stats(hyp: Sentence | None, refs: Sequence[Sentence], max_order: int) -> list[int]:
    """One segment's BLEU statistics: ``[hyp_len, ref_len, matched_1..N,
    total_1..N]``. Matches are clipped against the per-gram maximum count
    over the references; ``ref_len`` is the reference length closest to
    ``hyp_len``, ties toward the shorter. A blank hypothesis has length 0
    and no n-grams. Each distinct reference is read once: a repeat changes neither."""
    refs = dict.fromkeys(refs)
    hyp_len = len(hyp.tokens) if hyp is not None else 0
    ref_len = min((len(r.tokens) for r in refs), key=lambda r: (abs(r - hyp_len), r))
    matched, total = [0] * max_order, [0] * max_order
    if hyp is not None:
        for n in range(1, max_order + 1):
            counts = hyp.word_profile(n)
            cap: dict = {}  # shared n-gram -> its largest count in any one reference
            for ref in refs:
                profile = ref.word_profile(n)
                for gram in counts.keys() & profile.keys():
                    cap[gram] = max(cap.get(gram, 0), profile[gram])
            matched[n - 1] = sum(min(counts[gram], count) for gram, count in cap.items())
            total[n - 1] = sum(counts.values())
    return [hyp_len, ref_len, *matched, *total]


def _bleu_score(stats: Sequence[int], config: BleuConfig) -> float:
    from .table import _bleu_scores  # the one BLEU formula, loaded on first use

    return float(_bleu_scores(stats, config))


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
    return _bleu_score(_bleu_stats(*_segment(hypothesis, references), config.max_order), config)


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
    totals = [0] * (2 + 2 * config.max_order)
    for hypothesis, references in pairs:
        stats = _bleu_stats(*_segment(hypothesis, references), config.max_order)
        totals = [a + b for a, b in zip(totals, stats)]
    return _bleu_score(totals, config)


def _chrf_profiles(sentence: Sentence, config: ChrfConfig) -> list[Counter]:
    # character orders first, then word orders
    return [sentence.char_profile(n) for n in range(1, config.char_order + 1)] + [
        sentence.word_profile(n) for n in range(1, config.word_order + 1)
    ]


def _chrf_stats(hyp: Sentence | None, refs: Sequence[Sentence], config: ChrfConfig) -> list[int]:
    """One segment's chrF++ statistics: ``(matched, hyp_total, ref_total)``
    for every order, flattened. With several references these are the
    statistics of the best-scoring one, the first on ties. A blank
    hypothesis contributes the shortest reference's totals only."""
    if hyp is None:
        shortest = min(refs, key=lambda r: len(r.chars))
        return [x for rp in _chrf_profiles(shortest, config) for x in (0, 0, sum(rp.values()))]
    hyp_profiles = _chrf_profiles(hyp, config)
    candidates = []
    for ref in refs:
        stats = []
        for hp, rp in zip(hyp_profiles, _chrf_profiles(ref, config)):
            stats += (overlap(hp, rp), sum(hp.values()), sum(rp.values()))
        candidates.append(stats)
    if len(candidates) == 1:
        return candidates[0]
    return max(candidates, key=lambda stats: _chrf_score(stats, config.beta))


def _chrf_score(stats: Sequence[int], beta: float) -> float:
    from .table import _chrf_scores  # the one chrF++ formula, loaded on first use

    return float(_chrf_scores(stats, beta))


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
    return _chrf_score(_chrf_stats(*_segment(hypothesis, [reference]), config), config.beta)


def corpus_chrfpp(
    pairs: Sequence[tuple[SentenceLike, SentenceLike | Sequence[SentenceLike]]],
    config: ChrfConfig | None = None,
) -> float:
    """Micro-aggregated corpus chrF++.

    Per-order matched/total statistics are summed over all segments, then
    the same mean-then-F computation as the sentence level is applied. A
    segment's reference may be a single sentence or a list; with a list the
    segment contributes the statistics of its best-matching reference.

    :param pairs: non-empty list of (hypothesis, reference) segments.
    :return: score in [0, 100].
    """
    config = config or _CHRF_DEFAULT
    if not pairs:
        raise ValueError("corpus must contain at least one segment")
    totals = [0] * (3 * (config.char_order + config.word_order))
    for hypothesis, reference in pairs:
        references = [reference] if isinstance(reference, (str, Sentence)) else reference
        stats = _chrf_stats(*_segment(hypothesis, references), config)
        totals = [a + b for a, b in zip(totals, stats)]
    return _chrf_score(totals, config.beta)


def self_bleu(outputs: Sequence[SentenceLike], config: BleuConfig | None = None) -> float:
    """Self-BLEU of an output set: mean smoothed sentence BLEU of each
    output against all the others. Higher means less diverse.

    :param outputs: at least two sentences.
    :return: score in [0, 100].
    """
    if len(outputs) < 2:
        raise ValueError("self-BLEU needs at least 2 outputs")
    config = config or _SENTENCE_BLEU_DEFAULT
    # one Sentence per distinct plain text; blank strings pass through
    made = {o: Sentence(o) for o in dict.fromkeys(outputs) if isinstance(o, str) and o.strip()}
    outputs = [made.get(o, o) for o in outputs]
    # an output's "others" are the set less one copy of it: one score per text
    scores: dict = {}
    for i, out in enumerate(outputs):
        if out not in scores:
            scores[out] = sentence_bleu(out, outputs[:i] + outputs[i + 1 :], config)
    return sum(scores[out] for out in outputs) / len(outputs)


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
        if not references:
            raise ValueError("references must be non-empty")
        return max(sentence_chrfpp(hypothesis, r, self.config) for r in references)
