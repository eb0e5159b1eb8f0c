"""Sentence- and corpus-level quality metrics (BLEU, chrF++) plus Self-BLEU.

All scores live on a 0-100 scale. Sentence-level scorers double as the
pairwise metric consumed by the assignment-based set evaluation, via the
:class:`SentenceMetric` adapters at the bottom of the module.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .text import Sentence

__all__ = [
    "BleuConfig",
    "ChrfConfig",
    "sentence_bleu",
    "corpus_bleu",
    "sentence_chrfpp",
    "corpus_chrfpp",
    "self_bleu",
    "SentenceMetric",
    "BleuMetric",
    "ChrfMetric",
    "SMOOTH_NONE",
    "SMOOTH_ADD_ONE",
]

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
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


_SENTENCE_BLEU_DEFAULT = BleuConfig()
_CORPUS_BLEU_DEFAULT = BleuConfig(smoothing=SMOOTH_NONE)
_CHRF_DEFAULT = ChrfConfig()


def _as_sentence(text: SentenceLike) -> Sentence:
    return text if isinstance(text, Sentence) else Sentence(text)


def _as_reference(text: SentenceLike) -> Sentence:
    try:
        return _as_sentence(text)
    except ValueError:
        raise ValueError("reference sentence must be non-empty") from None


def _clipped_matches(hyp: Sentence, refs: Sequence[Sentence], n: int) -> tuple[int, int]:
    """Matched (clipped against the per-gram maximum over references) and
    total hypothesis n-gram counts for one order."""
    hyp_counts = hyp.word_profile(n)
    total = sum(hyp_counts.values())
    if total == 0:
        return 0, 0
    cap: Counter = Counter()
    for ref in refs:
        for gram, count in ref.word_profile(n).items():
            if gram in hyp_counts and count > cap[gram]:
                cap[gram] = count
    matched = sum(min(count, cap[gram]) for gram, count in hyp_counts.items() if gram in cap)
    return matched, total


def _closest_ref_len(hyp_len: int, ref_lens: Iterable[int]) -> int:
    # closest reference length; ties resolved toward the shorter one
    return min(ref_lens, key=lambda r: (abs(r - hyp_len), r))


def _bleu_from_stats(
    matched: Sequence[int],
    total: Sequence[int],
    hyp_len: int,
    ref_len: int,
    config: BleuConfig,
) -> float:
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for i in range(config.max_order):
        m, t = matched[i], total[i]
        if config.smoothing == SMOOTH_ADD_ONE and i >= 1:
            m += 1
            t += 1
        if m == 0 or t == 0:
            return 0.0
        log_sum += math.log(m / t)
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return bp * math.exp(log_sum / config.max_order) * 100.0


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
    if not references:
        raise ValueError("references must be non-empty")
    refs = [_as_reference(r) for r in references]
    if isinstance(hypothesis, str) and not hypothesis.strip():
        return 0.0
    hyp = _as_sentence(hypothesis)
    matched, total = [], []
    for n in range(1, config.max_order + 1):
        m, t = _clipped_matches(hyp, refs, n)
        matched.append(m)
        total.append(t)
    ref_len = _closest_ref_len(len(hyp.tokens), [len(r.tokens) for r in refs])
    return _bleu_from_stats(matched, total, len(hyp.tokens), ref_len, config)


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
    matched = [0] * config.max_order
    total = [0] * config.max_order
    hyp_len_sum = 0
    ref_len_sum = 0
    for hypothesis, references in pairs:
        if not references:
            raise ValueError("references must be non-empty")
        refs = [_as_reference(r) for r in references]
        hyp_len = 0
        # an empty hypothesis adds no n-grams, only its reference length
        if not isinstance(hypothesis, str) or hypothesis.strip():
            hyp = _as_sentence(hypothesis)
            hyp_len = len(hyp.tokens)
            for n in range(1, config.max_order + 1):
                m, t = _clipped_matches(hyp, refs, n)
                matched[n - 1] += m
                total[n - 1] += t
        hyp_len_sum += hyp_len
        ref_len_sum += _closest_ref_len(hyp_len, [len(r.tokens) for r in refs])
    return _bleu_from_stats(matched, total, hyp_len_sum, ref_len_sum, config)


def _chrf_segment_stats(hyp: Sentence, ref: Sentence, config: ChrfConfig) -> list[tuple[int, int, int]]:
    """Per-order (matched, hyp_total, ref_total) triples: character orders
    first, then word orders."""
    stats = []
    for n in range(1, config.char_order + 1):
        hp = hyp.char_profile(n)
        rp = ref.char_profile(n)
        stats.append((sum((hp & rp).values()), sum(hp.values()), sum(rp.values())))
    for n in range(1, config.word_order + 1):
        hp = hyp.word_profile(n)
        rp = ref.word_profile(n)
        stats.append((sum((hp & rp).values()), sum(hp.values()), sum(rp.values())))
    return stats


def _chrf_from_stats(stats: Sequence[tuple[int, int, int]], beta: float) -> float:
    precisions, recalls = [], []
    for matched, hyp_total, ref_total in stats:
        if hyp_total == 0 and ref_total == 0:
            continue  # order carries no n-grams on either side
        precisions.append(matched / hyp_total if hyp_total else 0.0)
        recalls.append(matched / ref_total if ref_total else 0.0)
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p + r == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * p * r / (b2 * p + r) * 100.0


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
    ref = _as_reference(reference)
    if isinstance(hypothesis, str) and not hypothesis.strip():
        return 0.0
    hyp = _as_sentence(hypothesis)
    return _chrf_from_stats(_chrf_segment_stats(hyp, ref, config), config.beta)


def _best_reference(hyp: Sentence, refs: Sequence[Sentence], config: ChrfConfig) -> Sentence:
    # multi-reference segments keep the statistics of the best-scoring
    # reference; ties keep the first
    best, best_score = refs[0], -1.0
    for ref in refs:
        score = _chrf_from_stats(_chrf_segment_stats(hyp, ref, config), config.beta)
        if score > best_score:
            best, best_score = ref, score
    return best


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
    n_orders = config.char_order + config.word_order
    agg = [[0, 0, 0] for _ in range(n_orders)]
    for hypothesis, reference in pairs:
        if isinstance(reference, (str, Sentence)):
            refs = [_as_reference(reference)]
        else:
            if not reference:
                raise ValueError("references must be non-empty")
            refs = [_as_reference(r) for r in reference]
        if isinstance(hypothesis, str) and not hypothesis.strip():
            hyp = None
        else:
            hyp = _as_sentence(hypothesis)
        if hyp is None:
            # empty hypothesis: contributes reference totals only
            ref = refs[0] if len(refs) == 1 else min(refs, key=lambda r: len(r.chars))
            for i, n in enumerate(_order_sizes(config)):
                rp = ref.char_profile(n) if i < config.char_order else ref.word_profile(n)
                agg[i][2] += sum(rp.values())
            continue
        ref = refs[0] if len(refs) == 1 else _best_reference(hyp, refs, config)
        for i, stat in enumerate(_chrf_segment_stats(hyp, ref, config)):
            agg[i][0] += stat[0]
            agg[i][1] += stat[1]
            agg[i][2] += stat[2]
    return _chrf_from_stats([tuple(a) for a in agg], config.beta)


def _order_sizes(config: ChrfConfig) -> list[int]:
    return list(range(1, config.char_order + 1)) + list(range(1, config.word_order + 1))


def self_bleu(outputs: Sequence[SentenceLike], config: BleuConfig | None = None) -> float:
    """Self-BLEU of an output set: mean smoothed sentence BLEU of each
    output against all the others. Higher means less diverse.

    :param outputs: at least two sentences.
    :return: score in [0, 100].
    """
    if len(outputs) < 2:
        raise ValueError("self-BLEU needs at least 2 outputs")
    config = config or _SENTENCE_BLEU_DEFAULT
    scores = []
    for i, out in enumerate(outputs):
        rest = [o for j, o in enumerate(outputs) if j != i]
        scores.append(sentence_bleu(out, rest, config))
    return sum(scores) / len(scores)


class SentenceMetric:
    """Contract for a pairwise scorer mapping (hypothesis, references) to a
    deterministic value in [0, 100], with identity scoring 100."""

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
