"""Toy generation harness: a count-based n-gram sequence model and the
set-decoding strategies (top-3 beam search with length penalty, total and
top-k random sampling, and a 3-model ensemble) that produce 3-sentence
output sets for end-to-end evaluation.

All generation is a pure function of (model, strategy parameters, seed).
Random strategies draw from per-sample substreams seeded by
(seed, sample index), so sets are stable regardless of evaluation order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

EOS = "</s>"  # end-of-sequence, part of every vocabulary, never emitted in text
BOS = "<s>"  # context padding only, not in the vocabulary

STRATEGY_BEAM = "beam_top3"
STRATEGY_RANDOM = "total_random"
STRATEGY_TOPK = "topk_random"
STRATEGY_ENSEMBLE = "ensemble"

SET_SIZE = 3  # one output set holds three sentences, matching reference sets


class NGramLM:
    """Count-based n-gram model with add-k smoothing.

    The distribution for a context uses only its last (order - 1) tokens,
    padded with BOS. With add_k > 0 every vocabulary token (including EOS)
    has positive probability in every context; with add_k == 0 an unseen
    context falls back to the uniform distribution. Every context without
    counts shares that one add-k distribution, so the model builds at most
    one distribution per training context plus that prior: its memory is
    bounded by its training contexts, not by the contexts decoding visits.
    """

    def __init__(self, order: int, vocab: Sequence[str], counts: dict[tuple, dict[str, int]], add_k: float = 0.1):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if not (math.isfinite(add_k) and add_k >= 0):
            raise ValueError(f"add_k must be finite and >= 0, got {add_k}")
        if EOS not in vocab:
            raise ValueError("vocabulary must include the end-of-sequence token")
        self.order = order
        self.add_k = float(add_k)
        self.vocabulary = tuple(vocab)
        self._index: dict[str, int] = {}
        for i, token in enumerate(self.vocabulary):
            if token in self._index:
                raise ValueError(f"vocabulary lists the token {token!r} twice")
            self._index[token] = i
        self.counts: dict[tuple, dict[str, int]] = {}
        for ctx, table in counts.items():
            ctx = tuple(ctx)
            if len(ctx) != order - 1:
                raise ValueError(
                    f"context {ctx!r} has {len(ctx)} tokens; an order-{order} model's contexts have {order - 1}"
                )
            for token, count in table.items():
                if token not in self._index:
                    raise ValueError(f"context {ctx!r}: counted token {token!r} is not in the vocabulary")
                if not count >= 0:
                    raise ValueError(f"context {ctx!r}: token {token!r} has the count {count!r}; counts must be >= 0")
            self.counts[ctx] = dict(table)
        self._distributions: dict[tuple | None, np.ndarray] = {}

    def _key(self, context: Sequence[str]) -> tuple | None:
        """The count-table key of ``context``: its last (order - 1) tokens,
        padded with BOS only when it is shorter. None when that context has
        no counts, so every unseen context maps to the one add-k prior."""
        n = self.order - 1
        short = n - len(context)
        key = (BOS,) * short + tuple(context) if short > 0 else tuple(context[len(context) - n:])
        return key if self.counts.get(key) else None

    def next_distribution(self, context: Sequence[str]) -> np.ndarray:
        """The read-only next-token distribution after ``context``; contexts
        with the same key get the same array."""
        key = self._key(context)
        probs = self._distributions.get(key)
        if probs is not None:
            return probs
        n_vocab = len(self.vocabulary)
        probs = np.full(n_vocab, self.add_k)
        total = 0
        if key is not None:
            for token, count in self.counts[key].items():
                probs[self._index[token]] += count
                total += count
        denom = total + self.add_k * n_vocab
        if denom <= 0.0:  # add_k == 0 and unseen context
            probs = np.full(n_vocab, 1.0 / n_vocab)
        else:
            probs /= denom
        probs.flags.writeable = False
        self._distributions[key] = probs
        return probs


def train_ngram(corpus: Sequence[Sequence[str]], order: int, add_k: float = 0.1) -> NGramLM:
    """Train an n-gram model on tokenized sentences.

    Each sentence is padded with (order - 1) BOS tokens and terminated with
    EOS before counting order-length windows. The vocabulary is the sorted
    set of corpus tokens plus EOS.
    """
    corpus = [tuple(seq) for seq in corpus]
    if not corpus:
        raise ValueError("training corpus must be non-empty")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    tokens = set()
    for seq in corpus:
        for tok in seq:
            if tok in (BOS, EOS):
                raise ValueError(f"corpus contains the reserved symbol {tok!r}")
            tokens.add(tok)
    vocab = tuple(sorted(tokens | {EOS}))
    counts: dict[tuple, dict[str, int]] = {}
    for seq in corpus:
        padded = (BOS,) * (order - 1) + seq + (EOS,)
        for i in range(order - 1, len(padded)):
            ctx = padded[i - order + 1 : i]
            table = counts.setdefault(ctx, {})
            table[padded[i]] = table.get(padded[i], 0) + 1
    return NGramLM(order=order, vocab=vocab, counts=counts, add_k=add_k)


@dataclass(frozen=True)
class BeamHypothesis:
    tokens: tuple[str, ...]
    logp: float
    score: float  # logp / ((5 + len) / 6)^alpha, the length-penalized ranking key

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def _beam_pools(
    model: NGramLM, beam_width: int, max_len: int, alpha: float
) -> tuple[list[BeamHypothesis], list[BeamHypothesis]]:
    """Run the beam and return (finished, unfinished) hypothesis pools, each
    ranked by penalized score with lexicographic token-order tie-breaks.

    Hypotheses that finish occupy beam slots permanently, so a width-1 beam
    is exactly greedy decoding and a wide-enough beam on a fully smoothed
    model reproduces exhaustive enumeration. Extensions created at the final
    step can never finish; they stay out of the slot competition and are
    kept only as truncated leftovers for set-filling.
    """
    vocab = model.vocabulary
    eos_idx = vocab.index(EOS)
    active: list[tuple[tuple[str, ...], float]] = [((), 0.0)]
    finished: list[tuple[tuple[str, ...], float]] = []
    truncated: list[tuple[tuple[str, ...], float]] = []
    for step in range(max_len):
        if not active or len(finished) >= beam_width:
            break
        closures = []  # hypotheses taking EOS now
        extensions = []  # hypotheses growing by one token
        for tokens, logp in active:
            for idx, p in enumerate(model.next_distribution(tokens).tolist()):
                if not p > 0.0:  # never expand a zero-probability continuation
                    continue
                cand_logp = logp + math.log(p)
                if idx == eos_idx:
                    closures.append((tokens, cand_logp))
                else:
                    extensions.append((tokens + (vocab[idx],), cand_logp))
        if step == max_len - 1:
            extensions.sort(key=lambda c: (-c[1], c[0]))
            truncated = extensions[:beam_width]
            pool = [(t, lp, True) for t, lp in closures]
        else:
            pool = [(t, lp, True) for t, lp in closures]
            pool += [(t, lp, False) for t, lp in extensions]
        pool.sort(key=lambda c: (-c[1], c[0]))
        slots = beam_width - len(finished)
        active = []
        for tokens, logp, is_closure in pool[:slots]:
            if is_closure:
                finished.append((tokens, logp))
            else:
                active.append((tokens, logp))

    return _ranked(finished, alpha), _ranked(truncated + active, alpha)


def _ranked(pool, alpha: float) -> list[BeamHypothesis]:
    hyps = [BeamHypothesis(tokens, logp, logp / ((5.0 + len(tokens)) / 6.0) ** alpha) for tokens, logp in pool]
    hyps.sort(key=lambda h: (-h.score, h.tokens))
    return hyps


def _check_beam_knobs(beam_width: int, min_width: int, alpha: float) -> None:
    if beam_width < min_width:
        raise ValueError(f"beam_width must be >= {min_width}, got {beam_width}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")


def beam_search(
    model: NGramLM, beam_width: int, max_len: int, alpha: float = 0.6
) -> list[BeamHypothesis]:
    """Beam search with length-penalized final ranking.

    Beams grow by summed log-probability; zero-probability continuations
    are never expanded. Finished hypotheses are ranked by
    logp / ((5 + len) / 6)^alpha, ties resolved by lexicographic token
    order. Returns up to ``beam_width`` finished hypotheses; a width of 1
    reduces to greedy decoding.

    ``max_len`` bounds the word-token count: a hypothesis that reaches it
    is truncated, so finished sequences carry at most max_len - 1 tokens
    (the same budget convention the samplers use).
    """
    _check_beam_knobs(beam_width, 1, alpha)
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    finished, _ = _beam_pools(model, beam_width, max_len, alpha)
    return finished[:beam_width]


def _beam_set(
    model: NGramLM, size: int, beam_width: int, max_len: int, alpha: float, flags: set[str]
) -> list[str]:
    """The ``size`` best non-empty finished beam hypotheses. A shortfall is
    filled with the best unfinished prefixes, then by repeating what exists;
    ``flags`` records either fill."""
    finished, unfinished = _beam_pools(model, beam_width, max_len, alpha)
    # the empty hypothesis (immediate EOS) is a valid beam result but
    # useless in an output set, so it never occupies a slot here
    sentences = [h.text for h in finished if h.tokens][:size]
    for hyp in unfinished[: size - len(sentences)]:
        sentences.append(hyp.text)
        flags.add("filled_from_unfinished")
    if not sentences:
        raise RuntimeError("beam search produced no hypotheses at all")
    if len(sentences) < size:
        flags.add("filled_by_repetition")
    return [sentences[i % len(sentences)] for i in range(size)]


@dataclass(frozen=True)
class GenerationSet:
    """Three sentences generated for one instance by one strategy, plus any
    degeneracy flags ('filled_from_unfinished', 'filled_by_repetition',
    'truncated')."""

    instance_id: str
    strategy: str
    sentences: tuple[str, ...]
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.sentences) != SET_SIZE:
            raise ValueError(f"a generation set holds exactly {SET_SIZE} sentences")
        if any(not text.strip() for text in self.sentences):
            # evaluation rejects empty outputs, so never hand one out
            raise ValueError(
                f"instance {self.instance_id!r}: {self.strategy} generated an empty sentence "
                "(is max_len at least 1?)"
            )


def generate_top3_beam(
    model: NGramLM,
    beam_width: int = 10,
    max_len: int = 64,
    alpha: float = 0.6,
    instance_id: str = "",
) -> GenerationSet:
    """The three best finished beam hypotheses. If fewer than three finish
    within ``max_len``, the highest-scoring unfinished prefixes (and, as a
    last resort, repeats) fill the set, with flags recording the fill.

    The set depends only on the model and the beam knobs: ``instance_id``
    just labels it (and names the instance in errors), so an unconditional
    model yields the same set for every instance. A model conditioned on the instance must be
    decoded once per instance instead."""
    _check_beam_knobs(beam_width, SET_SIZE, alpha)
    flags: set[str] = set()
    sentences = _beam_set(model, SET_SIZE, beam_width, max_len, alpha, flags)
    return GenerationSet(
        instance_id=instance_id,
        strategy=STRATEGY_BEAM,
        sentences=tuple(sentences),
        flags=tuple(sorted(flags)),
    )


def _sample_tokens(
    model: NGramLM, rng: np.random.Generator, max_len: int, top_k: int | None, cdfs: dict
) -> tuple[list[str], bool]:
    """One ancestral sample; returns (tokens, hit_max_len).

    ``cdfs`` maps a distribution key to its :func:`_sampling_cdf`, built on
    first use; samples from one model at one ``top_k`` may share it."""
    vocab = model.vocabulary
    eos_idx = vocab.index(EOS)
    tokens: list[str] = []
    for _ in range(max_len):
        key = model._key(tokens)
        entry = cdfs.get(key)
        if entry is None:
            entry = cdfs[key] = _sampling_cdf(model.next_distribution(tokens), top_k)
        cdf, keep = entry
        idx = keep[_draw(rng, cdf)]
        if idx == eos_idx:
            return tokens, False
        tokens.append(vocab[idx])
    return tokens, True


def _sampling_cdf(probs: np.ndarray, top_k: int | None) -> tuple[list[float], Sequence[int]]:
    """(cdf, token index of each cdf entry) for sampling from ``probs``, or
    from its ``top_k`` most probable tokens renormalized, probability ties
    kept in token order."""
    if top_k is None or top_k >= len(probs):
        return np.cumsum(probs).tolist(), range(len(probs))
    keep = np.argsort(-probs, kind="stable")[:top_k]
    restricted = probs[keep] / probs[keep].sum()
    return np.cumsum(restricted).tolist(), keep.tolist()


def _draw(rng: np.random.Generator, cdf: list[float]) -> int:
    r = rng.random() * cdf[-1]
    return min(bisect.bisect_right(cdf, r), len(cdf) - 1)


_EMPTY_RESAMPLE_CAP = 100


def _sampling_set(model, seed: int, max_len: int, top_k: int | None, strategy: str, instance_id: str) -> GenerationSet:
    sentences = []
    flags: set[str] = set()
    cdfs: dict = {}
    for k in range(SET_SIZE):
        rng = np.random.default_rng((seed, k))
        # a sample that stops at EOS immediately is redrawn from the same
        # substream so sets stay evaluable; conditional next-token
        # frequencies at non-empty contexts are unaffected
        for _ in range(_EMPTY_RESAMPLE_CAP):
            tokens, truncated = _sample_tokens(model, rng, max_len, top_k, cdfs)
            if tokens:
                break
        if truncated:
            flags.add("truncated")
        sentences.append(" ".join(tokens))
    return GenerationSet(
        instance_id=instance_id,
        strategy=strategy,
        sentences=tuple(sentences),
        flags=tuple(sorted(flags)),
    )


def generate_random(model: NGramLM, seed: int, max_len: int = 64, instance_id: str = "") -> GenerationSet:
    """Three independent ancestral samples from the full next-token
    distribution, stopping at EOS (or at ``max_len``, flagged 'truncated')."""
    return _sampling_set(model, seed, max_len, None, STRATEGY_RANDOM, instance_id)


def generate_topk_random(
    model: NGramLM, k: int = 3, seed: int = 0, max_len: int = 64, instance_id: str = ""
) -> GenerationSet:
    """Like :func:`generate_random` but each step samples from the ``k``
    most probable tokens, renormalized."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _sampling_set(model, seed, max_len, k, STRATEGY_TOPK, instance_id)


def generate_ensemble(
    models: Sequence[NGramLM],
    beam_width: int = 10,
    max_len: int = 64,
    alpha: float = 0.6,
    instance_id: str = "",
) -> GenerationSet:
    """One sentence per model: each of the three models contributes its
    best non-empty finished beam hypothesis, or its best unfinished prefix
    (flagged) if none finishes.

    As with :func:`generate_top3_beam`, the set depends only on the models
    and the beam knobs; ``instance_id`` just labels it."""
    if len(models) != SET_SIZE:
        raise ValueError(f"ensemble takes exactly {SET_SIZE} models, got {len(models)}")
    _check_beam_knobs(beam_width, 1, alpha)
    flags: set[str] = set()
    sentences = [text for model in models for text in _beam_set(model, 1, beam_width, max_len, alpha, flags)]
    return GenerationSet(
        instance_id=instance_id,
        strategy=STRATEGY_ENSEMBLE,
        sentences=tuple(sentences),
        flags=tuple(sorted(flags)),
    )
