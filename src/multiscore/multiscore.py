"""Assignment-based joint evaluation of an output set against a reference
set: score every pair under a sentence-level metric, solve the
maximum-weight matching, and average the matched edge weights.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .assignment import Matching, ScoreMatrix, _matched_edges, max_weight_matching
from .metrics import BleuMetric, ChrfMetric, SentenceMetric, _texts
from .text import Sentence

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalInstance:
    """One input's reference set plus (optionally) one system's output set.

    ``outputs`` may be empty for reference-only data; evaluation requires it
    to be populated, e.g. via :func:`multiscore.corpus.bind_outputs`. It holds
    only texts; each evaluation builds and drops its own ``Sentence`` objects.
    """

    id: str
    references: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    category: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "references", tuple(self.references))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if not self.id:
            raise ValueError("instance id must be non-empty")
        if not self.references:
            raise ValueError(f"instance {self.id!r}: references must be non-empty")
        for texts, kind in ((self.references, "reference"), (self.outputs, "output")):
            if not (all(map(isinstance, texts, repeat(str))) and all(map(str.strip, texts))):
                raise ValueError(f"instance {self.id!r}: empty {kind} sentence")


def _sizes_differ(n_outputs: int, n_references: int, allow_unequal: bool, instance_id: str = "") -> bool:
    """Whether the two set sizes differ; an error if so without ``allow_unequal``."""
    if n_outputs != n_references and not allow_unequal:
        where = f"instance {instance_id!r}: " if instance_id else ""
        raise ValueError(f"{where}{n_outputs} outputs vs {n_references} references (pass allow_unequal to permit)")
    return n_outputs != n_references


def _admit(instances: Sequence[EvalInstance], allow_unequal: bool) -> None:
    """Check a corpus before anything is scored: at least one instance, each
    with outputs, of its references' size unless ``allow_unequal`` (then logged)."""
    if not instances:
        raise ValueError("corpus must contain at least one instance")
    for inst in instances:
        if not inst.outputs:
            raise ValueError(f"instance {inst.id!r} has no outputs to evaluate")
        if _sizes_differ(len(inst.outputs), len(inst.references), allow_unequal, inst.id):
            log.warning(
                "instance %r: matching %d outputs against %d references (averaging over the smaller side)",
                inst.id, len(inst.outputs), len(inst.references),
            )


def _instance_sentences(instance: EvalInstance, lowercase: bool) -> tuple[tuple[Sentence, ...], tuple[Sentence, ...]]:
    """(outputs, references) of ``instance`` as :class:`Sentence` tuples
    under one casing, one per distinct text, so equal texts share one
    sentence and its tokens. Nothing keeps them: they live as long as the
    caller holds them."""
    made = {t: Sentence(t, lowercase=lowercase) for t in dict.fromkeys((*instance.outputs, *instance.references))}
    return tuple(made[o] for o in instance.outputs), tuple(made[r] for r in instance.references)


@dataclass(frozen=True)
class MultiScoreResult:
    """Per-instance evaluation: the pairwise score matrix, the optimal
    matching, and the resulting score (average matched edge weight)."""

    instance_id: str
    matrix: ScoreMatrix
    matching: Matching
    score: float


def score_matrix(outputs: Sequence, references: Sequence, metric: SentenceMetric) -> ScoreMatrix:
    """Pairwise score grid: entry (i, j) is ``metric`` applied to output i
    with reference j as its single reference.

    A :class:`~multiscore.BleuMetric` or :class:`~multiscore.ChrfMetric`
    (exactly those classes) is scored from the count tables, each text
    under its own casing, as :func:`corpus_multi_score` scores an instance:
    the same texts give the same grid. Any other ``metric.score`` is called
    once per distinct (output, reference) pair; repeated texts, such as an
    n-best list's, copy that score to every cell they occupy.
    """
    if not len(outputs) or not len(references):
        raise ValueError("outputs and references must both be non-empty")
    if _built_in(metric):
        # one instance: one block, of one shape, of one grid
        [(_, [(_, [grid])])] = _table_grids([_texts(outputs, references)], metric, lowercase=False)
        return ScoreMatrix(grid)
    # one Sentence per distinct plain text, so its tokens are read once
    # rather than once per cell; blank strings pass through (a blank output
    # scores 0, a blank reference is rejected by the metric)
    made = {t: Sentence(t) for t in dict.fromkeys((*outputs, *references)) if isinstance(t, str) and t.strip()}
    # dense index per distinct Sentence (equal raw text and casing) or
    # blank string, in first-seen order
    out_index: dict = {}
    ref_index: dict = {}
    rows = [out_index.setdefault(made.get(t, t), len(out_index)) for t in outputs]
    cols = [ref_index.setdefault(made.get(t, t), len(ref_index)) for t in references]
    block = np.empty((len(out_index), len(ref_index)))
    for i, out in enumerate(out_index):
        for j, ref in enumerate(ref_index):
            block[i, j] = metric.score(out, [ref])
    if len(out_index) < len(rows) or len(ref_index) < len(cols):
        block = block[np.ix_(rows, cols)]
    return ScoreMatrix(block)


def multi_score(
    outputs: Sequence,
    references: Sequence,
    metric: SentenceMetric,
    allow_unequal: bool = False,
    instance_id: str = "",
) -> MultiScoreResult:
    """Score an output set against a reference set under ``metric``.

    Builds the pairwise score matrix with :func:`score_matrix`, solves the
    maximum-weight matching, and returns the average matched edge weight.
    Output and reference sets must be the same size unless
    ``allow_unequal`` is set, in which case the matching covers the smaller
    side. The result is the one :func:`corpus_multi_score` gives for the
    same texts. Nothing is logged here: :func:`corpus_multi_score` and
    :func:`~multiscore.evaluate_all` report a permitted mismatch once per
    instance before scoring.

    :return: a :class:`MultiScoreResult`; ``score`` lies in [0, 100].
    """
    _sizes_differ(len(outputs), len(references), allow_unequal, instance_id)
    matrix = score_matrix(outputs, references, metric)
    return _matched(instance_id, matrix, max_weight_matching(matrix))


def _matched(instance_id: str, matrix: ScoreMatrix, matching: Matching) -> MultiScoreResult:
    """The result of ``matching`` on ``matrix``: its mean matched edge
    weight."""
    score = matching.total / len(matching.edges)
    return MultiScoreResult(instance_id=instance_id, matrix=matrix, matching=matching, score=score)


def _built_in(metric: SentenceMetric) -> bool:
    """Whether ``metric`` is scored from the count tables: exactly a
    :class:`BleuMetric` or :class:`ChrfMetric`, not a subclass, which may
    override ``score``."""
    return type(metric) in (BleuMetric, ChrfMetric)


def _table_grids(instances: Sequence, metric: SentenceMetric, lowercase: bool):
    """Yield each block's instances and the grids of a built-in ``metric``,
    scored from the count tables: each distinct (output, reference) pair's
    statistics, as ``metric.score`` would take them, become one score,
    copied to every cell that pair occupies. A block's grids come as
    ``(positions, grids)``, one stacked array per (outputs x references)
    shape with the block positions of its instances."""
    # imported on first use, so that importing the package, as every
    # command does at start-up, does not load the table module
    from .table import _bleu_scores, _chrf_scores, count_blocks

    config, bleu = metric.config, isinstance(metric, BleuMetric)
    if bleu:
        blocks = count_blocks(instances, lowercase, pair_order=config.max_order)
    else:
        blocks = count_blocks(instances, lowercase, char_order=config.char_order, word_order=config.word_order)
    for block in blocks:
        scores = _bleu_scores(block.pair_bleu, config) if bleu else _chrf_scores(block.pair_chrf, config.beta)
        yield block.instances, (
            (positions, scores[positions[:, None, None], outs[:, :, None], refs[:, None, :]])
            for positions, outs, refs in block.shapes()
        )


def _table_results(instances: Sequence, metric: SentenceMetric, lowercase: bool):
    """Yield the result of each instance under a built-in ``metric``, its
    grid from :func:`_table_grids`. A block's grids of one shape are
    matched in one :func:`_matched_edges` call."""
    for block_instances, shapes in _table_grids(instances, metric, lowercase):
        results = [None] * len(block_instances)
        for positions, grids in shapes:
            for b, grid, edges in zip(positions.tolist(), grids, _matched_edges(grids)):
                matrix = ScoreMatrix(grid)
                results[b] = _matched(block_instances[b].id, matrix, Matching.from_edges(edges, matrix.weights))
        yield from results


def corpus_multi_score(
    instances: Sequence[EvalInstance],
    metric: SentenceMetric,
    allow_unequal: bool = False,
    lowercase: bool = True,
) -> tuple[float, list[MultiScoreResult]]:
    """Macro-averaged score over a corpus of instances.

    :param allow_unequal: permit output sets whose size differs from the
        reference set (matched over the smaller side). Every instance is
        checked, and each unequal one logged, before any scoring, by the
        same rule as :func:`~multiscore.evaluate_all`.
    :param lowercase: score case-insensitively (the default).
    :return: (mean score, per-instance results in corpus order).

    A :class:`~multiscore.BleuMetric` or :class:`~multiscore.ChrfMetric`
    (exactly those classes) is scored from the count tables of
    :mod:`multiscore.table`, a block of instances at a time, with no
    :class:`Sentence`: texts equal after casing and whitespace
    normalization are one row or column of the distinct grid, and each
    block's tables are dropped once its grids are scored. Any other metric
    goes through :func:`score_matrix`, with one :class:`Sentence` per
    distinct text of an instance, dropped once the instance is scored. The
    results are the same, float for float, as :func:`multi_score` on the
    same texts.
    """
    _admit(instances, allow_unequal)
    if _built_in(metric):
        results = list(_table_results(instances, metric, lowercase))
    else:
        results = [
            multi_score(*_instance_sentences(inst, lowercase), metric, allow_unequal=allow_unequal, instance_id=inst.id)
            for inst in instances
        ]
    mean = sum(r.score for r in results) / len(results)
    return mean, results
