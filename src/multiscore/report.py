"""Corpus-level evaluation battery and report rendering.

Quality is corpus BLEU / chrF++ averaged over the three output slots, each
slot scored against the full multi-reference sets. Diversity is Self-BLEU
(macro-averaged per instance) plus the assignment-based set scores MS-BLEU
and MS-CHRF. Every integer statistic comes from the block-bounded n-gram
count tables of :mod:`multiscore.table`; the scalar ``_bleu_score`` and
``_chrf_score`` turn them into scores, so a report equals, byte for byte,
the one the per-pair functions of :mod:`multiscore.metrics` and
:mod:`multiscore.multiscore` give. Scores are carried at full precision and
rounded to two decimals (half-up) only when rendered.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Sequence

import numpy as np

from .assignment import _matched_totals
from .corpus import Dataset
from .metrics import (
    BleuConfig,
    ChrfConfig,
    SMOOTH_NONE,
    _bleu_score,
    _chrf_score,
    corpus_bleu,  # unused here: bench/tracer.py patches this binding
    corpus_chrfpp,  # unused here: bench/tracer.py patches this binding
    self_bleu,  # unused here: bench/tracer.py patches this binding
)
from .multiscore import EvalInstance, _admit
from .multiscore import corpus_multi_score  # unused here: bench/tracer.py patches this binding

log = logging.getLogger(__name__)

RENDER_FORMATS = ("json", "tsv", "table")

# TSV header mirrors the usual results-table column naming
_TSV_COLUMNS = ("BLEU", "CHRF++", "Self-B", "MS-B", "MS-C")


@dataclass(frozen=True)
class InstanceSummary:
    id: str
    ms_bleu: float
    ms_chrf: float
    self_bleu: float | None


@dataclass(frozen=True)
class EvaluationReport:
    quality: dict
    diversity: dict
    per_instance: tuple[InstanceSummary, ...]
    config: dict


def evaluate_all(
    dataset: Dataset | Sequence[EvalInstance],
    sentence_bleu_config: BleuConfig | None = None,
    corpus_bleu_config: BleuConfig | None = None,
    chrf_config: ChrfConfig | None = None,
    allow_unequal: bool = False,
    lowercase: bool = True,
) -> EvaluationReport:
    """Compute the full evaluation battery for a dataset with outputs in one
    pass over blocks of instances: each block's count tables give its
    instances' MS-BLEU, MS-CHRF and Self-BLEU and add to the slots' corpus
    BLEU / chrF++ totals, then are dropped. The numbers are those of
    :func:`~multiscore.multi_score`, :func:`~multiscore.self_bleu`,
    :func:`~multiscore.corpus_bleu` and :func:`~multiscore.corpus_chrfpp`
    on the same texts.

    :param dataset: instances, each carrying both references and outputs.
    :param sentence_bleu_config: config for the pairwise BLEU behind MS-BLEU
        and Self-BLEU (default: smoothed order-4).
    :param corpus_bleu_config: config for quality BLEU (default: unsmoothed
        order-4).
    :param chrf_config: config for chrF++, both the pairwise scores behind
        MS-CHRF and quality chrF++ (default: character order 6, word order
        2, beta 2).
    :param allow_unequal: permit output sets whose size differs from the
        reference set (matched over the smaller side). Every instance is
        checked, and each unequal one logged, before any scoring, by the
        same rule as :func:`~multiscore.corpus_multi_score`.
    :param lowercase: evaluate case-insensitively (the default). Texts
        equal after casing and whitespace normalization are one column of
        their instance, so each is tokenized and counted once.
    """
    # imported on first use, so that importing the package, as every
    # command does at start-up, does not load the table module
    from .table import count_blocks

    instances = tuple(dataset)
    _admit(instances, allow_unequal)
    sentence_bleu_config = sentence_bleu_config or BleuConfig()
    corpus_bleu_config = corpus_bleu_config or BleuConfig(smoothing=SMOOTH_NONE)
    chrf_config = chrf_config or ChrfConfig()

    # quality: corpus statistics per output slot, each output against its
    # instance's full reference set. Corpus chrF++ keeps each segment's best
    # reference, the first on ties: the first maximum of the output's row in
    # the MS-CHRF grid, so no pair is scored twice
    n_slots = max(len(inst.outputs) for inst in instances)
    slot_bleu = [[0] * (2 + 2 * corpus_bleu_config.max_order) for _ in range(n_slots)]
    slot_chrf = [[0] * (3 * (chrf_config.char_order + chrf_config.word_order)) for _ in range(n_slots)]
    per_instance = []
    blocks = count_blocks(instances, lowercase, char_order=chrf_config.char_order,
                          word_order=chrf_config.word_order, pair_order=sentence_bleu_config.max_order,
                          slot_order=corpus_bleu_config.max_order, self_order=sentence_bleu_config.max_order)
    for block in blocks:
        grids: dict = {}  # (outputs, references) -> [(block position, MS-BLEU grid, MS-CHRF grid)]
        self_scores = []
        for b, (_, counts) in enumerate(block):
            # one score per distinct (output, reference) text pair
            bleu = [[_bleu_score(stats, sentence_bleu_config) for stats in row] for row in counts.pair_bleu]
            chrf = [[_chrf_score(stats, chrf_config.beta) for stats in row] for row in counts.pair_chrf]
            shape = (len(counts.out_cols), len(counts.ref_cols))
            grids.setdefault(shape, []).append((b, counts.grid(bleu), counts.grid(chrf)))
            # diversity: Self-BLEU, the mean over outputs of their text's score
            if counts.self_bleu is None:
                self_scores.append(None)
            else:
                scores = [_bleu_score(stats, sentence_bleu_config) for stats in counts.self_bleu]
                self_scores.append(sum(scores[o] for o in counts.out_cols) / len(counts.out_cols))
            for k, o in enumerate(counts.out_cols):
                best = chrf[o].index(max(chrf[o]))
                slot_bleu[k] = [x + y for x, y in zip(slot_bleu[k], counts.slot_bleu[o])]
                slot_chrf[k] = [x + y for x, y in zip(slot_chrf[k], counts.pair_chrf[o][best])]
        # diversity: assignment-based set scores, the block's grids of one shape matched together
        ms = [None] * len(block)
        for (n_out, n_ref), items in grids.items():
            totals = _matched_totals(np.array([grid for item in items for grid in item[1:]]))
            for (b, _, _), bleu_total, chrf_total in zip(items, totals[0::2], totals[1::2]):
                ms[b] = (bleu_total / min(n_out, n_ref), chrf_total / min(n_out, n_ref))
        for (inst, _), (ms_bleu, ms_chrf), self_score in zip(block, ms, self_scores):
            if self_score is None:
                log.warning("instance %r has a single output; Self-BLEU skipped", inst.id)
            per_instance.append(InstanceSummary(inst.id, ms_bleu, ms_chrf, self_score))

    usable = [s.self_bleu for s in per_instance if s.self_bleu is not None]
    mean_self = sum(usable) / len(usable) if usable else None
    if mean_self is None:
        log.warning("no instance has 2+ outputs; Self-BLEU omitted from the report")
    config = {
        "sentence_bleu": asdict(sentence_bleu_config),
        "corpus_bleu": asdict(corpus_bleu_config),
        "chrf": asdict(chrf_config),
        "allow_unequal": allow_unequal,
        "lowercase": lowercase,
    }
    return EvaluationReport(
        quality={
            "bleu": sum(_bleu_score(stats, corpus_bleu_config) for stats in slot_bleu) / n_slots,
            "chrfpp": sum(_chrf_score(stats, chrf_config.beta) for stats in slot_chrf) / n_slots,
        },
        diversity={
            "self_bleu": mean_self,
            "ms_bleu": sum(s.ms_bleu for s in per_instance) / len(per_instance),
            "ms_chrf": sum(s.ms_chrf for s in per_instance) / len(per_instance),
        },
        per_instance=tuple(per_instance),
        config=config,
    )


def round2(value: float) -> str:
    """Decimal string with exactly two digits, half-up (54.666... -> '54.67')."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _canonical_json(value) -> str:
    """JSON text with sorted keys and every float rendered by :func:`round2`."""
    if isinstance(value, float):
        return round2(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(k)}: {_canonical_json(v)}" for k, v in sorted(value.items()))
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_canonical_json(v) for v in value) + "]"
    return json.dumps(value, ensure_ascii=False)


def render(report: EvaluationReport, format: str = "table") -> bytes:
    """Render a report to bytes: canonical JSON (sorted keys, fixed
    two-decimal numbers), TSV with the standard column header, or an
    aligned text table. Rendering is deterministic; a missing Self-BLEU
    appears as "-" (TSV/table) or null (JSON)."""
    if format not in RENDER_FORMATS:
        raise ValueError(f"unknown report format {format!r}; choose from {RENDER_FORMATS}")
    values = {
        "BLEU": report.quality["bleu"],
        "CHRF++": report.quality["chrfpp"],
        "Self-B": report.diversity["self_bleu"],
        "MS-B": report.diversity["ms_bleu"],
        "MS-C": report.diversity["ms_chrf"],
    }
    if format == "tsv":
        header = "\t".join(_TSV_COLUMNS)
        row = "\t".join("-" if values[c] is None else round2(values[c]) for c in _TSV_COLUMNS)
        return (header + "\n" + row + "\n").encode("utf-8")
    if format == "json":
        payload = {
            "quality": report.quality,
            "diversity": report.diversity,
            "per_instance": [asdict(s) for s in report.per_instance],
            "config": report.config,
        }
        return (_canonical_json(payload) + "\n").encode("utf-8")
    lines = ["metric    score", "------    -----"]
    for name in _TSV_COLUMNS:
        shown = "-" if values[name] is None else round2(values[name])
        lines.append(f"{name:<10}{shown:>7}")
    lines.append("")
    lines.append(f"instances: {len(report.per_instance)}")
    return ("\n".join(lines) + "\n").encode("utf-8")
