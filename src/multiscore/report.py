"""Corpus-level evaluation battery and report rendering.

Quality is corpus BLEU / chrF++ averaged over the three output slots, each
slot scored against the full multi-reference sets. Diversity is Self-BLEU
(macro-averaged per instance) plus the assignment-based set scores MS-BLEU
and MS-CHRF. Scores are carried at full precision and rounded to two
decimals (half-up) only when rendered.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Sequence

from .corpus import Dataset
from .metrics import (
    BleuConfig,
    BleuMetric,
    ChrfConfig,
    ChrfMetric,
    SMOOTH_NONE,
    _bleu_score,
    _bleu_stats,
    _chrf_score,
    _chrf_stats,
    corpus_bleu,  # unused here: bench/tracer.py patches this binding
    corpus_chrfpp,  # unused here: bench/tracer.py patches this binding
    self_bleu,  # bench/tracer.py patches this binding
)
from .multiscore import EvalInstance, _admit, _instance_sentences, multi_score
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
    pass: each instance's sentences give its MS-BLEU, MS-CHRF and Self-BLEU
    and add to its slots' corpus BLEU / chrF++ totals, then are dropped.

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
    :param lowercase: evaluate case-insensitively (the default). Every
        metric of an instance reads the same :class:`Sentence` objects, so
        each distinct text is tokenized and profiled once.
    """
    instances = tuple(dataset)
    _admit(instances, allow_unequal)
    sentence_bleu_config = sentence_bleu_config or BleuConfig()
    corpus_bleu_config = corpus_bleu_config or BleuConfig(smoothing=SMOOTH_NONE)
    chrf_config = chrf_config or ChrfConfig()
    bleu_metric, chrf_metric = BleuMetric(sentence_bleu_config), ChrfMetric(chrf_config)

    # quality: corpus statistics per output slot, each output against its
    # instance's full reference set. Corpus chrF++ keeps each segment's best
    # reference, the first on ties: the first maximum of the output's row in
    # the MS-CHRF grid, so the grid picks it and no pair is scored twice
    n_slots = max(len(inst.outputs) for inst in instances)
    slot_bleu = [[0] * (2 + 2 * corpus_bleu_config.max_order) for _ in range(n_slots)]
    slot_chrf = [[0] * (3 * (chrf_config.char_order + chrf_config.word_order)) for _ in range(n_slots)]
    per_instance = []
    for inst in instances:
        outputs, references = _instance_sentences(inst, lowercase)
        # diversity: assignment-based set scores
        ms_bleu = multi_score(outputs, references, bleu_metric, allow_unequal, inst.id)
        ms_chrf = multi_score(outputs, references, chrf_metric, allow_unequal, inst.id)
        # diversity: Self-BLEU (needs at least two outputs)
        self_score = self_bleu(outputs, sentence_bleu_config) if len(outputs) >= 2 else None
        if self_score is None:
            log.warning("instance %r has a single output; Self-BLEU skipped", inst.id)
        seen: dict = {}  # equal outputs are one Sentence with one grid row: statistics once
        for k, out in enumerate(outputs):
            if out not in seen:
                best = references[ms_chrf.matrix.weights[k].argmax()]
                seen[out] = (_bleu_stats(out, references, corpus_bleu_config.max_order),
                             _chrf_stats(out, [best], chrf_config))
            bleu, chrf = seen[out]
            slot_bleu[k] = [a + b for a, b in zip(slot_bleu[k], bleu)]
            slot_chrf[k] = [a + b for a, b in zip(slot_chrf[k], chrf)]
        per_instance.append(InstanceSummary(inst.id, ms_bleu.score, ms_chrf.score, self_score))

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
