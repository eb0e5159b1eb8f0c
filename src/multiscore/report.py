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
    corpus_bleu,
    corpus_chrfpp,
    self_bleu,
)
from .multiscore import EvalInstance, corpus_multi_score, warn_unequal

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
    """Compute the full evaluation battery for a dataset with outputs.

    :param dataset: instances, each carrying both references and outputs.
    :param sentence_bleu_config: config for the pairwise BLEU behind MS-BLEU
        and Self-BLEU (default: smoothed order-4).
    :param corpus_bleu_config: config for quality BLEU (default: unsmoothed
        order-4).
    :param allow_unequal: permit output sets whose size differs from the
        reference set (matched over the smaller side, logged once per
        instance).
    :param lowercase: evaluate case-insensitively (the default). Every
        metric reads the same ``inst.sentences(lowercase)``, so each text is
        tokenized and profiled once per casing.
    """
    instances = tuple(dataset)
    if not instances:
        raise ValueError("cannot evaluate an empty dataset")
    for inst in instances:
        if not inst.outputs:
            raise ValueError(f"instance {inst.id!r} has no outputs to evaluate")
        if len(inst.outputs) != len(inst.references) and not allow_unequal:
            raise ValueError(
                f"instance {inst.id!r}: {len(inst.outputs)} outputs vs "
                f"{len(inst.references)} references (pass allow_unequal to permit)"
            )
        warn_unequal(inst)
    sentence_bleu_config = sentence_bleu_config or BleuConfig()
    corpus_bleu_config = corpus_bleu_config or BleuConfig(smoothing=SMOOTH_NONE)
    chrf_config = chrf_config or ChrfConfig()

    sentences = [inst.sentences(lowercase) for inst in instances]

    # diversity: assignment-based set scores, macro-averaged
    ms_bleu, bleu_results = corpus_multi_score(instances, BleuMetric(sentence_bleu_config), allow_unequal, lowercase)
    ms_chrf, chrf_results = corpus_multi_score(instances, ChrfMetric(chrf_config), allow_unequal, lowercase)

    # diversity: Self-BLEU per instance (needs at least two outputs)
    self_scores: list[float | None] = []
    for inst, (outputs, _) in zip(instances, sentences):
        if len(outputs) >= 2:
            self_scores.append(self_bleu(outputs, sentence_bleu_config))
        else:
            self_scores.append(None)
            log.warning("instance %r has a single output; Self-BLEU skipped", inst.id)
    usable = [s for s in self_scores if s is not None]
    mean_self = sum(usable) / len(usable) if usable else None
    if mean_self is None:
        log.warning("no instance has 2+ outputs; Self-BLEU omitted from the report")

    # quality: corpus scores per output slot against full reference sets.
    # corpus chrF++ keeps each segment's best reference, the first on ties:
    # that is the first maximum of the output's row in the MS-CHRF grid, so
    # the grid picks it and no pair is scored twice
    n_slots = max(len(inst.outputs) for inst in instances)
    slot_bleu, slot_chrf = [], []
    for k in range(n_slots):
        bleu_pairs, chrf_pairs = [], []
        for (outputs, references), chrf in zip(sentences, chrf_results):
            if len(outputs) > k:
                bleu_pairs.append((outputs[k], references))
                chrf_pairs.append((outputs[k], references[chrf.matrix.weights[k].argmax()]))
        slot_bleu.append(corpus_bleu(bleu_pairs, corpus_bleu_config))
        slot_chrf.append(corpus_chrfpp(chrf_pairs, chrf_config))

    per_instance = tuple(
        InstanceSummary(id=inst.id, ms_bleu=bleu.score, ms_chrf=chrf.score, self_bleu=self_score)
        for inst, bleu, chrf, self_score in zip(instances, bleu_results, chrf_results, self_scores)
    )
    config = {
        "sentence_bleu": asdict(sentence_bleu_config),
        "corpus_bleu": asdict(corpus_bleu_config),
        "chrf": asdict(chrf_config),
        "allow_unequal": allow_unequal,
        "lowercase": lowercase,
    }
    return EvaluationReport(
        quality={
            "bleu": sum(slot_bleu) / n_slots,
            "chrfpp": sum(slot_chrf) / n_slots,
        },
        diversity={"self_bleu": mean_self, "ms_bleu": ms_bleu, "ms_chrf": ms_chrf},
        per_instance=per_instance,
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
