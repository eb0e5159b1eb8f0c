"""Corpus-level evaluation battery and report rendering.

Quality is corpus BLEU / chrF++ averaged over the three output slots, each
slot scored against the full multi-reference sets. Diversity is Self-BLEU
(macro-averaged per instance) plus the assignment-based set scores MS-BLEU
and MS-CHRF. Every integer statistic comes from the block-bounded n-gram
count tables of :mod:`multiscore.table`, the one engine behind every BLEU
and chrF++ score of the package, whose formulas score a block of them at
once, each float as one segment's statistics alone give it. A report is
counted in one pass over the corpus, where the per-pair functions of
:mod:`multiscore.metrics` and :mod:`multiscore.multiscore` would take one
pass per call, and it equals, byte for byte, the numbers they give. Scores
are carried at full precision and rounded to two decimals (half-up) only
when rendered.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_UP, Decimal
from json.encoder import encode_basestring
from typing import Sequence

import numpy as np

from .assignment import _matched_totals
from .corpus import Dataset
from .metrics import (
    BleuConfig,
    ChrfConfig,
    SMOOTH_NONE,
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
        their instance, so each is counted once.
    """
    # imported on first use, so that importing the package, as every
    # command does at start-up, does not load the table module
    from .table import _bleu_scores, _chrf_scores, count_blocks

    instances = tuple(dataset)
    _admit(instances, allow_unequal)
    sentence_bleu_config = sentence_bleu_config or BleuConfig()
    corpus_bleu_config = corpus_bleu_config or BleuConfig(smoothing=SMOOTH_NONE)
    chrf_config = chrf_config or ChrfConfig()

    # quality: corpus statistics per output slot, each output against its
    # instance's full reference set
    n_slots = max(len(inst.outputs) for inst in instances)
    slot_bleu = np.zeros((n_slots, 2 + 2 * corpus_bleu_config.max_order), dtype=np.int64)
    slot_chrf = np.zeros((n_slots, 3 * (chrf_config.char_order + chrf_config.word_order)), dtype=np.int64)
    per_instance = []
    blocks = count_blocks(instances, lowercase, char_order=chrf_config.char_order,
                          word_order=chrf_config.word_order, pair_order=sentence_bleu_config.max_order,
                          slot_order=corpus_bleu_config.max_order, self_order=sentence_bleu_config.max_order)
    for block in blocks:
        # one score per distinct (output, reference) pair, and per distinct output's Self-BLEU
        bleu = _bleu_scores(block.pair_bleu, sentence_bleu_config)
        chrf = _chrf_scores(block.pair_chrf, chrf_config.beta)
        self_scores = _bleu_scores(block.self_bleu, sentence_bleu_config)
        ms_bleu, ms_chrf, self_means = (np.empty(len(block.instances)) for _ in range(3))
        for positions, outs, refs in block.shapes():
            n, (n_out, n_ref) = len(positions), (outs.shape[1], refs.shape[1])
            at = positions[:, None, None], outs[:, :, None], refs[:, None, :]
            grids = np.concatenate([bleu[at], chrf[at]])
            # diversity: assignment-based set scores, the grids of one shape matched together
            totals = np.array(_matched_totals(grids)) / min(n_out, n_ref)
            ms_bleu[positions], ms_chrf[positions] = totals[:n], totals[n:]
            # Self-BLEU: the mean over outputs of their text's score, added in output order
            self_total = 0.0
            for column in self_scores[positions[:, None], outs].T:
                self_total = self_total + column
            self_means[positions] = self_total / n_out
            # corpus chrF++ keeps each segment's best reference, the first on
            # ties: the first maximum of its MS-CHRF grid row
            best = np.take_along_axis(refs, grids[n:].argmax(axis=2), axis=1)
            slot_bleu[:n_out] += block.slot_bleu[positions[:, None], outs].sum(axis=0)
            slot_chrf[:n_out] += block.pair_chrf[positions[:, None], outs, best].sum(axis=0)
        for inst, outs, ms_b, ms_c, self_mean in zip(block.instances, block.out_cols, ms_bleu.tolist(),
                                                     ms_chrf.tolist(), self_means.tolist()):
            if len(outs) < 2:
                log.warning("instance %r has a single output; Self-BLEU skipped", inst.id)
            per_instance.append(InstanceSummary(inst.id, ms_b, ms_c, self_mean if len(outs) > 1 else None))

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
            "bleu": sum(_bleu_scores(slot_bleu, corpus_bleu_config).tolist()) / n_slots,
            "chrfpp": sum(_chrf_scores(slot_chrf, chrf_config.beta).tolist()) / n_slots,
        },
        diversity={
            "self_bleu": mean_self,
            "ms_bleu": sum(s.ms_bleu for s in per_instance) / len(per_instance),
            "ms_chrf": sum(s.ms_chrf for s in per_instance) / len(per_instance),
        },
        per_instance=tuple(per_instance),
        config=config,
    )


_CENT = Decimal("0.01")

# a per-instance row of the JSON report, its keys sorted
_JSON_ROW = '{{"id": {}, "ms_bleu": {}, "ms_chrf": {}, "self_bleu": {}}}'.format


def round2(value: float) -> str:
    """Decimal string with exactly two digits, half-up (54.666... -> '54.67')."""
    return str(Decimal(repr(float(value))).quantize(_CENT, rounding=ROUND_HALF_UP))


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
        fields = {"quality": report.quality, "diversity": report.diversity, "config": report.config}
        fields = {key: _canonical_json(value) for key, value in fields.items()}
        # the per-instance rows, as _canonical_json would render them
        fields["per_instance"] = "[" + ", ".join(
            _JSON_ROW(encode_basestring(s.id), round2(s.ms_bleu), round2(s.ms_chrf),
                      "null" if s.self_bleu is None else round2(s.self_bleu))
            for s in report.per_instance
        ) + "]"
        return ("{" + ", ".join(f'"{key}": {fields[key]}' for key in sorted(fields)) + "}\n").encode("utf-8")
    lines = ["metric    score", "------    -----"]
    for name in _TSV_COLUMNS:
        shown = "-" if values[name] is None else round2(values[name])
        lines.append(f"{name:<10}{shown:>7}")
    lines.append("")
    lines.append(f"instances: {len(report.per_instance)}")
    return ("\n".join(lines) + "\n").encode("utf-8")
