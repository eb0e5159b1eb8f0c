"""Command-line entry point: evaluate stored outputs, inspect per-instance
matchings, or generate output sets with the toy decoding harness.

Exit codes: 0 success, 1 validation error, 2 I/O error. Reports go to
stdout (or --out, written atomically); diagnostics go to stderr only.

Each command imports only the modules it runs: start-up loads numpy, the
loader (``corpus``) and ``text``; ``evaluate`` and ``multiscore`` add the
scoring stack (metrics, matcher, report, count tables) and ``logging``, and
``generate`` adds the decoder alone.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from .corpus import Dataset, _load_bound, load_jsonl
from .corpus import bind_outputs, load_outputs_jsonl  # unused here: bench/tracer.py patches these bindings
from .text import tokenize_words

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

_STRATEGIES = ("beam3", "random", "topk3", "ensemble")

# the scoring and decoding functions the commands call, each with the module
# that defines it, imported on a name's first use (PEP 562, as in the
# package's __init__), so that a command loads only what it runs.
# bench/tracer.py times a run by replacing these bindings on this module and
# checks that the run adds no other name to it, so each stays a module
# attribute and the commands read it through this namespace (_bound): a
# replaced binding is the one called
_MODULE_OF = {
    "corpus_multi_score": "multiscore",
    "evaluate_all": "report",
    "render": "report",
    "train_ngram": "decoding",
    "generate_ensemble": "decoding",
    "generate_random": "decoding",
    "generate_top3_beam": "decoding",
    "generate_topk_random": "decoding",
}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def _bound(name):
    """This module's binding of the lazy ``name``, imported on first use."""
    return globals().get(name) or __getattr__(name)


def _write_atomic(path: str | None, payload: bytes) -> None:
    if path is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".multiscore-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_bound_dataset(data_path: str, outputs_path: str | None) -> Dataset:
    if outputs_path and outputs_path != "inline":
        return _load_bound(data_path, outputs_path)
    dataset = load_jsonl(data_path)
    missing = [inst.id for inst in dataset if not inst.outputs]
    if missing:
        raise ValueError(
            f"no outputs for instance ids {missing[:5]}"
            f"{'...' if len(missing) > 5 else ''}; pass --outputs or embed them in --data"
        )
    return dataset


def _add_metric_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bleu-max-order", type=int, default=4, help="BLEU n-gram order (default 4)")
    parser.add_argument("--chrf-char-order", type=int, default=6, help="chrF++ character order (default 6)")
    parser.add_argument("--chrf-word-order", type=int, default=2, help="chrF++ word order (default 2)")
    parser.add_argument("--chrf-beta", type=float, default=2.0, help="chrF++ beta (default 2.0)")
    parser.add_argument("--no-lowercase", action="store_true", help="evaluate case-sensitively")


def _metric_configs(args):
    """(sentence BLEU, corpus BLEU, chrF++) configs from the metric flags."""
    from .metrics import SMOOTH_NONE, BleuConfig, ChrfConfig

    return (
        BleuConfig(max_order=args.bleu_max_order),
        BleuConfig(max_order=args.bleu_max_order, smoothing=SMOOTH_NONE),
        ChrfConfig(char_order=args.chrf_char_order, word_order=args.chrf_word_order, beta=args.chrf_beta),
    )


def _log_to_stderr(args) -> None:
    """Send log records to stderr: warnings, and with -v progress too. Only
    the commands that score log, so only they import ``logging``."""
    import logging

    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _cmd_evaluate(args) -> int:
    _log_to_stderr(args)
    dataset = _load_bound_dataset(args.data, args.outputs)
    sent_cfg, corp_cfg, chrf_cfg = _metric_configs(args)
    report = _bound("evaluate_all")(
        dataset,
        sentence_bleu_config=sent_cfg,
        corpus_bleu_config=corp_cfg,
        chrf_config=chrf_cfg,
        allow_unequal=args.allow_unequal,
        lowercase=not args.no_lowercase,
    )
    _write_atomic(args.out, _bound("render")(report, args.format))
    return EXIT_OK


def _round2_table():
    """:func:`round2` for one report, formatting each distinct value once
    (an n-best grid holds few distinct scores in many cells)."""
    from .report import round2

    table: dict = {}

    def fmt(value) -> str:
        # 0.0 and -0.0 are one dict key but two strings ("0.00", "-0.00"),
        # so a zero is keyed on its repr
        key = value if value else repr(value)
        text = table.get(key)
        if text is None:
            text = table[key] = round2(value)
        return text

    return fmt


def _formatted_rows(weights: np.ndarray, format_row) -> list:
    """``format_row`` of each matrix row, made once per distinct row: an
    n-best grid repeats its output rows, and every repeat shares the first
    one's result."""
    done: dict = {}
    rows = []
    for row in weights:
        key = row.tobytes()
        formatted = done.get(key)
        if formatted is None:
            formatted = done[key] = format_row(row.tolist())
        rows.append(formatted)
    return rows


def _matrix_lines(result, fmt) -> list[str]:
    lines = ["  matrix (outputs x references):"]
    lines += _formatted_rows(result.matrix.weights, lambda row: "    " + " ".join(f"{fmt(x):>7}" for x in row))
    pairs = " ".join(
        f"{r}->{c} ({fmt(w)})" for (r, c), w in zip(result.matching.edges, result.matching.edge_weights)
    )
    lines.append(f"  matching: {pairs}")
    lines.append(f"  score: {fmt(result.score)}")
    return lines


def _cmd_multiscore(args) -> int:
    from .metrics import BleuMetric, ChrfMetric

    _log_to_stderr(args)
    dataset = _load_bound_dataset(args.data, args.outputs)
    sent_cfg, _, chrf_cfg = _metric_configs(args)
    if args.metric == "bleu":
        metric = BleuMetric(sent_cfg)
    else:
        metric = ChrfMetric(chrf_cfg)
    mean, results = _bound("corpus_multi_score")(
        dataset.instances, metric, allow_unequal=args.allow_unequal, lowercase=not args.no_lowercase
    )
    fmt = _round2_table()
    if args.format == "json":
        payload = {
            "metric": metric.name,
            "multi_score": fmt(mean),
            "per_instance": [
                {
                    "id": r.instance_id,
                    "score": fmt(r.score),
                    "matrix": _formatted_rows(r.matrix.weights, lambda row: [fmt(x) for x in row]),
                    "matching": [
                        {"output": e[0], "reference": e[1], "weight": fmt(w)}
                        for e, w in zip(r.matching.edges, r.matching.edge_weights)
                    ],
                }
                for r in results
            ]
            if args.per_instance
            else [],
        }
        text = json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"
    else:
        lines = [f"MS-{metric.name.upper()}: {fmt(mean)}"]
        if args.per_instance:
            for r in results:
                lines.append(f"instance {r.instance_id}")
                lines.extend(_matrix_lines(r, fmt))
        text = "\n".join(lines) + "\n"
    _write_atomic(args.out, text.encode("utf-8"))
    return EXIT_OK


def _instance_seed(seed: int, index: int) -> int:
    # stable per-instance substream: mixed, platform-independent
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _check_generate_knobs(args) -> None:
    """Reject an out-of-range generation flag by name, before the training
    file is read and whichever strategy would use it."""
    from .decoding import SET_SIZE

    # beam3 keeps the best three finished hypotheses, so its beam holds three
    min_width = SET_SIZE if args.strategy == "beam3" else 1
    for flag, value, low in (
        ("--seed", args.seed, 0),
        ("--order", args.order, 1),
        ("--max-len", args.max_len, 1),
        ("--beam-width", args.beam_width, min_width),
        ("--topk", args.topk, 1),
    ):
        if value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
    if not (math.isfinite(args.add_k) and args.add_k >= 0):
        raise ValueError(f"--add-k must be finite and >= 0, got {args.add_k}")
    if not math.isfinite(args.alpha):
        raise ValueError(f"--alpha must be finite, got {args.alpha}")


def _cmd_generate(args) -> int:
    from .decoding import SET_SIZE

    _check_generate_knobs(args)
    train_ngram = _bound("train_ngram")
    dataset = load_jsonl(args.train)
    lowercase = not args.no_lowercase
    sequences = [
        tokenize_words(ref, lowercase=lowercase) for inst in dataset for ref in inst.references
    ]
    first_id = dataset.instances[0].id
    # the n-gram model never sees the instance, so a beam3 or ensemble set
    # is the same for every instance: decode it once and label it per id
    if args.strategy == "ensemble":
        if len(sequences) < SET_SIZE:
            raise ValueError(
                f"ensemble needs at least {SET_SIZE} training references (one per shard), "
                f"got {len(sequences)}"
            )
        # round-robin shards, one model each
        models = [
            train_ngram(sequences[k::SET_SIZE], order=args.order, add_k=args.add_k) for k in range(SET_SIZE)
        ]
        shared = _bound("generate_ensemble")(
            models, beam_width=args.beam_width, max_len=args.max_len, alpha=args.alpha,
            instance_id=first_id,
        )
    else:
        model = train_ngram(sequences, order=args.order, add_k=args.add_k)
        shared = None
        if args.strategy == "beam3":
            shared = _bound("generate_top3_beam")(
                model, beam_width=args.beam_width, max_len=args.max_len, alpha=args.alpha,
                instance_id=first_id,
            )
    records = []
    for index, inst in enumerate(dataset):
        if shared is not None:
            gen = shared
        elif args.strategy == "random":
            gen = _bound("generate_random")(
                model, seed=_instance_seed(args.seed, index), max_len=args.max_len, instance_id=inst.id,
            )
        else:
            gen = _bound("generate_topk_random")(
                model, k=args.topk, seed=_instance_seed(args.seed, index), max_len=args.max_len,
                instance_id=inst.id,
            )
        record = {"id": inst.id, "outputs": list(gen.sentences), "strategy": gen.strategy, "seed": args.seed}
        if gen.flags:
            record["flags"] = list(gen.flags)
        records.append(record)
    payload = "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records).encode("utf-8")
    _write_atomic(args.out, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiscore",
        description="Joint quality/diversity evaluation of generated sentence sets.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="full quality + diversity report")
    p_eval.add_argument("--data", required=True, help="dataset JSONL (id/category/references[/outputs])")
    p_eval.add_argument("--outputs", default=None, help="system outputs JSONL, or 'inline' to use --data's outputs")
    p_eval.add_argument("--format", choices=("json", "tsv", "table"), default="table")
    p_eval.add_argument("--out", default=None, help="write the report here instead of stdout (atomic)")
    p_eval.add_argument("--allow-unequal", action="store_true", help="permit output/reference size mismatch")
    _add_metric_flags(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_ms = sub.add_parser("multiscore", help="assignment-based set score only")
    p_ms.add_argument("--data", required=True)
    p_ms.add_argument("--outputs", default=None)
    p_ms.add_argument("--metric", choices=("bleu", "chrf"), default="bleu")
    p_ms.add_argument("--per-instance", action="store_true", help="emit each instance's matrix, matching and score")
    p_ms.add_argument("--format", choices=("json", "table"), default="table")
    p_ms.add_argument("--out", default=None)
    p_ms.add_argument("--allow-unequal", action="store_true")
    _add_metric_flags(p_ms)
    p_ms.set_defaults(func=_cmd_multiscore)

    p_gen = sub.add_parser("generate", help="generate 3-sentence output sets with the toy n-gram harness")
    p_gen.add_argument("--train", required=True, help="dataset JSONL whose references train the model")
    p_gen.add_argument("--order", type=int, default=3, help="n-gram order (default 3)")
    p_gen.add_argument("--strategy", choices=_STRATEGIES, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="outputs JSONL path (atomic write)")
    p_gen.add_argument("--add-k", type=float, default=0.1, help="add-k smoothing constant (default 0.1)")
    p_gen.add_argument("--max-len", type=int, default=64)
    p_gen.add_argument("--beam-width", type=int, default=10)
    p_gen.add_argument("--alpha", type=float, default=0.6, help="length-penalty strength (default 0.6)")
    p_gen.add_argument("--topk", type=int, default=3, help="candidate pool for topk3 (default 3)")
    p_gen.add_argument("--no-lowercase", action="store_true", help="train on cased tokens")
    p_gen.set_defaults(func=_cmd_generate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
