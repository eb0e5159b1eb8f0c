"""Outside-in tracer: one traced run of one benchmark command, in-process.

Usage: python3 bench/tracer.py SPEC_JSON

SPEC_JSON names the command (``{"cli": [argv...]}`` for a ``multiscore``
invocation, or ``{"matchgrid": WORKDIR}``), the monotonic clock reading
taken by the parent just before it spawned this process (``spawn_t``),
where to write the spans (``out``), and, for ``{"warm": [data, outputs]}``,
a dataset to evaluate a second time after the traced run.

The tracer replaces each public function at the attribute its caller looks
up, records one span per call (name, start, end, parent span) in memory,
restores every attribute, checks that the modules are exactly as it found
them, and writes the spans and counters out. No source file changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time

import numpy as np

clock = time.monotonic  # system-wide, so the parent's spawn time is comparable
_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {}
        self.distinct = {}  # counter name -> set of keys

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def see(self, name, key):
        self.distinct.setdefault(name, set()).add(key)

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, clock(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = clock()

    def wrap(self, fn, name, observe=None):
        """``fn`` recorded as span ``name`` (a string, or a function of the
        call's arguments); ``observe(args, kwargs, result)`` updates counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper


def _text(sentence):
    return sentence.raw if hasattr(sentence, "raw") else sentence


def _match_span(matrix, *args, **kwargs):
    shape = np.shape(getattr(matrix, "weights", matrix))
    return "assignment.match_small" if min(shape) <= 5 else "assignment.match_large"


def patches(tr):
    """(owner, attribute, replacement) for every traced call binding."""
    text = importlib.import_module("multiscore.text")
    corpus = importlib.import_module("multiscore.corpus")
    metrics = importlib.import_module("multiscore.metrics")
    ms = importlib.import_module("multiscore.multiscore")
    assignment = importlib.import_module("multiscore.assignment")
    report = importlib.import_module("multiscore.report")
    decoding = importlib.import_module("multiscore.decoding")
    cli = importlib.import_module("multiscore.cli")

    def tokenized(args, kwargs, result):
        tr.count("text.tokenize_calls")
        tr.see("text.sentences", args[0])

    def loaded(args, kwargs, result):
        tr.count("corpus.instances", len(result))

    def bleu_pair(args, kwargs, result):
        tr.count("metrics.sentence_bleu_calls")
        tr.see("metrics.pairs", ("bleu", _text(args[0]), tuple(_text(r) for r in args[1])))

    def chrf_pair(args, kwargs, result):
        tr.count("metrics.sentence_chrfpp_calls")
        tr.see("metrics.pairs", ("chrf", _text(args[0]), _text(args[1])))

    def scored(args, kwargs, result):
        tr.count("multiscore.pairs_scored", result.n_rows * result.n_cols)

    def matched(args, kwargs, result):
        tr.count("assignment.match_calls")

    def generated(args, kwargs, result):
        tr.count("decoding.sets")
        tr.see("decoding.sets", (result.strategy, result.sentences))

    def next_distribution(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tr.count("decoding.next_distribution_calls")
            return fn(*args, **kwargs)

        return counted

    w = tr.wrap
    return [
        (text, "tokenize_words", w(text.tokenize_words, "text.tokenize", tokenized)),
        (cli, "tokenize_words", w(cli.tokenize_words, "text.tokenize", tokenized)),
        (cli, "load_jsonl", w(cli.load_jsonl, "corpus.load", loaded)),
        (cli, "load_outputs_jsonl", w(cli.load_outputs_jsonl, "corpus.load")),
        (cli, "bind_outputs", w(cli.bind_outputs, "corpus.load")),
        (metrics, "sentence_bleu", w(metrics.sentence_bleu, "metrics.sentence_bleu", bleu_pair)),
        (metrics, "sentence_chrfpp", w(metrics.sentence_chrfpp, "metrics.sentence_chrfpp", chrf_pair)),
        (report, "corpus_bleu", w(report.corpus_bleu, "metrics.corpus_bleu")),
        (report, "corpus_chrfpp", w(report.corpus_chrfpp, "metrics.corpus_chrfpp")),
        (report, "self_bleu", w(report.self_bleu, "metrics.self_bleu")),
        (ms, "score_matrix", w(ms.score_matrix, "multiscore.score_matrix", scored)),
        (report, "corpus_multi_score", w(report.corpus_multi_score, "multiscore.corpus_multi_score")),
        (cli, "corpus_multi_score", w(cli.corpus_multi_score, "multiscore.corpus_multi_score")),
        (ms, "max_weight_matching", w(ms.max_weight_matching, _match_span, matched)),
        (assignment, "max_weight_matching", w(assignment.max_weight_matching, _match_span, matched)),
        (cli, "evaluate_all", w(cli.evaluate_all, "report.evaluate_all")),
        (cli, "render", w(cli.render, "report.render")),
        (cli, "train_ngram", w(cli.train_ngram, "decoding.train")),
        (cli, "generate_top3_beam", w(cli.generate_top3_beam, "decoding.beam", generated)),
        (cli, "generate_ensemble", w(cli.generate_ensemble, "decoding.beam", generated)),
        (cli, "generate_random", w(cli.generate_random, "decoding.sample", generated)),
        (cli, "generate_topk_random", w(cli.generate_topk_random, "decoding.sample", generated)),
        (decoding.NGramLM, "next_distribution", next_distribution(decoding.NGramLM.next_distribution)),
        (cli, "main", w(cli.main, "cli.main")),
    ]


@contextlib.contextmanager
def installed(tr):
    """Install the wrappers; on exit restore every attribute and verify that
    each owner's namespace is exactly what it was before."""
    table = patches(tr)
    before = {id(owner): (owner, dict(vars(owner))) for owner, _, _ in table}
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in table]
    try:
        for owner, attr, replacement in table:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
        for owner, namespace in before.values():
            now = dict(vars(owner))
            changed = [k for k in set(namespace) | set(now) if namespace.get(k, _MISSING) is not now.get(k, _MISSING)]
            if changed:
                raise RuntimeError(f"tracer left {owner.__name__} attributes changed: {sorted(changed)}")


def main(argv):
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    tr = Tracer()
    if "matchgrid" in spec:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import matchgrid

        arrays, groups = matchgrid.load(spec["matchgrid"])
    from multiscore import cli

    with installed(tr):
        if "cli" in spec:
            status = cli.main(spec["cli"])
        else:
            results = matchgrid.run(arrays, groups, lambda group: tr.span(f"bench.grid_{group}"))
            matchgrid.write(spec["matchgrid"], results)
            status = 0
        end = clock()
    record = {
        "traced_wall_s": end - spec["spawn_t"],
        "spans": tr.spans,
        "counters": tr.counters,
        "distinct": {k: len(v) for k, v in tr.distinct.items()},
    }
    if "warm" in spec:
        # a second evaluate_all in the same process, untraced: the module
        # caches are warm, which a cold CLI process never sees
        from multiscore.corpus import bind_outputs, load_jsonl, load_outputs_jsonl
        from multiscore.report import evaluate_all

        data, outputs = spec["warm"]
        dataset = bind_outputs(load_jsonl(data), load_outputs_jsonl(outputs))
        t0 = clock()
        evaluate_all(dataset, allow_unequal=True)
        record["warm_evaluate_all_s"] = clock() - t0
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
