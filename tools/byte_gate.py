"""Byte-identity gate: run every report command on fixed inputs and keep
what each one printed.

    python tools/byte_gate.py OUTDIR [--repo CHECKOUT]

OUTDIR (new or empty) receives ``inputs/``, the files the commands read,
and ``results/INPUT/COMMAND.{stdout,stderr,exit}``. The program run is the
package under ``CHECKOUT/src`` (default: this checkout), so two checkouts
are compared by running the tool once against each and then
``diff -r OUTDIR1 OUTDIR2``: no output means every report, generated file,
diagnostic and exit code is byte-identical.

Inputs: the bundled demo corpus with its four ``generate --seed 7`` output
sets (the generate runs are gate commands too), a title-cased copy of those
sets, the benchmark's eval-small and eval-nbest inputs at the default seed
(built by ``bench/workloads.py``), the two interleaved into one corpus, so
that each wide n-best instance sits between runs of narrow ones, eval-nbest's
inputs at seed 7 too, a long-short corpus of 1,200 eval-small-like instances
of which every 400th has 150-300-word outputs and references (a block
holding one scores BLEU element by element, a block of short ones alone
from lookup tables), the benchmark's Zipfian generate training corpus (300
word types) against each of the four sets ``generate`` makes from it at the
default seed, a Unicode-edge corpus (Greek capital sigma at text edges,
astral-plane symbols, punctuation-only chunks, and tab, U+2028 and U+00A0
inside texts; outputs written with ``\\u`` escapes) and a title-cased copy
of its outputs, and ``tests/evaluate_golden/``. On each, ``evaluate
--allow-unequal`` in every format and ``multiscore --allow-unequal
--per-instance`` for both metrics and both formats, all at the default
metric flags; then both commands at non-default ones (``--bleu-max-order
2``; ``--chrf-char-order 3 --chrf-word-order 0 --chrf-beta 1``),
``evaluate`` in json and table and ``multiscore`` with the metric the flags
set, in both formats. Each runs with and without ``--no-lowercase``: 604
commands. On top of those, ``generate`` runs whose files land in
``results/generate/``: every strategy on the benchmark's generate training
corpus at the default seed, and on the demo corpus at ``--seed 7`` with
``--add-k 0``, with ``--order 1`` and with ``--no-lowercase``, and
``topk3`` with ``--topk 9``: 17 more. A matcher section also calls
``max_weight_matching`` directly and writes each matrix's edges and total
as JSON to ``results/matcher/INPUT.stdout``, one process per input: the
benchmark's match-grid matrices at the default seed and at seeds 7 and 11,
the five shapes of ``tests/matching_golden/``, the long, thin 1x5000,
5000x1, 3x2000 and 2000x3, n-best-like grids of repeated rows, and seeded
stacks of {0, 1, 2} grids (uniform, and {0, 1} with one row of 2s) and
rounding-pool grids of every shape the matcher enumerates (at most 120
assignments), either way round, square grids of distinct rows that the
solver's bidding rounds see (one-decimal and {0..9} weights at sides 6, 20,
60 and 200, and uniform at 300), and near-tied rectangles (one-decimal and
{0..9} weights at 40x120 and 120x40, a tall grid being solved on its
transpose): 9 more. Last, corpora of 150 sets of k = 6, 8 and 12 distinct
outputs against k distinct references (every grid past the enumeration
bound, so each goes to the solver), with random texts and with near-tied
ones (3-5 words from a vocabulary of 3, so that many cells of a grid score
alike), each run through ``evaluate --format json`` and ``multiscore
--per-instance --format json`` for both metrics: 18 more, 648 in all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STRATEGIES = ("beam3", "random", "topk3", "ensemble")
DEMO_SEED = "7"

# generate on the demo corpus at non-default knobs: (label, strategies, flags)
GENERATE_KNOBS = (
    ("topk9", ("topk3",), ["--topk", "9"]),
    ("addk0", STRATEGIES, ["--add-k", "0"]),
    ("order1", STRATEGIES, ["--order", "1"]),
    ("cased", STRATEGIES, ["--no-lowercase"]),
)

# the non-default metric flags: (label, multiscore's --metric, flags)
METRIC_FLAGS = (
    ("bleu2", "bleu", ["--bleu-max-order", "2"]),
    ("chrf3w0b1", "chrf", ["--chrf-char-order", "3", "--chrf-word-order", "0", "--chrf-beta", "1"]),
)

COMMANDS = [
    (f"evaluate-{fmt}", ["evaluate", "--allow-unequal", "--format", fmt]) for fmt in ("json", "tsv", "table")
] + [
    (f"evaluate-{label}-{fmt}", ["evaluate", "--allow-unequal", *flags, "--format", fmt])
    for label, _, flags in METRIC_FLAGS
    for fmt in ("json", "table")
] + [
    (f"multiscore-{metric}-{fmt}",
     ["multiscore", "--allow-unequal", "--per-instance", "--metric", metric, "--format", fmt])
    for metric in ("bleu", "chrf")
    for fmt in ("json", "table")
] + [
    (f"multiscore-{label}-{fmt}",
     ["multiscore", "--allow-unequal", "--per-instance", "--metric", metric, *flags, "--format", fmt])
    for label, metric, flags in METRIC_FLAGS
    for fmt in ("json", "table")
]


# sets of k distinct outputs against k distinct references, k past the
# matcher's enumeration bound, so that every grid goes to the solver
SET_SIZES = (6, 8, 12)
SET_INSTANCES = 150

# the commands run on the sets corpora
SET_COMMANDS = [("evaluate-json", ["evaluate", "--format", "json"])] + [
    (f"multiscore-{metric}-json", ["multiscore", "--per-instance", "--metric", metric, "--format", "json"])
    for metric in ("bleu", "chrf")
]

# the long-short corpus: eval-small-like instances, and every LONG_EVERY-th
# one of 150-300-word texts, so that a block with a long instance has
# counts too large for the BLEU lookup tables (they are scored element by
# element) while a block of short ones alone takes the tables
LONG_SHORT_INSTANCES = 1200
LONG_EVERY = 400

# seeds of the benchmark's match-grid inputs the matcher section solves, on
# top of the default one
MATCH_GRID_SEEDS = (7, 11)

# the matcher enumerates every assignment of a shape with at most this many
ENUMERATE_LIMIT = 120

# weights whose distinct sums differ by rounding only (those of
# tests/test_assignment.py): ties that only the 1e-9 tie band sees
ROUNDING_POOLS = (
    (0.1, 0.2, 0.3, 0.7),
    tuple(k * 100 / 3 for k in range(4)) + tuple(k * 100 / 6 for k in range(7)),
    (33.33333333333333, 33.333333333333336, 100 / 3, 16.666666666666668, 66.66666666666667, 50.0),
)

# solves every matrix of the .npz file argv[1] (a 3-D array is a stack of
# matrices, named KEY:INDEX) and prints {name: {"edges", "total"}}
MATCHER = """
import json, sys
import numpy as np
from multiscore.assignment import max_weight_matching
results = {}
with np.load(sys.argv[1]) as npz:
    for key in npz.files:
        grids = npz[key]
        named = [(key, grids)] if grids.ndim == 2 else [(f"{key}:{i}", g) for i, g in enumerate(grids)]
        for name, w in named:
            m = max_weight_matching(w)
            results[name] = {"edges": [list(e) for e in m.edges], "total": m.total}
json.dump(results, sys.stdout)
"""


def _matcher_inputs(matcher, workloads):
    """Write the matcher section's .npz inputs under ``matcher``; return
    {name: path relative to ``matcher``}."""
    import numpy as np

    inputs = {}
    for seed in (workloads.DEFAULT_SEED, *MATCH_GRID_SEEDS):
        os.makedirs(os.path.join(matcher, f"match-grid-{seed}"))
        workloads.make_match_grid(seed, os.path.join(matcher, f"match-grid-{seed}"))
        inputs[f"match-grid-{seed}"] = os.path.join(f"match-grid-{seed}", "grid.npz")
    # the shapes and seeds of tests/test_assignment.py's golden edges
    np.savez(os.path.join(matcher, "golden.npz"), **{
        "random-300x300": np.random.default_rng(300).uniform(0, 100, (300, 300)),
        "integers-0-2-300x300": np.random.default_rng(302).integers(0, 3, (300, 300)).astype(float),
        "all-equal-200x200": np.full((200, 200), 50.0),
        "random-60x180": np.random.default_rng(60).uniform(0, 100, (60, 180)),
        "random-180x60": np.random.default_rng(180).uniform(0, 100, (180, 60)),
    })
    rng = np.random.default_rng(11)
    np.savez(os.path.join(matcher, "long-thin.npz"),
             **{f"{r}x{c}": rng.uniform(0, 100, (r, c)) for r, c in ((1, 5000), (5000, 1), (3, 2000), (2000, 3))})
    # 8 distinct rows repeated to the grid's height, as in an n-best list
    rng = np.random.default_rng(14)
    repeats = {}
    for rows, cols in ((200, 200), (170, 150), (150, 170), (1000, 1000)):
        repeats[f"uniform-{rows}x{cols}"] = rng.uniform(0, 100, (8, cols))[np.arange(rows) % 8]
        repeats[f"integers-0-2-{rows}x{cols}"] = rng.integers(0, 3, (8, cols)).astype(float)[rng.integers(0, 8, rows)]
    np.savez(os.path.join(matcher, "nbest.npz"), **repeats)
    # every enumerated shape, either way round: six {0, 1, 2} grids, ten
    # {0, 1} grids with one row of 2s (which every optimum of a tall grid
    # uses, so that its ties differ in which other row they take; uniform
    # {0, 1, 2} grids rarely tie so), and two grids from each rounding pool
    rng = np.random.default_rng(23)
    enumerated = {}
    for nr in range(1, ENUMERATE_LIMIT + 1):
        for nc in range(1, ENUMERATE_LIMIT + 1):
            if math.perm(max(nr, nc), min(nr, nc)) <= ENUMERATE_LIMIT:
                enumerated[f"integers-0-2-{nr}x{nc}"] = rng.integers(0, 3, (6, nr, nc)).astype(float)
                grids = rng.integers(0, 2, (10, nr, nc)).astype(float)
                grids[np.arange(10), rng.integers(0, nr, 10)] = 2.0
                enumerated[f"row-of-2s-{nr}x{nc}"] = grids
                enumerated[f"pools-{nr}x{nc}"] = np.stack([rng.choice(pool, (nr, nc))
                                                          for pool in ROUNDING_POOLS for _ in range(2)])
    np.savez(os.path.join(matcher, "enumerated.npz"), **enumerated)
    # square grids of distinct rows, where the solver's warm start bids and
    # its duals decide answers inside the tie band: one-decimal and {0..9}
    # weights, whose near-ties are common, and uniform ones
    rng = np.random.default_rng(29)
    bids = {}
    for n in (6, 20, 60, 200):
        bids[f"one-decimal-{n}"] = rng.integers(0, 1001, (n, n)) / 10
        bids[f"integers-0-9-{n}"] = rng.integers(0, 10, (n, n)).astype(float)
    bids["uniform-300"] = rng.uniform(0, 100, (300, 300))
    np.savez(os.path.join(matcher, "bids.npz"), **bids)
    # wide and tall grids of distinct rows whose near-ties the solver's duals
    # decide: a wide grid is solved on its own rows, a tall one on its
    # transpose
    rng = np.random.default_rng(31)
    rectangles = {}
    for shape in ((4, 40, 120), (4, 120, 40)):
        name = "%dx%d" % shape[1:]
        rectangles[f"one-decimal-{name}"] = rng.integers(0, 1001, shape) / 10
        rectangles[f"integers-0-9-{name}"] = rng.integers(0, 10, shape).astype(float)
    np.savez(os.path.join(matcher, "rectangles.npz"), **rectangles)
    names = ("golden", "long-thin", "nbest", "enumerated", "bids", "rectangles")
    return inputs | {name: f"{name}.npz" for name in names}


def _workloads():
    """bench/workloads.py of this checkout, imported without writing
    bytecode next to it."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(HERE, "bench"))
    import workloads

    return workloads


def _run(repo, outdir, name, args, python_args=("-m", "multiscore.cli")):
    """Run ``multiscore ARGS`` (or ``python PYTHON_ARGS ARGS``) in OUTDIR and
    record its stdout, stderr and exit code under ``results/NAME``. Paths
    are relative to OUTDIR, so a message that names a file reads the same in
    every OUTDIR."""
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    proc = subprocess.run([sys.executable, *python_args, *args], cwd=outdir, env=env, capture_output=True)
    base = os.path.join(outdir, "results", name)
    os.makedirs(os.path.dirname(base), exist_ok=True)
    for suffix, data in (("stdout", proc.stdout), ("stderr", proc.stderr), ("exit", b"%d\n" % proc.returncode)):
        with open(f"{base}.{suffix}", "wb") as fh:
            fh.write(data)
    return proc.returncode


def _title_cased(src, dst):
    with open(src, encoding="utf-8") as fh, open(dst, "w", encoding="utf-8", newline="\n") as out:
        for line in fh:
            record = json.loads(line)
            record["outputs"] = [text.title() for text in record["outputs"]]
            out.write(json.dumps(record, ensure_ascii=False) + "\n")


# the Unicode-edge corpus: Greek capital sigma at text edges, astral-plane
# symbols, punctuation-only chunks, and tab, U+2028 and U+00A0 inside texts
EDGE_WORDS = ("ΟΔΟΣ", "ΣΟΦΟΣ", "Σ", "ΑΣ", "σας", "𝔘𝔫𝔦", "😀", "x😀y", "𐍈𐍉", "...", "—", "«»", "!?",
              "don't", "Baku", "BAKU", "e\u0301", "ǅ", "İstanbul", "ß")
EDGE_SEPARATORS = (" ", " ", "\t", "\u2028", "\u00a0", "  ")
EDGE_INSTANCES = 40


def _edge_corpus(dst):
    """Write refs.jsonl and outs.jsonl of the Unicode-edge corpus into
    ``dst``: references raw UTF-8, outputs \\u-escaped, astral symbols as
    surrogate pairs."""
    rng = random.Random(11)

    def text():
        words = [rng.choice(EDGE_WORDS) for _ in range(rng.randint(1, 6))]
        body = words[0] + "".join(rng.choice(EDGE_SEPARATORS) + word for word in words[1:])
        return rng.choice(("", "Σ", "ΑΣ ")) + body + rng.choice(("", "Σ", " Σ", "\u2028"))

    os.makedirs(dst)
    with open(os.path.join(dst, "refs.jsonl"), "w", encoding="utf-8", newline="\n") as refs, \
            open(os.path.join(dst, "outs.jsonl"), "w", encoding="utf-8", newline="\n") as outs:
        for k in range(EDGE_INSTANCES):
            references = [text() for _ in range(rng.randint(2, 4))]
            refs.write(json.dumps({"id": f"u{k}", "references": references}, ensure_ascii=False) + "\n")
            outs.write(json.dumps({"id": f"u{k}", "outputs": [text() for _ in range(3)]}) + "\n")


def _interleaved(narrow, wide, dst):
    """Write refs.jsonl and outs.jsonl into ``dst`` with the instances of
    ``wide`` spread evenly between those of ``narrow``."""
    os.makedirs(dst)
    for name in ("refs.jsonl", "outs.jsonl"):
        with open(os.path.join(narrow, name), "rb") as fh:
            lines = fh.readlines()
        with open(os.path.join(wide, name), "rb") as fh:
            extra = fh.readlines()
        step = len(lines) // (len(extra) + 1)
        for k in range(len(extra), 0, -1):  # from the back, so earlier positions hold
            lines.insert(k * step, extra[k - 1])
        with open(os.path.join(dst, name), "wb") as fh:
            fh.writelines(lines)


def _long_short_corpus(dst, workloads):
    """Write refs.jsonl and outs.jsonl of LONG_SHORT_INSTANCES instances into
    ``dst``: eval-small-like ones (3 outputs, 2-4 references, 4-11 words),
    and every LONG_EVERY-th one of 150-300-word texts instead."""
    import numpy as np

    rng = np.random.default_rng(37)
    os.makedirs(dst)
    with open(os.path.join(dst, "refs.jsonl"), "w", encoding="utf-8", newline="\n") as refs, \
            open(os.path.join(dst, "outs.jsonl"), "w", encoding="utf-8", newline="\n") as outs:
        for k in range(LONG_SHORT_INSTANCES):
            lo, hi = (150, 301) if k % LONG_EVERY == LONG_EVERY // 2 else (workloads.SENT_LO, workloads.SENT_HI)
            references = [workloads.random_sentence(rng, lo, hi) for _ in range(rng.integers(2, 5))]
            refs.write(json.dumps({"id": f"l{k}", "references": references}) + "\n")
            outputs = [workloads.random_sentence(rng, lo, hi) for _ in range(3)]
            outs.write(json.dumps({"id": f"l{k}", "outputs": outputs}) + "\n")


def _set_corpora(inputs, workloads):
    """Write a corpus of SET_INSTANCES sets for each k of SET_SIZES, twice:
    random texts, and near-tied ones (3-5 words from a vocabulary of 3, so
    that many cells of a grid score alike); return {name: --data/--outputs
    args}."""
    import numpy as np

    cases = {}
    for k in SET_SIZES:
        for kind in ("random", "near-tied"):
            name = f"sets-{k}-{kind}"
            rng = np.random.default_rng([3, k, kind == "random"])
            words = workloads.VOCAB if kind == "random" else workloads.VOCAB[:3]
            lo, hi = (workloads.SENT_LO, workloads.SENT_HI) if kind == "random" else (3, 6)

            def texts():
                drawn = []
                while len(drawn) < k:
                    text = " ".join(words[i] for i in rng.integers(0, len(words), size=rng.integers(lo, hi)))
                    if text not in drawn:
                        drawn.append(text)
                return drawn

            os.makedirs(os.path.join(inputs, name))
            with open(os.path.join(inputs, name, "refs.jsonl"), "w", encoding="utf-8", newline="\n") as refs, \
                    open(os.path.join(inputs, name, "outs.jsonl"), "w", encoding="utf-8", newline="\n") as outs:
                for i in range(SET_INSTANCES):
                    refs.write(json.dumps({"id": f"k{i}", "references": texts()}) + "\n")
                    outs.write(json.dumps({"id": f"k{i}", "outputs": texts()}) + "\n")
            cases[name] = ["--data", os.path.join("inputs", name, "refs.jsonl"),
                           "--outputs", os.path.join("inputs", name, "outs.jsonl")]
    return cases


def _generate_runs(repo, outdir, demo, workloads):
    """Run generate with every strategy on the benchmark's generate corpus
    at its default seed, and on the demo corpus at GENERATE_KNOBS, writing
    each file to results/generate/; return the exit codes."""
    os.makedirs(os.path.join(outdir, "inputs", "generate"))
    workloads.make_generate(workloads.DEFAULT_SEED, os.path.join(outdir, "inputs", "generate"))
    bench = os.path.join("inputs", "generate", "train.jsonl")
    runs = [(f"bench-{s}", bench, s, str(workloads.DEFAULT_SEED), []) for s in STRATEGIES]
    runs += [(f"demo-{s}-{label}", demo, s, DEMO_SEED, flags)
             for label, strategies, flags in GENERATE_KNOBS for s in strategies]
    os.makedirs(os.path.join(outdir, "results", "generate"), exist_ok=True)
    return [
        _run(repo, outdir, f"generate/{name}", ["generate", "--train", train, "--strategy", strategy,
                                                "--seed", seed, *flags,
                                                "--out", os.path.join("results", "generate", f"{name}.jsonl")])
        for name, train, strategy, seed, flags in runs
    ]


def build_inputs(repo, outdir):
    """Write the gate inputs under OUTDIR/inputs, running the generate and
    matcher commands; return ({name: --data/--outputs args} for COMMANDS,
    the same for SET_COMMANDS, those commands' exit codes)."""
    inputs = os.path.join(outdir, "inputs")
    os.makedirs(inputs)
    demo = os.path.join("inputs", "demo.jsonl")
    shutil.copyfile(os.path.join(repo, "src", "multiscore", "data", "demo_corpus.jsonl"), os.path.join(outdir, demo))
    cases, codes = {}, []
    for strategy in STRATEGIES:
        outs = os.path.join("inputs", f"demo-{strategy}.jsonl")
        codes.append(_run(repo, outdir, f"generate/{strategy}", ["generate", "--train", demo, "--strategy", strategy,
                                                                 "--seed", DEMO_SEED, "--out", outs]))
        cases[f"demo-{strategy}"] = ["--data", demo, "--outputs", outs]
        titled = os.path.join("inputs", f"demo-{strategy}-title.jsonl")
        _title_cased(os.path.join(outdir, outs), os.path.join(outdir, titled))
        cases[f"demo-{strategy}-title"] = ["--data", demo, "--outputs", titled]
    workloads = _workloads()
    codes += _generate_runs(repo, outdir, demo, workloads)
    for strategy in STRATEGIES:
        cases[f"generate-{strategy}"] = ["--data", os.path.join("inputs", "generate", "train.jsonl"),
                                         "--outputs", os.path.join("results", "generate", f"bench-{strategy}.jsonl")]
    for name, make, seed in (("eval-small", workloads.make_eval_small, workloads.DEFAULT_SEED),
                             ("eval-nbest", workloads.make_eval_nbest, workloads.DEFAULT_SEED),
                             ("eval-nbest-seed7", workloads.make_eval_nbest, 7)):
        os.makedirs(os.path.join(inputs, name))
        make(seed, os.path.join(inputs, name))
        cases[name] = ["--data", os.path.join("inputs", name, "refs.jsonl"),
                       "--outputs", os.path.join("inputs", name, "outs.jsonl")]
    _interleaved(os.path.join(inputs, "eval-small"), os.path.join(inputs, "eval-nbest"),
                 os.path.join(inputs, "eval-mixed"))
    _long_short_corpus(os.path.join(inputs, "long-short"), workloads)
    for name in ("eval-mixed", "long-short"):
        cases[name] = ["--data", os.path.join("inputs", name, "refs.jsonl"),
                       "--outputs", os.path.join("inputs", name, "outs.jsonl")]
    edge = os.path.join("inputs", "unicode-edge")
    _edge_corpus(os.path.join(outdir, edge))
    _title_cased(os.path.join(outdir, edge, "outs.jsonl"), os.path.join(outdir, edge, "outs-title.jsonl"))
    for name, outs in (("unicode-edge", "outs.jsonl"), ("unicode-edge-title", "outs-title.jsonl")):
        cases[name] = ["--data", os.path.join(edge, "refs.jsonl"), "--outputs", os.path.join(edge, outs)]
    matcher = os.path.join("inputs", "matcher")
    for name, path in _matcher_inputs(os.path.join(outdir, matcher), workloads).items():
        codes.append(_run(repo, outdir, f"matcher/{name}", [os.path.join(matcher, path)], python_args=("-c", MATCHER)))
    golden = os.path.join("inputs", "evaluate_golden.jsonl")
    shutil.copyfile(os.path.join(HERE, "tests", "evaluate_golden", "evaluate.jsonl"), os.path.join(outdir, golden))
    cases["evaluate-golden"] = ["--data", golden]
    return cases, _set_corpora(inputs, workloads), codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", help="new or empty directory for the inputs and results")
    parser.add_argument("--repo", default=HERE, help="checkout whose src/ is run (default: this one)")
    args = parser.parse_args(argv)
    outdir, repo = os.path.abspath(args.outdir), os.path.abspath(args.repo)
    if os.path.exists(outdir) and os.listdir(outdir):
        parser.error(f"{outdir} is not empty")
    os.makedirs(outdir, exist_ok=True)
    cases, set_cases, codes = build_inputs(repo, outdir)
    for case, io_args in cases.items():
        for label, command in COMMANDS:
            codes.append(_run(repo, outdir, f"{case}/{label}", command + io_args))
            codes.append(_run(repo, outdir, f"{case}/{label}-cased", command + io_args + ["--no-lowercase"]))
    for case, io_args in set_cases.items():
        for label, command in SET_COMMANDS:
            codes.append(_run(repo, outdir, f"{case}/{label}", command + io_args))
    print(f"{len(codes)} commands, {sum(c != 0 for c in codes)} with a non-zero exit; results in {outdir}/results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
