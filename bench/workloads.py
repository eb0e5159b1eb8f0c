"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of the seed: it writes its input files
into a work directory and returns a description of them (sizes, the input
ids in order, and the number of work items one operation processes). Sizes
are fixed; the seed only changes content, so the work per operation is the
same for every seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

DEFAULT_SEED = 20210811

# The acceptance generator's vocabulary and length range
# (tests/test_acceptance.py: VOCAB, random_sentence(rng, 4, 12)).
VOCAB = ("red", "cat", "sat", "mat", "dog", "ran", "far", "big", "sky", "old", "town", "blue")
SENT_LO, SENT_HI = 4, 12  # token count drawn from [4, 12)

EVAL_SMALL_INSTANCES = 2000
EVAL_SMALL_UNEQUAL = 200  # half with 2 references, half with 4; the rest 3x3

NBEST_REFERENCES = (150, 170, 185, 200)  # one instance per entry
NBEST_DISTINCT = 8  # distinct sentences per output set, repeated to the set size

GRID_SMALL_COUNT = 2000  # random 3x3
GRID_RANDOM_SIZES = (500, 1000)
GRID_TIES_INT_SIZES = (300, 600)  # integer weights 0..2
GRID_TIES_EQUAL_SIZE = 600  # every weight equal
GRID_RECT_SHAPE = (100, 300)

GEN_INSTANCES = 40
GEN_REFERENCES = 3
GEN_VOCAB = 300  # word types, every one present in the training corpus
GEN_ZIPF_S = 1.1
GEN_STRATEGIES = ("beam3", "random", "topk3", "ensemble")


def random_sentence(rng, lo=SENT_LO, hi=SENT_HI):
    return " ".join(VOCAB[i] for i in rng.integers(0, len(VOCAB), size=rng.integers(lo, hi)))


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _write_pair(workdir, instances):
    """Write references and outputs as two files, as a user would have them."""
    _write_jsonl(os.path.join(workdir, "refs.jsonl"),
                 [{"id": i, "references": refs} for i, refs, _ in instances])
    _write_jsonl(os.path.join(workdir, "outs.jsonl"),
                 [{"id": i, "outputs": outs} for i, _, outs in instances])


def make_eval_small(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    unequal = rng.permutation(EVAL_SMALL_INSTANCES)[:EVAL_SMALL_UNEQUAL]
    n_refs = np.full(EVAL_SMALL_INSTANCES, 3)
    n_refs[unequal[: EVAL_SMALL_UNEQUAL // 2]] = 2
    n_refs[unequal[EVAL_SMALL_UNEQUAL // 2:]] = 4
    instances = []
    for k in range(EVAL_SMALL_INSTANCES):
        refs = [random_sentence(rng) for _ in range(n_refs[k])]
        outs = [random_sentence(rng) for _ in range(3)]
        instances.append((f"s{k}", refs, outs))
    _write_pair(workdir, instances)
    return {
        "instances": EVAL_SMALL_INSTANCES,
        "unequal_instances": EVAL_SMALL_UNEQUAL,
        "ids": [i for i, _, _ in instances],
        "items": EVAL_SMALL_INSTANCES,
        "item": "instances",
    }


def _perturb(rng, sentence):
    tokens = sentence.split()
    tokens[int(rng.integers(len(tokens)))] = VOCAB[int(rng.integers(len(VOCAB)))]
    return " ".join(tokens)


def make_eval_nbest(seed, workdir):
    rng = np.random.default_rng([seed, 2])
    instances = []
    for k, n in enumerate(NBEST_REFERENCES):
        refs = [random_sentence(rng) for _ in range(n)]
        # an n-best list: close variants of a few references, repeated
        distinct = [_perturb(rng, refs[int(j)]) for j in rng.choice(n, NBEST_DISTINCT, replace=False)]
        outs = [distinct[j % NBEST_DISTINCT] for j in range(n)]
        instances.append((f"nb{k}", refs, outs))
    _write_pair(workdir, instances)
    cells = sum(n * n for n in NBEST_REFERENCES)
    return {
        "references": list(NBEST_REFERENCES),
        "distinct_outputs": NBEST_DISTINCT,
        "ids": [i for i, _, _ in instances],
        "items": cells,
        "item": "grid cells",
    }


def make_match_grid(seed, workdir):
    rng = np.random.default_rng([seed, 3])
    arrays = {"small": rng.uniform(0.0, 100.0, size=(GRID_SMALL_COUNT, 3, 3))}
    groups = {"small": [f"small:{i}" for i in range(GRID_SMALL_COUNT)]}
    groups["random"] = []
    for n in GRID_RANDOM_SIZES:
        arrays[f"random{n}"] = rng.uniform(0.0, 100.0, size=(n, n))
        groups["random"].append(f"random{n}")
    groups["ties"] = []
    for n in GRID_TIES_INT_SIZES:
        arrays[f"int{n}"] = rng.integers(0, 3, size=(n, n)).astype(np.float64)
        groups["ties"].append(f"int{n}")
    arrays["equal"] = np.full((GRID_TIES_EQUAL_SIZE, GRID_TIES_EQUAL_SIZE), 50.0)
    groups["ties"].append("equal")
    arrays["rect"] = rng.uniform(0.0, 100.0, size=GRID_RECT_SHAPE)
    groups["rect"] = ["rect"]
    np.savez(os.path.join(workdir, "grid.npz"), **arrays)
    with open(os.path.join(workdir, "groups.json"), "w", encoding="utf-8") as fh:
        json.dump(groups, fh)
    return {
        "small_3x3": GRID_SMALL_COUNT,
        "random": list(GRID_RANDOM_SIZES),
        "ties_int": list(GRID_TIES_INT_SIZES),
        "ties_equal": GRID_TIES_EQUAL_SIZE,
        "rect": list(GRID_RECT_SHAPE),
        "items": sum(len(v) for v in groups.values()),
        "item": "matrices",
    }


def make_generate(seed, workdir):
    # Beam-search cost on a toy model is chaotic in the training corpus: on
    # five freshly drawn corpora of this shape the four strategies took
    # 1.8 s to 3.0 s in-process (2-CPU machine), and 4.0 s to 15.3 s at 70
    # instances. So the corpus is drawn from DEFAULT_SEED for every run, and
    # the run's seed drives the samplers (generate --seed).
    rng = np.random.default_rng([DEFAULT_SEED, 4])
    words = [f"w{i:03d}" for i in range(GEN_VOCAB)]
    weights = 1.0 / np.arange(1, GEN_VOCAB + 1) ** GEN_ZIPF_S
    weights /= weights.sum()
    sentences = []
    for _ in range(GEN_INSTANCES * GEN_REFERENCES):
        length = int(rng.integers(SENT_LO, SENT_HI))
        sentences.append([words[i] for i in rng.choice(GEN_VOCAB, size=length, p=weights)])
    # every word type occurs, so the model has exactly GEN_VOCAB word types
    seen = {w for s in sentences for w in s}
    for w in words:
        if w not in seen:
            s = sentences[int(rng.integers(len(sentences)))]
            s.insert(int(rng.integers(len(s) + 1)), w)
    records = [
        {"id": f"g{k}", "references": [" ".join(s) for s in sentences[k * GEN_REFERENCES:(k + 1) * GEN_REFERENCES]]}
        for k in range(GEN_INSTANCES)
    ]
    _write_jsonl(os.path.join(workdir, "train.jsonl"), records)
    return {
        "instances": GEN_INSTANCES,
        "training_sentences": GEN_INSTANCES * GEN_REFERENCES,
        "word_types": GEN_VOCAB,
        "strategies": list(GEN_STRATEGIES),
        "sampler_seed": seed,
        "ids": [r["id"] for r in records],
        "items": GEN_INSTANCES * len(GEN_STRATEGIES),
        "item": "sets generated",
    }


GENERATORS = {
    "eval-small": make_eval_small,
    "eval-nbest": make_eval_nbest,
    "match-grid": make_match_grid,
    "generate": make_generate,
}
