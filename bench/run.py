"""multiscore benchmark: cold-process operations on seeded workloads.

Usage (from the repository root):

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 it runs one operation after another, each in fresh
processes, for about --seconds seconds and reports the end-to-end metrics,
with every wall time scaled to a reference machine speed by
bench/speedprobe.py.
With --trace 1 it runs one untraced operation and then the same operation
under bench/tracer.py, and reports the per-layer metrics. Either way every
operation's output is checked, and the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The line before it is
a record of the machine, the inputs and every sample. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import speedprobe  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "multiscore-bench")
PY = sys.executable

# what the installed `multiscore` console script runs
ENTRY = "import sys\nfrom multiscore.cli import main\nsys.exit(main())"
# set-up is sampled before the first operation and between operations, so
# its median covers the same stretch of machine time as the operations
SETUP_FIRST, SETUP_BETWEEN = 3, 2
MIN_OPS = 2
DEADLINE_S = 165.0  # every child is killed by then, so the run ends within 180 s

clock = time.monotonic


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Child:
    """One finished child process: wall time from spawn to exit, and its own
    rusage from wait4 (RUSAGE_CHILDREN would give a running maximum)."""

    def __init__(self, argv, stdout_path, timeout, spawn_hook=None):
        env = child_env()
        with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
            start = clock()
            if spawn_hook is not None:
                spawn_hook(start)
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(max(timeout, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.end = clock()
        self.start, self.wall = start, self.end - start
        # reaped by wait4 above; tell Popen, so that it never waits on the pid
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
        self.cpu = usage.ru_utime + usage.ru_stime
        self.stdout_path = stdout_path

    def stderr_tail(self):
        with open(self.stdout_path + ".err", "rb") as fh:
            return fh.read()[-400:].decode("utf-8", "replace")


# --- workloads: commands and output checks ---------------------------------


def commands(name, workdir, seed):
    """(argv, path of the output the command writes) for one operation."""
    cli = [PY, "-c", ENTRY]
    refs, outs = os.path.join(workdir, "refs.jsonl"), os.path.join(workdir, "outs.jsonl")
    stdout = os.path.join(workdir, "stdout")
    if name == "eval-small":
        return [(cli + ["evaluate", "--data", refs, "--outputs", outs, "--format", "json", "--allow-unequal"], stdout)]
    if name == "eval-nbest":
        return [(cli + ["multiscore", "--data", refs, "--outputs", outs, "--metric", "bleu",
                        "--per-instance", "--format", "json"], stdout)]
    if name == "match-grid":
        return [([PY, os.path.join(BENCH, "matchgrid.py"), workdir], os.path.join(workdir, "matches.json"))]
    train = os.path.join(workdir, "train.jsonl")
    return [
        (cli + ["generate", "--train", train, "--strategy", s, "--seed", str(seed),
                "--out", os.path.join(workdir, f"gen-{s}.jsonl")], os.path.join(workdir, f"gen-{s}.jsonl"))
        for s in workloads.GEN_STRATEGIES
    ]


class CheckFailed(Exception):
    pass


def need(condition, message):
    if not condition:
        raise CheckFailed(message)


def in_range(value, what):
    need(isinstance(value, (int, float)) and 0.0 <= value <= 100.0, f"{what} = {value!r} is outside [0, 100]")


def check_eval_small(blobs, info, workdir):
    report = json.loads(blobs[0])
    ids = [row["id"] for row in report["per_instance"]]
    need(ids == info["ids"], "report ids differ from the input ids")
    for key in ("bleu", "chrfpp"):
        in_range(report["quality"][key], f"quality.{key}")
    for key in ("ms_bleu", "ms_chrf", "self_bleu"):
        in_range(report["diversity"][key], f"diversity.{key}")
    for row in report["per_instance"]:
        for key in ("ms_bleu", "ms_chrf", "self_bleu"):
            in_range(row[key], f"{row['id']}.{key}")


def check_eval_nbest(blobs, info, workdir):
    from scipy.optimize import linear_sum_assignment
    import numpy as np

    report = json.loads(blobs[0])
    rows = report["per_instance"]
    need([r["id"] for r in rows] == info["ids"], "report ids differ from the input ids")
    for row, n in zip(rows, info["references"]):
        matrix = np.array([[float(x) for x in line] for line in row["matrix"]])
        need(matrix.shape == (n, n), f"{row['id']}: matrix shape {matrix.shape}, expected {(n, n)}")
        need(matrix.min() >= 0.0 and matrix.max() <= 100.0, f"{row['id']}: matrix weight outside [0, 100]")
        outs = [e["output"] for e in row["matching"]]
        refs = [e["reference"] for e in row["matching"]]
        need(sorted(outs) == list(range(n)) and sorted(refs) == list(range(n)),
             f"{row['id']}: matching is not a permutation")
        weights = [float(e["weight"]) for e in row["matching"]]
        need(all(w == matrix[o, r] for o, r, w in zip(outs, refs, weights)),
             f"{row['id']}: a matched weight differs from its matrix cell")
        score = float(row["score"])
        in_range(score, f"{row['id']}.score")
        # rendered values carry two decimals, so each is off by at most 0.005
        need(abs(score - sum(weights) / n) <= 0.01 + 1e-9, f"{row['id']}: score is not the mean matched weight")
        r, c = linear_sum_assignment(matrix, maximize=True)
        need(sum(weights) >= matrix[r, c].sum() - 0.01 * n - 1e-9, f"{row['id']}: matching is not optimal")
    mean = float(report["multi_score"])
    in_range(mean, "multi_score")
    need(abs(mean - sum(float(r["score"]) for r in rows) / len(rows)) <= 0.01 + 1e-9,
         "multi_score is not the mean instance score")


def check_match_grid(blobs, info, workdir):
    from scipy.optimize import linear_sum_assignment
    from multiscore.assignment import brute_force_matching
    import matchgrid

    results = json.loads(blobs[0])
    arrays, groups = matchgrid.load(workdir)
    names = [n for group in groups.values() for n in group]
    need(list(results) == names, "results do not list the matrices in input order")
    for name in names:
        w = matchgrid.matrix(arrays, name)
        edges = [tuple(e) for e in results[name]["edges"]]
        rows, cols = [e[0] for e in edges], [e[1] for e in edges]
        need(len(edges) == min(w.shape) and len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
             and all(0 <= r < w.shape[0] and 0 <= c < w.shape[1] for r, c in edges),
             f"{name}: edges are not a one-to-one matching of the smaller side")
        total = results[name]["total"]
        need(abs(total - math.fsum(w[r, c] for r, c in edges)) <= 1e-9 * max(w.shape),
             f"{name}: total is not the sum of the matched weights")
        r, c = linear_sum_assignment(w, maximize=True)
        need(abs(total - w[r, c].sum()) <= 1e-9 * max(w.shape), f"{name}: total differs from scipy's optimum")
        if min(w.shape) <= 5:
            need(tuple(edges) == brute_force_matching(w).edges, f"{name}: edges differ from brute_force_matching")


def check_generate(blobs, info, workdir):
    from multiscore.corpus import bind_outputs, load_jsonl, load_outputs_jsonl

    train = load_jsonl(os.path.join(workdir, "train.jsonl"))
    for strategy, blob in zip(workloads.GEN_STRATEGIES, blobs):
        path = os.path.join(workdir, f"check-{strategy}.jsonl")
        with open(path, "wb") as fh:
            fh.write(blob)
        bound = bind_outputs(train, load_outputs_jsonl(path))
        need([inst.id for inst in bound] == info["ids"], f"{strategy}: ids differ from the training ids")
        for inst in bound:
            need(len(inst.outputs) == 3 and all(s.strip() for s in inst.outputs),
                 f"{strategy}: instance {inst.id} does not have 3 non-empty sentences")


CHECKS = {
    "eval-small": check_eval_small,
    "eval-nbest": check_eval_nbest,
    "match-grid": check_match_grid,
    "generate": check_generate,
}


def load_expected():
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Op:
    """One operation: its commands run one after another, one child at a time."""

    def __init__(self, cmds, workdir, deadline):
        self.children = []
        for argv, _ in cmds:
            self.children.append(Child(argv, os.path.join(workdir, "stdout"), deadline - clock()))
            if self.children[-1].returncode != 0:
                break
        self.wall = sum(c.wall for c in self.children)
        self.rss_mb = max(c.rss_mb for c in self.children)
        self.cpu = sum(c.cpu for c in self.children)
        self.ok = len(self.children) == len(cmds) and all(c.returncode == 0 for c in self.children)
        self.blobs = []
        if self.ok:
            for _, out in cmds:
                with open(out, "rb") as fh:
                    self.blobs.append(fh.read())
        self.digest = hashlib.sha256(b"".join(self.blobs)).hexdigest()


# --- runs -------------------------------------------------------------------


def machine():
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": os.getloadavg(),
    }


def check_ops(name, ops, info, workdir, seed):
    """Mark each op failed or not. The last good op's output is checked in
    full; every other op must have produced the same bytes."""
    good = [op for op in ops if op.ok]
    problems = []
    if good:
        try:
            CHECKS[name](good[-1].blobs, info, workdir)
        except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"output check: {exc!r}")
            for op in good:
                op.ok = False
        expected = load_expected()
        if seed == expected["seed"] and good[-1].digest != expected["sha256"].get(name):
            problems.append(f"output sha256 {good[-1].digest} differs from the recorded one for seed {seed}")
            for op in good:
                op.ok = False
        for op in good:
            if op.digest != good[-1].digest:
                problems.append("operations of one run wrote different bytes")
                op.ok = False
    for op in ops:
        bad = [c for c in op.children if c.returncode != 0]
        if bad:
            problems.append(f"exit {bad[0].returncode}: {bad[0].stderr_tail()}")
    return problems


def measure_setup(workdir, deadline, spawns):
    children = []
    for _ in range(spawns):
        children.append(Child([PY, "-c", "import multiscore.cli"], os.path.join(workdir, "setup"), deadline - clock()))
        if children[-1].returncode != 0:
            raise SystemExit(f"importing multiscore.cli failed: {children[-1].stderr_tail()}")
    return children


def run_untraced(name, seed, seconds, workdir, info, started):
    """Operations one after another, with set-up samples before the first
    and between operations. The children and the speed probe share one
    CPU, and every child's wall time is scaled by the probe's reading over
    that child's lifetime (see speedprobe.py)."""
    deadline = started + DEADLINE_S
    cmds = commands(name, workdir, seed)
    ops, setup = [], []
    cpus = os.sched_getaffinity(0)
    # children and the probe thread inherit this thread's affinity
    os.sched_setaffinity(0, {min(cpus)})
    t0 = clock()
    try:
        with speedprobe.SpeedProbe(clock) as probe:
            while clock() < deadline:
                setup += measure_setup(workdir, deadline, SETUP_BETWEEN if ops else SETUP_FIRST)
                ops.append(Op(cmds, workdir, deadline))
                elapsed = clock() - t0
                if len(ops) >= MIN_OPS and elapsed + statistics.median(op.wall for op in ops) > seconds:
                    break
    finally:
        os.sched_setaffinity(0, cpus)

    def scaled(child):
        return child.wall * probe.scale(child.start, child.end)

    for op in ops:
        op.scaled_wall = sum(scaled(c) for c in op.children)
    setup_s = [scaled(c) for c in setup]
    problems = check_ops(name, ops, info, workdir, seed)
    wall = statistics.median(op.scaled_wall for op in ops)
    metrics = {
        "wall_s": (wall, "s"),
        "items_per_s": (info["items"] / wall, "items/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(op.rss_mb for op in ops), "MB"),
    }
    samples = {
        "setup_s": setup_s,
        "wall_s": [op.scaled_wall for op in ops],
        "raw_setup_s": [c.wall for c in setup],
        "raw_wall_s": [op.wall for op in ops],
        "probe_samples": len(probe.samples),
        "probe_median_s": statistics.median(took for _, took in probe.samples),
        "peak_rss_mb": [op.rss_mb for op in ops],
        "cpu_s": [op.cpu for op in ops],
        "op_ok": [op.ok for op in ops],
        "output_sha256": ops[-1].digest,
    }
    return ops, metrics, samples, problems


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(records, untraced):
    spans, counters, distinct = [], {}, {}
    for rec in records:
        base = len(spans)
        spans += [[n, s, e, p + base if p >= 0 else -1] for n, s, e, p in rec["spans"]]
        for k, v in rec["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in rec["distinct"].items():
            distinct[k] = distinct.get(k, 0) + v
    own = self_times(spans)
    by_name = {}
    for (name, *_), t in zip(spans, own):
        by_name.setdefault(name, []).append(t)

    def total(name):
        return math.fsum(by_name.get(name, ()))

    def grid(group):
        index = {i for i, s in enumerate(spans) if s[0] == f"bench.grid_{group}"}
        return math.fsum(t for s, t in zip(spans, own) if s[0].startswith("assignment.match") and s[3] in index)

    def ratio(num, den):
        return num / den if den else 0.0

    c = counters.get
    small = by_name.get("assignment.match_small", [])
    pair_calls = c("metrics.sentence_bleu_calls", 0) + c("metrics.sentence_chrfpp_calls", 0)
    traced_wall = math.fsum(rec["traced_wall_s"] for rec in records)
    m = {
        "text.tokenize_s": (total("text.tokenize"), "s"),
        "text.tokenize_calls": (c("text.tokenize_calls", 0), "count"),
        "text.tokenize_per_sentence": (ratio(c("text.tokenize_calls", 0), distinct.get("text.sentences", 0)), "ratio"),
        "corpus.load_s": (total("corpus.load"), "s"),
        "corpus.instances": (c("corpus.instances", 0), "count"),
        "metrics.sentence_bleu_s": (total("metrics.sentence_bleu"), "s"),
        "metrics.sentence_bleu_calls": (c("metrics.sentence_bleu_calls", 0), "count"),
        "metrics.sentence_chrfpp_s": (total("metrics.sentence_chrfpp"), "s"),
        "metrics.sentence_chrfpp_calls": (c("metrics.sentence_chrfpp_calls", 0), "count"),
        "metrics.corpus_bleu_s": (total("metrics.corpus_bleu"), "s"),
        "metrics.corpus_chrfpp_s": (total("metrics.corpus_chrfpp"), "s"),
        "metrics.self_bleu_s": (total("metrics.self_bleu"), "s"),
        "metrics.distinct_pair_ratio": (ratio(distinct.get("metrics.pairs", 0), pair_calls), "ratio"),
        "multiscore.score_matrix_s": (total("multiscore.score_matrix"), "s"),
        "multiscore.pairs_scored": (c("multiscore.pairs_scored", 0), "count"),
        "multiscore.corpus_multi_score_s": (total("multiscore.corpus_multi_score"), "s"),
        "assignment.match_s": (total("assignment.match_small") + total("assignment.match_large"), "s"),
        "assignment.match_calls": (c("assignment.match_calls", 0), "count"),
        "assignment.small_match_us": (ratio(math.fsum(small), len(small)) * 1e6, "us"),
        "assignment.large_match_s": (total("assignment.match_large"), "s"),
        "assignment.grid_small_s": (grid("small"), "s"),
        "assignment.grid_random_s": (grid("random"), "s"),
        "assignment.grid_ties_s": (grid("ties"), "s"),
        "assignment.grid_rect_s": (grid("rect"), "s"),
        "report.evaluate_all_s": (total("report.evaluate_all"), "s"),
        "report.render_s": (total("report.render"), "s"),
        "report.evaluate_all_warm_s": (math.fsum(r.get("warm_evaluate_all_s", 0.0) for r in records), "s"),
        "decoding.train_s": (total("decoding.train"), "s"),
        "decoding.beam_s": (total("decoding.beam"), "s"),
        "decoding.sample_s": (total("decoding.sample"), "s"),
        "decoding.next_distribution_calls": (c("decoding.next_distribution_calls", 0), "count"),
        "decoding.distinct_set_ratio": (ratio(distinct.get("decoding.sets", 0), c("decoding.sets", 0)), "ratio"),
        "cli.main_s": (total("cli.main"), "s"),
        "cli.cpu_s": (statistics.mean(op.cpu for op in untraced), "s"),
        "cli.output_bytes": (sum(len(b) for b in untraced[0].blobs), "bytes"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - statistics.mean(op.wall for op in untraced), "s"),
    }
    return m


def traced_op(name, cmds, workdir, deadline):
    """The operation's commands, each in a fresh tracer process.
    Returns (span records, output bytes, problem or None)."""
    records, blobs = [], []
    for i, (argv, out) in enumerate(cmds):
        spec = {"out": os.path.join(workdir, f"spans-{i}.json")}
        if name == "match-grid":
            spec["matchgrid"] = workdir
        else:
            spec["cli"] = argv[3:]  # after PY -c ENTRY
        if name == "eval-small":
            spec["warm"] = [os.path.join(workdir, "refs.jsonl"), os.path.join(workdir, "outs.jsonl")]
        spec_path = os.path.join(workdir, f"spec-{i}.json")

        def write_spec(spawn_t, spec=spec, spec_path=spec_path):
            spec["spawn_t"] = spawn_t
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)

        child = Child([PY, os.path.join(BENCH, "tracer.py"), spec_path], os.path.join(workdir, "stdout"),
                      deadline - clock(), spawn_hook=write_spec)
        if child.returncode != 0:
            return records, blobs, f"traced run exit {child.returncode}: {child.stderr_tail()}"
        with open(spec["out"], encoding="utf-8") as fh:
            records.append(json.load(fh))
        with open(out, "rb") as fh:
            blobs.append(fh.read())
    return records, blobs, None


def run_traced(name, seed, workdir, info, started):
    """Untraced, traced, untraced: the overhead is the traced wall time minus
    the mean of the two untraced ones, which cancels a steady drift in
    machine speed."""
    deadline = started + DEADLINE_S
    cmds = commands(name, workdir, seed)
    before = Op(cmds, workdir, deadline)
    records, blobs, problem = traced_op(name, cmds, workdir, deadline)
    after = Op(cmds, workdir, deadline)
    problems = check_ops(name, [before, after], info, workdir, seed)
    if problem is None and blobs != before.blobs:
        problem = "the traced run wrote different bytes from the untraced run"
    if problem is not None:
        problems.append(problem)
    attempted, failed = 3, (not before.ok) + (not after.ok) + (problem is not None)
    metrics = layer_metrics(records, [before, after]) if failed == 0 else {}
    samples = {"untraced_wall_s": [before.wall, after.wall], "spans": sum(len(r["spans"]) for r in records)}
    return attempted, failed, metrics, samples, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = clock()

    if not os.path.isfile(os.path.join(SRC, "multiscore", "cli.py")):
        print(f"error: {ROOT} has no src/multiscore; run from the root of a multiscore checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import multiscore

    if not os.path.abspath(multiscore.__file__).startswith(SRC + os.sep):
        print(f"error: imported multiscore from {multiscore.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "default_seed": workloads.DEFAULT_SEED,
              "seconds": args.seconds, "trace": args.trace, "machine": machine()}
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        info = workloads.GENERATORS[args.workload](args.seed, workdir)
        record["inputs"] = {k: v for k, v in info.items() if k != "ids"}
        if args.trace:
            attempted, failed, metrics, samples, problems = run_traced(args.workload, args.seed, workdir, info, started)
        else:
            ops, metrics, samples, problems = run_untraced(args.workload, args.seed, args.seconds, workdir, info, started)
            attempted, failed = len(ops), sum(not op.ok for op in ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    record["samples"] = samples
    record["problems"] = problems
    # not an end-to-end metric: it reads 0 on working code
    record["failed_frac"] = failed / attempted
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
