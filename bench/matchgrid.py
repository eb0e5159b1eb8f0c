"""Matcher harness for the match-grid workload.

Usage: python3 bench/matchgrid.py WORKDIR

Solves every matrix in WORKDIR/grid.npz with
``multiscore.assignment.max_weight_matching``, group by group in the order
of WORKDIR/groups.json, and writes the edges and totals to
WORKDIR/matches.json. It stands in for a user who calls the matcher with a
metric of their own, so no other layer of the package runs.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

import numpy as np


def load(workdir):
    with np.load(os.path.join(workdir, "grid.npz")) as npz:
        arrays = {k: npz[k] for k in npz.files}
    with open(os.path.join(workdir, "groups.json"), encoding="utf-8") as fh:
        groups = json.load(fh)
    return arrays, groups


def matrix(arrays, name):
    """The matrix a group entry names: 'small:<i>' indexes the 3x3 stack."""
    if name.startswith("small:"):
        return arrays["small"][int(name[6:])]
    return arrays[name]


def run(arrays, groups, group_span=lambda group: contextlib.nullcontext()):
    """Solve every matrix; ``group_span(group)`` wraps each group."""
    from multiscore import assignment

    results = {}
    for group, names in groups.items():
        with group_span(group):
            for name in names:
                m = assignment.max_weight_matching(matrix(arrays, name))
                results[name] = {"edges": [list(e) for e in m.edges], "total": m.total}
    return results


def write(workdir, results):
    with open(os.path.join(workdir, "matches.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh)
        fh.write("\n")


def main(argv):
    workdir = argv[0]
    arrays, groups = load(workdir)
    write(workdir, run(arrays, groups))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
