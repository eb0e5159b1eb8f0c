"""Maximum-weight bipartite matching (Hungarian algorithm) with a
brute-force permutation oracle for verification.

The solver runs shortest augmenting paths over dual potentials in O(n^3).
Rectangular inputs are squared by zero-weight padding; padded edges never
appear in results.

Tie rule: an edge whose reduced cost is within 1e-9 of zero counts as
tight, and among the assignments inside that tight subgraph the
lexicographically smallest edge list (sorted by row, then column) is
returned, so results are reproducible across runs and platforms. Each
augmenting path ends at the first free column among those at minimum
distance, and the tie-break is an iterative search, so tie-heavy input
(all-equal or small-integer weights) costs about what random input does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# slack below this counts as a tie when selecting among optimal assignments
_TIE_TOL = 1e-9

_BRUTE_FORCE_LIMIT = 8


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Weights of the bipartite graph: outputs on rows, references on
    columns, entries in [0, 100]."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError(f"score matrix must be 2-D and non-empty, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("score matrix contains non-finite weights")
        if w.min() < 0.0 or w.max() > 100.0:
            raise ValueError("score matrix weights must lie in [0, 100]")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n_rows(self) -> int:
        return self.weights.shape[0]

    @property
    def n_cols(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class Matching:
    """A one-to-one assignment: edges sorted by row, their weights, and the
    total weight (the plain sum of ``edge_weights``)."""

    edges: tuple[tuple[int, int], ...]
    edge_weights: tuple[float, ...]
    total: float

    @classmethod
    def from_edges(cls, edges, weights: np.ndarray) -> "Matching":
        edges = tuple(sorted(edges))
        edge_weights = tuple(float(weights[r, c]) for r, c in edges)
        # fsum: the total is independent of summation order, so permuting
        # rows/columns of the input permutes the matching without moving
        # the total by even one ulp
        return cls(edges=edges, edge_weights=edge_weights, total=math.fsum(edge_weights))


def _coerce(matrix) -> ScoreMatrix:
    return matrix if isinstance(matrix, ScoreMatrix) else ScoreMatrix(np.asarray(matrix))


def _solve_min_cost(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Square min-cost assignment via shortest augmenting paths.

    Returns (row_of_col, u, v) where row_of_col[j] is the row matched to
    column j and u, v are feasible dual potentials with
    u[i] + v[j] <= cost[i, j], tight on matched edges.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    row_of_col = np.full(n + 1, -1, dtype=np.intp)  # index n is the virtual column
    way = np.zeros(n, dtype=np.intp)

    for i in range(n):
        row_of_col[n] = i
        j0 = n
        minv = np.full(n, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        free_cols = None  # built on the first tie check of this row
        while True:
            used[j0] = True
            i0 = row_of_col[j0]
            slack = cost[i0, :] - u[i0] - v[:n]
            open_cols = ~used[:n]
            better = open_cols & (slack < minv)
            minv[better] = slack[better]
            way[better] = j0
            masked = np.where(open_cols, minv, np.inf)
            j1 = int(masked.argmin())
            delta = masked[j1]
            if row_of_col[j1] >= 0:
                # any column at the minimum is a valid Dijkstra step; ending
                # at a free one keeps tie-heavy solves to O(n) steps instead
                # of walking every tied assigned column first (Crouse 2016);
                # free columns are all still open, since reaching one ends
                # the search, so minv holds their distances
                if free_cols is None:
                    free_cols = np.flatnonzero(row_of_col[:n] < 0)
                k = int(minv[free_cols].argmin())
                if minv[free_cols[k]] == delta:
                    j1 = int(free_cols[k])
            u[row_of_col[used]] += delta
            v[used] -= delta
            minv[open_cols] -= delta
            j0 = j1
            if row_of_col[j0] < 0:
                break
        # augment along the alternating path
        while j0 != n:
            j1 = int(way[j0])
            row_of_col[j0] = row_of_col[j1]
            j0 = j1
    return row_of_col[:n], u[:n], v[:n]


def _lex_min_tight_matching(
    tight: np.ndarray,
    row_of_col: np.ndarray,
    n_real_rows: int,
) -> np.ndarray:
    """Lexicographically smallest perfect matching inside the tight
    subgraph, starting from a known perfect matching.

    Rows are fixed in ascending order; each real row prefers real columns in
    ascending order, then padded columns. Row ``r`` on column ``c0`` can
    take a tight open column ``c`` iff the owner of ``c`` has an alternating
    path to ``c0`` through open columns. One backwards breadth-first search
    from ``c0`` finds every such ``c`` at once, so each row costs O(n^2)
    vectorised work and no recursion.
    """
    n = tight.shape[0]
    col_of_row = np.empty(n, dtype=np.intp)
    col_of_row[row_of_col] = np.arange(n)
    fixed_cols = np.zeros(n, dtype=bool)
    # next_col[c]: the column the owner of c moves to when c is taken
    next_col = np.empty(n, dtype=np.intp)

    for row in range(n_real_rows):
        # keeping the current column is always feasible, so only tight open
        # columns strictly below it are candidates (ascending index order is
        # the preference order: real columns come before padded ones)
        current = int(col_of_row[row])
        candidates = np.flatnonzero(tight[row, :current])
        if candidates.size:  # usually empty: skip the filter then
            candidates = candidates[~fixed_cols[candidates]]
        if candidates.size:
            reached = fixed_cols.copy()
            reached[current] = True
            frontier = np.array([current])
            while frontier.size and not reached[candidates[0]]:
                open_cols = np.flatnonzero(~reached)
                hits = tight[np.ix_(row_of_col[open_cols], frontier)]
                found = hits.any(axis=1)
                next_col[open_cols[found]] = frontier[hits[found].argmax(axis=1)]
                frontier = open_cols[found]
                reached[frontier] = True
            reachable = candidates[reached[candidates]]
            if reachable.size:
                col, mover = int(reachable[0]), row
                while col != current:
                    displaced = int(row_of_col[col])
                    row_of_col[col], col_of_row[mover] = mover, col
                    col, mover = int(next_col[col]), displaced
                row_of_col[current], col_of_row[mover] = mover, current
        fixed_cols[col_of_row[row]] = True
    return col_of_row


def max_weight_matching(matrix) -> Matching:
    """Maximum-weight one-to-one assignment of rows to columns.

    The matching has size min(n_rows, n_cols); rectangular matrices are
    padded internally with zero-weight cells which are dropped from the
    result. Ties between equally optimal assignments (detected within
    1e-9 slack) resolve to the lexicographically smallest edge list.

    :param matrix: a :class:`ScoreMatrix` or anything convertible to one.
    :return: the optimal :class:`Matching`.
    """
    matrix = _coerce(matrix)
    w = matrix.weights
    nr, nc = w.shape
    n = max(nr, nc)
    padded = np.zeros((n, n))
    padded[:nr, :nc] = w

    # maximize by minimizing the negated weights
    row_of_col, u, v = _solve_min_cost(-padded)

    # optimal assignments live inside the tight subgraph (complementary
    # slackness); matched edges are included regardless of rounding
    slack = -padded - u[:, None] - v[None, :]
    tight = slack <= _TIE_TOL
    tight[row_of_col, np.arange(n)] = True

    col_of_row = _lex_min_tight_matching(tight, row_of_col, nr)
    edges = [(r, int(col_of_row[r])) for r in range(nr) if col_of_row[r] < nc]
    return Matching.from_edges(edges, w)


def brute_force_matching(matrix) -> Matching:
    """Exhaustive assignment oracle: enumerates every injective assignment
    of the smaller side into the larger and keeps the maximum, breaking
    exact ties toward the lexicographically smallest edge list.

    Refuses matrices whose smaller dimension exceeds 8.
    """
    matrix = _coerce(matrix)
    w = matrix.weights
    nr, nc = w.shape
    if min(nr, nc) > _BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force limited to min dimension <= {_BRUTE_FORCE_LIMIT}, got {min(nr, nc)}"
        )
    best_edges = None
    best_total = -np.inf
    if nr <= nc:
        # rows 0..nr-1 in order: permutation order is already lexicographic
        for cols in itertools.permutations(range(nc), nr):
            total = math.fsum(w[i, cols[i]] for i in range(nr))
            if total > best_total:
                best_total = total
                best_edges = tuple(enumerate(cols))
    else:
        for rows in itertools.permutations(range(nr), nc):
            edges = tuple(sorted((rows[j], j) for j in range(nc)))
            total = math.fsum(w[r, c] for r, c in edges)
            if total > best_total or (total == best_total and edges < best_edges):
                best_total = total
                best_edges = edges
    return Matching.from_edges(best_edges, w)
