"""Maximum-weight bipartite matching with a brute-force permutation
oracle for verification.

Every matching goes through :func:`_matched_edges`, which takes a stack
of same-shape grids (one grid for :func:`max_weight_matching`) and picks
one of two paths by the number of injective assignments of the smaller
side into the larger, ``math.perm(max side, min side)``:

* at most ``_ENUMERATE_LIMIT`` = 120 (every shape up to 5x5, 4x5, 3x6, 2x11
  and 1x120, either way round): every assignment of every grid in the
  stack is scored with one numpy gather-and-sum, or, for a lone grid of at
  most ``_LONE_LIMIT`` = 56 assignments, in plain Python, to the same
  floats. The assignments come in the order of their edge lists, so each
  grid takes the first one within 1e-9 of its best total;
* more: shortest augmenting paths over dual potentials (the Hungarian
  method in the form of Jonker & Volgenant 1987 and Crouse 2016), in its
  transportation form: bit-for-bit equal rows are one row class whose
  supply is its row count, and each search settles a whole class at once,
  so it costs O(k n) for k distinct rows, and the at most n searches
  O(k n^2) (O(n^3) without repeats). A wide input is solved on its own
  rows and a tall one on its transpose, cold and unpadded (Crouse 2016).
  A square input starts warm: column reduction and a greedy match, found
  for all classes in one banded pass, then, when its rows are all
  distinct and there are at least ``_BID_FLOOR`` = 64 of them, a few
  rounds in which every free row bids for its best column at once (the
  Jacobi form of Bertsekas's auction), so that fewer rows reach the
  searches.

The rule counts assignments, not the smaller side: a 3x2000 input has
8e9 of them and goes to the solver.

Tie rule: among the tied assignments, the lexicographically smallest edge
list (sorted by row, then column) is returned, so results are
reproducible across runs and platforms. Enumeration ties every
assignment whose total is within 1e-9 of the best. The solver ties every
assignment inside its tight subgraph, the edges whose reduced cost under
its optimal duals is within 1e-9 of zero; an assignment's reduced costs
sum to its distance below the optimum. So, with n the larger side:

* an assignment within 1e-9 of the optimum total is tied on both paths;
* one more than n * 1e-9 below it is tied on neither;
* in between, the solver's answer depends on its duals (the warm start and
  its bids included), and the two paths may disagree.

Each augmenting path ends at the first free column among those at minimum
distance, and the tie-break is an iterative search, so tie-heavy input
(all-equal or small-integer weights) costs about what random input does.

A second optimum differs from the solver's along alternating cycles of the
tight subgraph, so a row on none of them keeps its column in every optimum.
On a square input whose rows are all distinct, rows that cannot lie on a
cycle are peeled away first, and the tie-break searches only the rest: on
random input no row is left, and the solver's matching is the answer. The
tie-break sees a rectangular input as squared by zero rows (zero columns of
a tall one), which hold the columns the real rows leave free and are tight
wherever v is 0; they, like repeated rows, make the tight subgraph dense,
so those inputs skip the peel and every real row is searched. Of those,
only the rows with a tight open column below their own run a search; the
rest are told apart by a few operations on Python integers used as bit sets.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

# slack below this counts as a tie when selecting among optimal assignments
_TIE_TOL = 1e-9

# enumerate every assignment when there are at most this many: a lone call
# takes 9-19 us up to 24, 13-25 us up to 56 and 20-101 us up to 120, 3-46x
# less than the solver's 86-2750 us; at 360 (4x6) and 720 (5x6, 6x6) the
# solver is 7-10% faster, and a higher bound would also move which path
# decides near-ties
_ENUMERATE_LIMIT = 120

# a lone grid of at most this many assignments is scored in plain Python
# instead of by the stack's numpy gather. Per call, Python against numpy
# (uniform grids, one CPU): 2-24 assignments (2x2 to 4x4) 0.31-0.88x; 30-56
# (1x30 to 1x56, 2x6 to 2x8, either way round) 0.55-0.93x; 60 (3x5 1.04x,
# 5x3 0.72x); 110-120 0.75-1.51x (5x5 40.4 against 26.7 us)
_LONE_LIMIT = 56

# at most this many rounds of bids follow the greedy warm start (see
# _warm_start). On match-grid's random 500x500 and 1000x1000, the free rows
# left for the searches and the in-process solve time against no rounds:
# none 112 + 225 rows; 8 rounds 48 + 97, 0.76-0.78; 16 rounds 30 + 61, 0.67;
# 32 rounds 20 + 42, 0.69; 64 and 128 rounds 0.66; bidding until no row
# can bid leaves 2 + 4 rows but takes 8.5x, as rows that value the same
# columns alike outbid each other by ever smaller steps
_BID_ROUNDS = 16

# the rounds run on grids of at least this many rows only. Solve time with
# them against without, on uniform and one-decimal square grids of distinct
# rows: sides 6-40 1.3-2.2x, 48 and 56 0.83-1.04x, 64 0.96-1.00x, 72-128
# 0.67-0.94x, 200-500 0.65-0.83x
_BID_FLOOR = 64

# brute_force_matching refuses matrices with more assignments than an 8x8
_BRUTE_FORCE_LIMIT = math.factorial(8)


def _weights(matrix) -> np.ndarray:
    """The weights of a :class:`ScoreMatrix`, or ``matrix`` as a 2-D float
    array checked as :class:`ScoreMatrix` requires, neither copied."""
    if isinstance(matrix, ScoreMatrix):
        return matrix.weights
    w = np.asarray(matrix, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
        raise ValueError(f"score matrix must be 2-D and non-empty, got shape {w.shape}")
    _check_weights(w)
    return w


def _check_weights(w: np.ndarray) -> None:
    """Reject weights outside [0, 100], non-finite ones first."""
    # NaN and +-inf fail the range test too, so finiteness is only read to
    # pick the message
    if not (w.min() >= 0.0 and w.max() <= 100.0):
        if not np.isfinite(w).all():
            raise ValueError("score matrix contains non-finite weights")
        raise ValueError("score matrix weights must lie in [0, 100]")


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Weights of the bipartite graph: outputs on rows, references on
    columns, entries in [0, 100]."""

    weights: np.ndarray

    def __post_init__(self):
        w = _weights(self.weights).copy()
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
        edge_weights = tuple(weights.item(r, c) for r, c in edges)
        # fsum: the total is independent of summation order, so permuting
        # rows/columns of the input permutes the matching without moving
        # the total by even one ulp
        return cls(edges=edges, edge_weights=edge_weights, total=math.fsum(edge_weights))


def _enumerable(nr: int, nc: int, limit: int = _ENUMERATE_LIMIT) -> bool:
    """Whether an nr x nc matrix has at most ``limit`` injective
    assignments."""
    n = max(nr, nc)
    # math.perm(n, k) >= n for k >= 1, so testing n first is exact and keeps
    # a large matrix from computing a huge count
    return n <= limit and math.perm(n, min(nr, nc)) <= limit


def _assignments(nr: int, nc: int) -> np.ndarray:
    """Every injective assignment of the smaller side into the larger:
    row a, slot s holds the larger side's index on slot s of the smaller
    side, rows in the order of their edge lists sorted by row, then
    column, so that the first of a set of tied assignments is the tie
    rule's answer."""
    k, m = min(nr, nc), max(nr, nc)
    count = math.perm(m, k)
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(m), k)), dtype=np.intp, count=count * k
    ).reshape(count, k)
    if nr <= nc:
        # row r's column is slot r: permutation order is edge-list order
        return perms
    # each assignment's column by row, nc for an unmatched row, compares as
    # its edge list does: at the first row where two differ, a matched row
    # comes first, and between two matched ones the smaller column
    col_of_row = np.full((count, nr), nc)
    col_of_row[np.arange(count)[:, None], perms] = np.arange(nc)
    return perms[np.lexsort(col_of_row.T[::-1])]


# rows are hashed, bid and tested for tight edges in bands of about this
# many cells, so that no temporary the size of the matrix is made
_BAND_CELLS = 1 << 16


def _row_bits(mask: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as a Python integer, bit j set when column j is."""
    m = (mask.shape[1] + 7) // 8
    data = np.packbits(mask, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(data[i:i + m], "little") for i in range(0, len(data), m)]


def _row_classes(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the bit-for-bit equal rows of ``w`` in first-seen order.

    Returns (class_of_row, reps): the class of each row, and the first row
    of each class, ascending. Each row is hashed to 64 bits and each row
    whose hash was seen before is checked cell by cell against the first
    row with that hash; a row that fails the check (a hash collision)
    becomes a class of its own. No copy of ``w`` is made.
    """
    nr, nc = w.shape
    bits = w.view(np.uint64)
    # splitmix64 of the column index: multipliers with no linear relation
    # between columns, so that rows holding the same values in other
    # places hash apart
    mix = np.arange(1, nc + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        mix ^= mix >> np.uint64(shift)
        mix *= np.uint64(factor)
    mix ^= mix >> np.uint64(31)
    step = max(1, _BAND_CELLS // nc)
    hashes = np.empty(nr, dtype=np.uint64)
    for lo in range(0, nr, step):
        # fold the high half of each cell into the low half, so that cells
        # differing only in sign, exponent or leading mantissa bits (small
        # integers, say) still differ in the low bits the product keeps
        folded = bits[lo:lo + step] >> np.uint64(32)
        folded ^= bits[lo:lo + step]
        np.matmul(folded, mix, out=hashes[lo:lo + step])
    _, first, inverse = np.unique(hashes, return_index=True, return_inverse=True)
    label = first[inverse]
    repeats = np.flatnonzero(label != np.arange(nr))
    for lo in range(0, repeats.size, step):
        rows = repeats[lo:lo + step]
        same = (bits[rows] == bits[label[rows]]).all(axis=1)
        label[rows[~same]] = rows[~same]
    reps, class_of_row = np.unique(label, return_inverse=True)
    return class_of_row, reps


def _reduced_minima(
    w: np.ndarray, rows: np.ndarray, neg_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each of ``rows``, the column of its smallest reduced cost
    ``-v - w[r]``, that cost and the second smallest (the smallest over the
    other columns). The reduced costs are built in bands of ``_BAND_CELLS``
    and overwritten in place."""
    f, n = len(rows), w.shape[1]
    j1 = np.empty(f, dtype=np.intp)
    u1 = np.empty(f)
    u2 = np.empty(f)
    step = max(1, _BAND_CELLS // n)
    for lo in range(0, f, step):
        band = w[rows[lo:lo + step]]
        np.subtract(neg_v, band, out=band)
        at = np.arange(len(band))
        best = band.argmin(axis=1)
        j1[lo:lo + step] = best
        u1[lo:lo + step] = band[at, best]
        band[at, best] = np.inf
        band.min(axis=1, out=u2[lo:lo + step])
    return j1, u1, u2


def _warm_start(
    w: np.ndarray, reps: np.ndarray, supply: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """A partial transportation and feasible duals, tight on every owned
    edge, for :func:`_solve_min_cost` to finish: (owner, u, v, have), with
    ``have`` the number of columns each class owns.

    Column reduction sets v to the column minimum of the costs ``-w``, and
    each class, in order, takes up to its supply of the free columns where
    its reduced cost is minimal (Jonker & Volgenant 1987): one banded pass
    finds those columns as :func:`_row_bits`, and the walk over the classes
    makes no numpy call. When every row is its own class and there are at
    least ``_BID_FLOOR``, up to ``_BID_ROUNDS`` rounds of bids follow, the
    Jacobi form of Bertsekas's auction, which does for all free rows at once
    what augmenting row reduction does row by row. In each round every free
    row finds its smallest reduced cost ``u1``, at column ``j1``, and its
    second smallest ``u2``; a row with ``u2 > u1`` bids, lowering ``v[j1]``
    so that its own reduced cost there becomes ``u2``. Each column goes to
    the bid that lowers ``v`` most (the lowest row on ties), whose ``u``
    becomes ``u2``; the column's previous owner is freed. Lowering ``v``
    keeps every ``u`` feasible, and only columns that change hands move, so
    owned edges stay tight. Rounds end early when no row can bid; then each
    free row's ``u`` is set to its smallest reduced cost.
    """
    k, n = len(reps), w.shape[1]
    u = np.empty(k)
    # -v: the column maximum of w, so that reduced costs are -v - w[r]
    neg_v = w.max(axis=0)
    v = -neg_v
    # each class's smallest reduced cost, and the columns that reach it
    ties = []
    step = max(1, _BAND_CELLS // n)
    for lo in range(0, k, step):
        band = w[reps[lo:lo + step]]
        np.subtract(neg_v, band, out=band)
        band.min(axis=1, out=u[lo:lo + step])
        ties += _row_bits(band == u[lo:lo + step, None])
    free = (1 << n) - 1
    cols, classes = [], []
    for b, (s, hit) in enumerate(zip(supply, ties)):
        hit &= free
        while hit and s:
            low = hit & -hit
            hit ^= low
            free ^= low
            s -= 1
            cols.append(low.bit_length() - 1)
            classes.append(b)
    owner = np.full(n, -1, dtype=np.intp)
    owner[cols] = classes
    have = np.bincount(classes, minlength=k)
    if k == n >= _BID_FLOOR:
        unmatched = np.flatnonzero(have == 0)
        for round_ in range(_BID_ROUNDS + 1):
            if not unmatched.size:
                break
            j1, u1, u2 = _reduced_minima(w, reps[unmatched], -v)
            bid = u2 > u1
            # a pass after the last round only reads the minima
            if round_ == _BID_ROUNDS or not bid.any():
                u[unmatched] = u1
                break
            bidders, cols, u2 = unmatched[bid], j1[bid], u2[bid]
            # the v each bid sets: the bidder's cost at j1 less u2
            price = -w[reps[bidders], cols]
            price -= u2
            # per column, the lowest v first, then the lowest row
            order = np.lexsort((bidders, price, cols))
            first = np.ones(order.size, dtype=bool)
            np.not_equal(cols[order[1:]], cols[order[:-1]], out=first[1:])
            won = order[first]
            cols, winners = cols[won], bidders[won]
            lost = owner[cols]
            have[lost[lost >= 0]] = 0
            owner[cols] = winners
            have[winners] = 1
            v[cols] = price[won]
            u[winners] = u2[won]
            unmatched = np.flatnonzero(have == 0)
    return owner, u, v, have.tolist()


def _solve_min_cost(
    w: np.ndarray, reps: np.ndarray, supply: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min-cost transportation from row classes to unit-capacity columns
    via shortest augmenting paths, with costs ``-w``.

    Class ``b`` is ``supply[b]`` equal rows, all copies of row
    ``w[reps[b]]``; the supplies sum to at most the number of columns.
    Returns (owner, u, v) where owner[j] is the class matched to column j
    (-1 for a free one), each class owning ``supply[b]`` columns, and u
    (per class), v (per column) are feasible dual potentials with u[b] +
    v[j] <= -w[reps[b], j], tight on matched edges. A class of one row is a
    row of the assignment problem, so an input without repeated rows is
    solved exactly as the row-by-row Hungarian method would.

    A square input starts warm, from :func:`_warm_start`'s partial matching
    and duals, so only the rows it leaves free are searched for. A wide one
    starts cold, at zero duals: a rectangular optimum needs v <= 0, with
    v == 0 on every free column, which column reduction would break; a
    cold solve lowers only the v of the columns it settles, all owned.

    Each search sends one unit from a class with unmet supply to a free
    column. The start class's own columns are settled at distance 0; when
    a column owned by class ``b`` is reached, all of ``b``'s columns are
    settled at that distance and ``b`` is relaxed once, so a search takes
    at most (number of classes + 1) steps and O(k n) work for k classes.
    Distances are kept relative to the search's start, and the duals move
    once, when a free column is reached (Crouse 2016). No predecessor is
    kept per column: the path is rebuilt once the search ends, from the
    class and offset of each step.
    """
    k, n = len(reps), w.shape[1]
    rows = [w[r] for r in reps.tolist()]
    if w.shape[0] == n:
        owner, u, v, have = _warm_start(w, reps, supply)
    else:
        u = np.zeros(k)
        v = np.zeros(n)
        owner = np.full(n, -1, dtype=np.intp)
        have = [0] * k  # columns each class owns

    dist = np.empty(n)
    neg_v_open = np.empty(n)
    slack = np.empty(n)
    via = np.empty(k, dtype=np.intp)  # via[b]: the column b was reached through
    relaxed = np.empty(k, dtype=np.intp)  # relaxed[b]: steps made before b was reached
    for start in range(k):
        for _ in range(supply[start] - have[start]):
            dist.fill(np.inf)
            # -v with settled columns at +inf, so that they never relax again
            np.negative(v, out=neg_v_open)
            free_cols = None  # built on the first tie check of this search
            # settled columns of one-column classes, and (class, columns,
            # distance) for classes settled with all their columns at once
            settled, settled_dist, groups = [], [], []
            if have[start]:
                mine = owner == start
                neg_v_open[mine] = np.inf
                groups.append((start, mine, 0.0))
            b, base = start, 0.0
            # the class relaxed at each step, and the offset it added
            steps, offsets = [], []
            while True:
                # scalars are read with .item(): a Python float or int, no
                # numpy scalar built on each of the search's steps
                np.subtract(neg_v_open, rows[b], out=slack)
                offset = base - u.item(b)
                slack += offset
                steps.append(b)
                offsets.append(offset)
                np.minimum(dist, slack, out=dist)
                j = int(dist.argmin())
                base = dist.item(j)
                b = owner.item(j)
                if b >= 0:
                    # any column at the minimum is a valid Dijkstra step; ending
                    # at a free one keeps tie-heavy solves to O(n) steps instead
                    # of walking every tied assigned column first (Crouse 2016);
                    # free columns are never settled, since reaching one ends
                    # the search, so dist holds their distances
                    if free_cols is None:
                        free_cols = np.flatnonzero(owner < 0)
                    f = free_cols.item(dist[free_cols].argmin())
                    if dist.item(f) == base:
                        j, b = f, -1
                if b < 0:
                    break
                via[b] = j
                relaxed[b] = len(steps)
                if have[b] == 1:
                    settled.append(j)
                    settled_dist.append(base)
                    dist[j] = np.inf
                    neg_v_open[j] = np.inf
                else:
                    theirs = owner == b
                    dist[theirs] = np.inf
                    neg_v_open[theirs] = np.inf
                    groups.append((b, theirs, base))
            # the alternating path, from the free column back to the start:
            # a column's predecessor is the class of the first step that gave
            # it its final distance, so its slack at every step before it was
            # settled is recomputed, from the same floats in the same order
            # as the search's, and the first minimum taken. Cheaper than
            # recording the predecessor of every column at every step. A
            # column settled after one step was reached from the start
            path, t = [], len(steps)
            if t > 1:
                step_rows = reps[steps]
                offsets = np.array(offsets)
            while True:
                if t == 1:
                    b = start
                else:
                    slacks = -v.item(j) - w[step_rows[:t], j]
                    slacks += offsets[:t]
                    b = steps[int(slacks.argmin())]
                path.append((j, b))
                if b == start:
                    break
                j = via.item(b)
                t = relaxed.item(b)
            # dual update for the whole search: every settled column and its
            # class move by how much closer than the free column they were
            if not have[start]:
                u[start] += base
            if settled:
                cols = np.array(settled)
                shift = base - np.array(settled_dist)
                u[owner[cols]] += shift
                v[cols] -= shift
            for c, cols, d in groups:
                u[c] += base - d
                v[cols] -= base - d
            # augment: each class on the path takes the column after it and
            # gives up the one it was reached through
            for j, b in path:
                owner[j] = b
            have[start] += 1
    return owner, u, v


def _cycle_rows(tight: np.ndarray, row_of_col: np.ndarray) -> np.ndarray:
    """The rows of a perfect matching inside a square tight subgraph that
    may move to another perfect matching, ascending; every other row keeps
    its column in all of them.

    Two perfect matchings differ along alternating cycles. With each
    matched (row, column) pair contracted into one node and an edge
    r -> r' when row r is tight on the column r' holds, those are the
    directed cycles, so a row on none of them keeps its column. Nodes with
    no out-edge or no in-edge lie on no cycle: they are peeled away, round
    after round, and the rows that survive are returned.
    """
    n = tight.shape[0]
    # the matched edges are cleared while peeling, so that any() reads
    # whether a node has an edge to or from another node
    matched = (row_of_col, np.arange(n))
    tight[matched] = False
    alive = tight.any(axis=1)
    alive[row_of_col] &= tight.any(axis=0)
    rows = np.flatnonzero(alive)
    if 0 < rows.size < n:  # with no node peeled, every node has both edges
        # later rounds read the edges among surviving nodes; flatnonzero
        # and divmod take a tenth of the time of a 2-D nonzero
        src, cols = divmod(np.flatnonzero(tight[rows]), n)
        src, dst = rows[src], row_of_col[cols]
        keep = alive[dst]
        src, dst = src[keep], dst[keep]
        while True:
            live = np.bincount(src, minlength=n) > 0
            live &= np.bincount(dst, minlength=n) > 0
            survivors = np.flatnonzero(live)
            if survivors.size == rows.size:
                break
            rows = survivors
            keep = live[src]
            keep &= live[dst]
            src, dst = src[keep], dst[keep]
    tight[matched] = True
    return rows


def _lex_min_tight_matching(
    tight: np.ndarray,
    row_of_col: np.ndarray,
    n_real_rows: int,
    rows: np.ndarray,
) -> np.ndarray:
    """Lexicographically smallest perfect matching inside the tight
    subgraph, starting from a known perfect matching.

    Rows are fixed in ascending order; each real row prefers real columns in
    ascending order, then zero columns. Rows from ``n_real_rows`` on are
    zero rows, all alike: row ``n_real_rows`` of ``tight`` stands for every
    one of them. Row ``r`` on column ``c0`` can take a tight open column
    ``c`` iff the owner of ``c`` has an alternating path to ``c0`` through
    open columns. One backwards breadth-first search from ``c0`` finds every
    such ``c`` at once, so each row costs O(n^2) vectorised work and no
    recursion.

    ``rows`` are the real rows that may move, ascending (all of them, or
    those :func:`_cycle_rows` returns); every other real row keeps its
    column, which is fixed before the first search. Each row is tested for
    a candidate on :func:`_row_bits`, so only rows with one make numpy
    calls.
    """
    n = tight.shape[1]
    col_of_row = np.empty(n, dtype=np.intp)
    col_of_row[row_of_col] = np.arange(n)
    fixed_cols = np.zeros(n, dtype=bool)
    fixed_cols[col_of_row[:n_real_rows]] = True
    fixed_cols[col_of_row[rows]] = False
    # next_col[c]: the column the owner of c moves to when c is taken
    next_col = np.empty(n, dtype=np.intp)
    [open_bits] = _row_bits(~fixed_cols[None])
    for row, tight_bits in zip(rows.tolist(), _row_bits(tight[rows])):
        # keeping the current column is always feasible, so only tight open
        # columns strictly below it are candidates (ascending index order is
        # the preference order: real columns come before padded ones)
        current = col_of_row.item(row)
        if tight_bits & open_bits & ((1 << current) - 1):
            candidates = np.flatnonzero(tight[row, :current] & ~fixed_cols[:current])
            reached = fixed_cols.copy()
            reached[current] = True
            frontier = np.array([current])
            while frontier.size and not reached[candidates[0]]:
                open_cols = np.flatnonzero(~reached)
                hits = tight[np.minimum(row_of_col[open_cols], n_real_rows)][:, frontier]
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
                current = col_of_row.item(row)
        fixed_cols[current] = True
        open_bits ^= 1 << current
    return col_of_row


def _solved_edges(w: np.ndarray) -> list[tuple[int, int]]:
    """Best assignment by the augmenting-path solver over the classes of
    equal rows, and the tie-break inside its tight subgraph."""
    nr, nc = w.shape
    k, n = min(nr, nc), max(nr, nc)
    # maximize by minimizing the negated weights; a tall input is solved on
    # its transpose, made contiguous so that its rows are read at unit stride
    ws = np.ascontiguousarray(w.T) if nr > nc else w
    class_of_row, reps = _row_classes(ws)
    supply = np.bincount(class_of_row).tolist()
    owner, u, v = _solve_min_cost(ws, reps, supply)
    # the n - k free columns (owner -1, so sorted first) go to zero rows k..
    # and a class's columns to its rows, both in ascending order; any order
    # would do, since equal rows have equal tight rows
    row_of_col = np.empty(n, dtype=np.intp)
    row_of_col[np.argsort(owner, kind="stable")] = np.r_[k:n, np.argsort(class_of_row, kind="stable")]

    # optimal assignments live inside the tight subgraph (complementary
    # slackness); matched edges are included regardless of rounding. Each
    # class's first row is tested, in bands of classes, so that no n x n
    # float temporary is made; then the other rows of a repeated class copy
    # its first
    neg_v = -v
    tight = np.empty((k + (k < n), n), dtype=bool)
    step = max(1, _BAND_CELLS // n)
    for lo in range(0, len(reps), step):
        band = ws[reps[lo:lo + step]]
        band += u[lo:lo + step, None]
        np.subtract(neg_v, band, out=band)
        tight[reps[lo:lo + step]] = band <= _TIE_TOL
    for b in np.flatnonzero(np.array(supply) > 1).tolist():
        r = reps[b]
        tight[r, owner == b] = True
        tight[:k][class_of_row == b] = tight[r]
    # row k, when there are zero rows, stands for all of them: their u and
    # weights are 0, and the free columns they hold have v == 0
    tight[k:] = neg_v <= _TIE_TOL
    tight[np.minimum(row_of_col, k), np.arange(n)] = True
    if nr > nc:
        # back to the tall input: its rows are the transpose's columns, and
        # the transpose's zero rows its n - k zero columns
        tight = np.hstack((tight[:k].T, np.broadcast_to(tight[k:].T, (n, n - k))))
        row_of_col = np.argsort(row_of_col)

    # only rows on an alternating cycle can move, and on a square input of
    # distinct rows there are usually few (on random input, none). With
    # zero or repeated rows, one class is tight on all its columns, and the
    # peel would visit every one of those edges
    rows = _cycle_rows(tight, row_of_col) if nr == nc == len(reps) else np.arange(nr)
    col_of_row = _lex_min_tight_matching(tight, row_of_col, nr, rows)
    return [(r, int(col_of_row[r])) for r in range(nr) if col_of_row[r] < nc]


def _enumerated(grids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score every assignment of each of a stack of enumerable grids: the
    assignments (:func:`_assignments`), the index of each grid's first
    assignment within ``_TIE_TOL`` of its best total, and the weights,
    ``weights[g, a, s]`` being what assignment a takes from grid g on slot
    s of the smaller side."""
    nr, nc = grids.shape[1:]
    perms = _assignments(nr, nc)
    slots = np.arange(min(nr, nc))
    weights = grids[:, slots, perms] if nr <= nc else grids[:, perms, slots]
    totals = weights.sum(axis=2)
    tied = totals >= totals.max(axis=1, keepdims=True) - _TIE_TOL
    return perms, tied.argmax(axis=1), weights


def _matched_edges(grids: np.ndarray) -> list[list[tuple[int, int]]]:
    """The maximum-weight assignment of each of a stack of same-shape
    grids, as its edges sorted by row; ties resolve as the module docstring
    states.

    Grids with at most ``_ENUMERATE_LIMIT`` assignments are scored together
    with one gather over :func:`_assignments` (a lone grid of at most
    ``_LONE_LIMIT`` in plain Python), and each takes the first assignment
    within ``_TIE_TOL`` of its best total; larger grids are solved one at a
    time.
    """
    _check_weights(grids)
    return _best_edges(grids)


def _best_edges(grids: np.ndarray) -> list[list[tuple[int, int]]]:
    """:func:`_matched_edges` on weights already checked."""
    g, nr, nc = grids.shape
    if not _enumerable(nr, nc):
        return [_solved_edges(w) for w in grids]
    if g == 1 and _enumerable(nr, nc, _LONE_LIMIT):
        # a lone grid in plain Python, which skips the stack's numpy calls:
        # totals add each slot's weight in turn, left to right as numpy
        # does, from 0.0, which adds exactly
        lines = grids[0].tolist() if nr <= nc else grids[0].T.tolist()
        perms = list(itertools.permutations(range(max(nr, nc)), min(nr, nc)))
        totals = itertools.repeat(0.0)
        for line, cols in zip(lines, zip(*perms)):
            totals = map(operator.add, totals, map(line.__getitem__, cols))
        totals = list(totals)
        tied = itertools.compress(perms, map((max(totals) - _TIE_TOL).__le__, totals))
        if nr <= nc:
            return [list(enumerate(next(tied)))]
        return [min(sorted(zip(a, range(nc))) for a in tied)]
    perms, first, _ = _enumerated(grids)
    first = perms[first].tolist()
    if nr <= nc:
        return [list(enumerate(a)) for a in first]
    return [sorted(zip(a, range(nc))) for a in first]


def max_weight_matching(matrix) -> Matching:
    """Maximum-weight one-to-one assignment of rows to columns.

    The matching has size min(n_rows, n_cols). Matrices with at most
    ``_ENUMERATE_LIMIT`` injective assignments are solved by enumerating
    them, larger ones by the augmenting-path solver; ties resolve to the
    lexicographically smallest edge list as the module docstring states.

    :param matrix: a :class:`ScoreMatrix` or anything convertible to one.
    :return: the optimal :class:`Matching`.
    """
    w = _weights(matrix)
    [edges] = _best_edges(w[None])
    return Matching.from_edges(edges, w)


def _matched_totals(grids: np.ndarray) -> list[float]:
    """The :attr:`Matching.total` of each of :func:`_matched_edges`' matchings:
    ``math.fsum`` of its edge weights, in any order. An enumerable stack's
    weights come from the gather that chose its assignments, with no edge
    lists built."""
    _check_weights(grids)
    g, nr, nc = grids.shape
    if _enumerable(nr, nc):
        _, first, weights = _enumerated(grids)
        chosen = weights[np.arange(g), first]
    else:
        edges = np.array([_solved_edges(w) for w in grids]).reshape(g, -1, 2)
        chosen = grids[np.arange(g)[:, None], edges[:, :, 0], edges[:, :, 1]]
    return [math.fsum(row) for row in chosen.tolist()]


def brute_force_matching(matrix) -> Matching:
    """Exhaustive assignment oracle: enumerates every injective assignment
    of the smaller side into the larger and keeps the maximum, breaking
    exact ties toward the lexicographically smallest edge list.

    Refuses matrices with more assignments than an 8x8 has (8! = 40,320):
    ``math.perm(max side, min side)`` bounds its work.
    """
    w = _weights(matrix)
    nr, nc = w.shape
    if not _enumerable(nr, nc, _BRUTE_FORCE_LIMIT):
        n, k = max(nr, nc), min(nr, nc)
        # log10 of math.perm(n, k), a count that may be too large to print
        digits = (math.lgamma(n + 1) - math.lgamma(n - k + 1)) / math.log(10)
        count = f"{math.perm(n, k):,}" if digits < 15 else f"about 1e{digits:.0f}"
        raise ValueError(
            f"brute force limited to {_BRUTE_FORCE_LIMIT:,} assignments, got {count} ({nr}x{nc})"
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
