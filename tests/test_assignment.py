"""The matcher (enumeration and augmenting-path solver) vs the brute-force
oracle, each other, scipy and recorded edges."""

import hashlib
import json
import math
import os
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from oracles import oracle_greedy_start, oracle_lex_min_assignment

from multiscore import assignment
from multiscore.assignment import (
    ScoreMatrix,
    _assignments,
    _check_weights,
    _cycle_rows,
    _enumerable,
    _lex_min_tight_matching,
    _matched_edges,
    _matched_totals,
    _row_classes,
    _solve_min_cost,
    _solved_edges,
    _warm_start,
    brute_force_matching,
    max_weight_matching,
)


def scipy_total(w):
    nr, nc = w.shape
    n = max(nr, nc)
    padded = np.zeros((n, n))
    padded[:nr, :nc] = w
    rows, cols = linear_sum_assignment(padded, maximize=True)
    return sum(w[r, c] for r, c in zip(rows, cols) if r < nr and c < nc)


class TestScoreMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ScoreMatrix(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            ScoreMatrix(np.array([[np.inf]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ScoreMatrix(np.array([[-0.5]]))
        with pytest.raises(ValueError):
            ScoreMatrix(np.array([[100.5]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ScoreMatrix(np.zeros((0, 3)))

    def test_immutable(self):
        m = ScoreMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.weights[0, 0] = 5.0


@pytest.mark.parametrize("w", [[[np.nan, -1.0]], [[-np.inf]], [[np.inf, 101.0]]], ids=["nan", "-inf", "inf"])
def test_non_finite_weights_are_named_before_the_range(w):
    # each of these is out of range too: the message names the worse fault
    with pytest.raises(ValueError, match="non-finite"):
        _check_weights(np.array(w))


@pytest.mark.parametrize("w", [[[-0.5]], [[100.5]]])
def test_out_of_range_weights_name_the_range(w):
    with pytest.raises(ValueError, match=r"\[0, 100\]"):
        _check_weights(np.array(w))


def test_batched_matching_names_a_non_finite_grid():
    grids = np.full((2, 3, 3), 50.0)
    grids[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        _matched_edges(grids)


@pytest.mark.parametrize("side", [3, 6], ids=["enumerated", "solved"])
@pytest.mark.parametrize("bad, message", [(np.nan, "non-finite"), (100.5, r"\[0, 100\]")], ids=["nan", "range"])
def test_batched_totals_check_the_weights_first(side, bad, message):
    grids = np.full((2, side, side), 50.0)
    grids[1, side - 1, 0] = bad
    with pytest.raises(ValueError, match=message):
        _matched_totals(grids)


@pytest.mark.parametrize("side", [3, 40], ids=["enumerated", "solved"])
def test_matching_reads_views_and_other_dtypes_as_a_copy(side):
    # max_weight_matching checks an array in place, without the copy a
    # ScoreMatrix makes, so strided, read-only, broadcast and integer input
    # must read as the same weights would and be left as they were
    rng = np.random.default_rng(side)
    base = rng.integers(0, 3, (2 * side, 2 * side)).astype(float)
    before = base.copy()
    views = [base[::2, 1::2], base.T[:side, :side], np.broadcast_to(base[0], (side, 2 * side)),
             base[:side, :side].astype(np.int32)]
    views[0].flags.writeable = False
    for view in views:
        assert max_weight_matching(view) == max_weight_matching(ScoreMatrix(view))
    assert np.array_equal(base, before)


class TestMaxWeightMatching:
    def test_diagonal_dominance(self):
        m = max_weight_matching(np.eye(3))
        assert m.edges == ((0, 0), (1, 1), (2, 2))
        assert m.total == 3.0

    def test_worked_three_by_three(self):
        # optimum pairs row 0 with col 1 (56), row 1 with col 2 (50) and
        # row 2 with col 0 (58); all other entries kept below 40
        w = [[40, 56, 30], [35, 25, 50], [58, 22, 38]]
        m = max_weight_matching(w)
        assert m.edges == ((0, 1), (1, 2), (2, 0))
        assert m.edge_weights == (56.0, 50.0, 58.0)
        assert m.total == 164.0
        assert brute_force_matching(w).edges == m.edges

    def test_rectangular_two_by_three(self):
        w = np.random.default_rng(3).uniform(0, 100, (2, 3))
        m = max_weight_matching(w)
        b = brute_force_matching(w)
        assert len(m.edges) == 2
        assert m.edges == b.edges and m.total == b.total

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            max_weight_matching([[np.nan]])

    def test_matching_totals_consistent(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            w = rng.uniform(0, 100, (int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            m = max_weight_matching(w)
            assert abs(m.total - sum(m.edge_weights)) < 1e-9
            assert len(m.edges) == min(w.shape)
            rows = [r for r, _ in m.edges]
            cols = [c for _, c in m.edges]
            assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)


class TestOracleEquivalence:
    def test_random_matrices_match_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(400):
            nr, nc = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            w = rng.uniform(0, 100, (nr, nc))
            m = max_weight_matching(w)
            b = brute_force_matching(w)
            assert m.total == b.total
            assert m.edges == b.edges

    def test_random_matrices_match_scipy(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            nr, nc = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            w = rng.uniform(0, 100, (nr, nc))
            assert max_weight_matching(w).total == pytest.approx(scipy_total(w), abs=1e-9)

    def test_integer_matrices_with_ties(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            nr, nc = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            w = rng.integers(0, 5, (nr, nc)).astype(float)  # plenty of exact ties
            m = max_weight_matching(w)
            b = brute_force_matching(w)
            assert m.total == b.total
            assert m.edges == b.edges


class TestTieBreaking:
    def test_two_equal_optima_pick_lexicographic(self):
        # swapping within each block changes nothing: four optimal
        # assignments; lexicographically smallest is the diagonal
        w = np.array([[10, 10, 0, 0], [10, 10, 0, 0], [0, 0, 5, 5], [0, 0, 5, 5]], float)
        m = max_weight_matching(w)
        assert m.edges == ((0, 0), (1, 1), (2, 2), (3, 3))
        assert brute_force_matching(w).edges == m.edges

    def test_all_equal_matrix(self):
        m = max_weight_matching(np.full((5, 5), 3.0))
        assert m.edges == tuple((i, i) for i in range(5))

    def test_rectangular_tie_prefers_earlier_rows(self):
        # both rows of each value tie; rows 0 and 1 must win the two columns
        w = np.array([[7.0, 7.0], [7.0, 7.0], [7.0, 7.0]])
        m = max_weight_matching(w)
        b = brute_force_matching(w)
        assert m.edges == ((0, 0), (1, 1))
        assert b.edges == m.edges

    def test_single_cell(self):
        m = brute_force_matching([[7.0]])
        assert m.edges == ((0, 0),)
        assert m.total == 7.0


class TestBruteForceGuard:
    def test_refuses_large_min_dimension(self):
        with pytest.raises(ValueError):
            brute_force_matching(np.zeros((9, 9)))

    def test_allows_min_dimension_eight(self):
        m = brute_force_matching(np.zeros((8, 8)))
        assert len(m.edges) == 8

    @pytest.mark.parametrize("shape", [(8, 30), (30, 8)])
    def test_refuses_a_small_side_with_too_many_assignments(self, shape):
        # math.perm(30, 8) = 2.4e11 assignments: refused before the first
        start = time.perf_counter()
        with pytest.raises(ValueError, match="%dx%d" % shape) as refused:
            brute_force_matching(np.zeros(shape))
        assert time.perf_counter() - start < 1.0
        assert "235,989,936,000" in str(refused.value)


class TestProperties:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            w = rng.uniform(0, 100, (n, n))
            base = max_weight_matching(w)
            perm = rng.permutation(n)
            permuted = max_weight_matching(w[perm, :])
            # row i of the permuted matrix is row perm[i] of the original
            remapped = sorted((int(perm[r]), c) for r, c in permuted.edges)
            assert tuple(remapped) == base.edges
            assert permuted.total == base.total

    def test_scale_covariance(self):
        rng = np.random.default_rng(56)
        for _ in range(50):
            w = rng.uniform(0, 1, (4, 4))
            c = float(rng.uniform(0.1, 100.0))
            base = max_weight_matching(w)
            scaled = max_weight_matching(w * c)
            assert scaled.edges == base.edges
            assert scaled.total == pytest.approx(base.total * c, rel=1e-12)

    def test_total_bounded_by_row_maxima(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            w = rng.uniform(0, 100, (5, 5))
            assert max_weight_matching(w).total <= w.max(axis=1).sum() + 1e-9


def test_large_matrix_within_time_budget():
    import time

    w = np.random.default_rng(9).uniform(0, 100, (500, 500))
    start = time.perf_counter()
    m = max_weight_matching(w)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert m.total == pytest.approx(scipy_total(w), abs=1e-6)


@pytest.mark.parametrize(
    "w",
    [np.full((600, 600), 50.0), np.random.default_rng(10).integers(0, 3, (600, 600)).astype(float)],
    ids=["all-equal", "integers-0-2"],
)
def test_tie_heavy_matrix_within_time_budget(w):
    # the same budget as the random case: ties must not cost more
    start = time.perf_counter()
    m = max_weight_matching(w)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert m.total == scipy_total(w)


def test_lex_min_tie_break_on_long_alternating_path():
    # row i is tight on columns i and i+1 (mod n) and starts on i+1: taking
    # column 0 for row 0 re-routes every other row along one n-long path
    n = 2000
    rows = np.arange(n)
    tight = np.zeros((n, n), dtype=bool)
    tight[rows, rows] = True
    tight[rows, (rows + 1) % n] = True
    row_of_col = np.empty(n, dtype=np.intp)
    row_of_col[(rows + 1) % n] = rows
    col_of_row = _lex_min_tight_matching(tight, row_of_col, n, np.arange(n))
    assert np.array_equal(col_of_row, rows)


def test_acyclic_tight_chain_comes_back_unchanged():
    # row i holds column i and is tight on column i-1 as well: each row
    # points at the one below it, no row lies on a cycle, so the peel
    # leaves none to search and the matching is returned as it is
    n = 500
    rows = np.arange(n)
    tight = np.zeros((n, n), dtype=bool)
    tight[rows, rows] = True
    tight[rows[1:], rows[:-1]] = True
    before = tight.copy()
    survivors = _cycle_rows(tight, rows.copy())
    assert survivors.size == 0
    assert np.array_equal(tight, before)
    assert np.array_equal(_lex_min_tight_matching(tight, rows.copy(), n, survivors), rows)


def test_cycle_at_the_end_of_a_dag_still_moves_its_rows():
    # rows 0-496 hold their own columns and are tight on random lower
    # ones (a DAG); rows 497-499 hold columns 499, 497 and 498 and form a
    # 3-cycle, whose rotation gives each its own column
    n = 500
    rng = np.random.default_rng(5)
    col_of_row = np.arange(n)
    col_of_row[-3:] = [n - 1, n - 3, n - 2]
    tight = np.zeros((n, n), dtype=bool)
    tight[np.arange(n), col_of_row] = True
    for row in range(1, n):
        tight[row, col_of_row[rng.choice(row, size=min(row, 3), replace=False)]] = True
    tight[n - 3, n - 3] = tight[n - 2, n - 2] = tight[n - 1, n - 1] = True
    row_of_col = np.empty(n, dtype=np.intp)
    row_of_col[col_of_row] = np.arange(n)
    survivors = _cycle_rows(tight, row_of_col.copy())
    assert survivors.tolist() == [n - 3, n - 2, n - 1]
    peeled = _lex_min_tight_matching(tight, row_of_col.copy(), n, survivors)
    assert np.array_equal(peeled, np.arange(n))
    assert np.array_equal(peeled, _lex_min_tight_matching(tight, row_of_col.copy(), n, np.arange(n)))


def _distinct_row_squares():
    def square(n):
        row = st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=n, max_size=n).map(tuple)
        return st.lists(row, min_size=n, max_size=n, unique=True).map(np.array)

    return st.integers(6, 12).flatmap(square)


@settings(deadline=None, max_examples=150)
@given(_distinct_row_squares())
# match-grid's int300 and int600 at a size the oracle can check: dense ties,
# every row on a cycle, and moves whose searches run several levels deep
@example(np.random.default_rng(600).integers(0, 3, (60, 60)).astype(float))
def test_peeled_tie_break_matches_the_oracle(w):
    # square, every row its own class, above the enumeration bound: the
    # tie-break searches only the rows on an alternating cycle
    assert len(_row_classes(w)[1]) == w.shape[0]
    assert list(max_weight_matching(w).edges) == oracle_lex_min_assignment(w)


_ENUMERATED_SHAPES = [(nr, nc) for nr in range(1, 121) for nc in range(1, 121) if _enumerable(nr, nc)]

# the enumerated shapes with a side over 5, 1x6..1x120, 2x6..2x11 and 3x6
# either way round: the tall ones are enumerated in an order other than
# permutation order
_THIN_SHAPES = [shape for shape in _ENUMERATED_SHAPES if max(shape) > 5]


def _sides(max_side):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side))


def _tie_heavy(shapes):
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0, 2.0])))


def test_assignments_come_in_edge_list_order():
    # the first tied assignment is the lexicographically smallest edge list
    # only if every shape's assignments are sorted by their edge lists
    assert len(_ENUMERATED_SHAPES) == 269
    for nr, nc in _ENUMERATED_SHAPES:
        perms = _assignments(nr, nc)
        assert perms.shape == (math.perm(max(nr, nc), min(nr, nc)), min(nr, nc))
        if nr <= nc:
            lists = [list(enumerate(a)) for a in perms.tolist()]
        else:
            lists = [sorted(zip(a, range(nc))) for a in perms.tolist()]
        assert all(a < b for a, b in zip(lists, lists[1:])), (nr, nc)


@settings(deadline=None, max_examples=200)
@given(_tie_heavy(st.one_of(_sides(7), st.sampled_from(_THIN_SHAPES))))
# an 11x2 tied between rows (1, 10) and rows (10, 0) on columns (0, 1): the
# first in permutation order is not the lexicographically smallest edge list
@example(np.array([[0.0, 1.0], [1.0, 0.0]] + [[0.0, 0.0]] * 8 + [[2.0, 2.0]]))
# the same for a lone 3x2, scored in Python: rows (1, 2) on columns (0, 1)
# come first in permutation order, rows (0, 2) on columns (1, 0) win
@example(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]]))
def test_tie_heavy_edges_match_brute_force(w):
    assert max_weight_matching(w).edges == brute_force_matching(w).edges


@settings(deadline=None)
@given(_tie_heavy(_sides(40)))
def test_tie_heavy_totals_match_scipy(w):
    assert max_weight_matching(w).total == scipy_total(w)


def _seeded_matrix(kind, shape, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(0, 100, shape)
    if kind == "integers-0-2":
        return rng.integers(0, 3, shape).astype(float)
    if kind == "all-equal":
        return np.full(shape, 50.0)
    if kind == "one-decimal":
        return rng.integers(0, 1001, shape) / 10
    if kind == "repeated-rows":
        # an n-best grid: a few distinct rows, each repeated
        distinct = rng.uniform(0, 100, (int(rng.integers(1, 9)), shape[1]))
        return distinct[rng.integers(0, len(distinct), shape[0])]
    # a scaled permutation matrix: the greedy start matches every row
    w = np.zeros(shape)
    k = min(shape)
    w[rng.permutation(shape[0])[:k], rng.permutation(shape[1])[:k]] = 100.0
    return w


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(["uniform", "integers-0-2", "all-equal", "permutation", "repeated-rows"]),
    st.tuples(st.integers(1, 30), st.integers(1, 30)),
    st.integers(0, 2**32 - 1),
)
@example("all-equal", (12, 12), 0)
@example("permutation", (12, 12), 0)
@example("uniform", (10, 30), 0)
@example("repeated-rows", (30, 30), 0)
@example("uniform", (200, 200), 0)
def test_solver_duals_certify_optimality(kind, shape, seed):
    # the returned duals must prove the transportation optimal: feasible,
    # tight on every matched edge, and summing to the matching's cost. The
    # solver gets what _solved_edges gives it: a square or wide grid as it
    # is, a tall one transposed. A wide grid is solved cold, and the duals
    # of a rectangular optimum must also have v <= 0 (else their sum need
    # not bound every assignment's cost from below) and v == 0 exactly on
    # every free column, which a cold solve never moves
    w = _seeded_matrix(kind, shape, seed)
    if shape[0] > shape[1]:
        w = np.ascontiguousarray(w.T)
    n = w.shape[1]
    class_of_row, reps = _row_classes(w)
    supply = np.bincount(class_of_row)
    owner, u, v = _solve_min_cost(w, reps, supply.tolist())
    cols = np.flatnonzero(owner >= 0)
    assert np.array_equal(np.bincount(owner[cols], minlength=len(reps)), supply)
    cost = -w[reps]
    assert (cost - u[:, None] - v[None, :]).min() >= -1e-9
    matched = cost[owner[cols], cols]
    assert np.abs(matched - u[owner[cols]] - v[cols]).max() <= 1e-9
    assert abs(supply @ u + v.sum() - matched.sum()) <= n * 1e-9
    if w.shape[0] < n:
        assert v.max() <= 0.0
        assert (v[owner < 0] == 0.0).all()


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(["uniform", "integers-0-2", "one-decimal", "all-equal", "repeated-rows"]),
    st.tuples(st.integers(1, 90), st.integers(1, 90)),
    st.integers(0, 2**32 - 1),
)
# match-grid's int300: each row ties on about 100 columns
@example("integers-0-2", (300, 300), 0)
@example("repeated-rows", (200, 200), 0)
@example("all-equal", (30, 70), 0)
def test_warm_start_equals_the_greedy_loop(kind, shape, seed):
    # bit for bit, padded inputs included; bidding is switched off, so that
    # what is compared is the greedy match the rounds start from
    w = _seeded_matrix(kind, shape, seed)
    n = max(shape)
    padded = np.zeros((n, n))
    padded[: shape[0], : shape[1]] = w
    class_of_row, reps = _row_classes(padded)
    supply = np.bincount(class_of_row).tolist()
    with mock.patch.object(assignment, "_BID_FLOOR", math.inf):
        got = _warm_start(padded, reps, supply)
    want = oracle_greedy_start(padded, reps, supply)
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)
    assert got[3] == want[3]


def _bid_grid(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(0, 100, (n, n))
    if kind == "integers-0-2":
        return rng.integers(0, 3, (n, n)).astype(float)
    return rng.integers(0, 1001, (n, n)) / 10  # one decimal: near-ties are common


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["uniform", "integers-0-2", "one-decimal"]), st.integers(6, 80), st.integers(0, 2**32 - 1))
def test_bidding_rounds_keep_the_search_invariant(kind, n, seed):
    # the searches start from the warm start's duals and partial matching:
    # the duals must be feasible, every owned edge tight, and have must
    # count each class's columns, each column held by one class at most
    w = _bid_grid(kind, n, seed)
    class_of_row, reps = _row_classes(w)
    supply = np.bincount(class_of_row)
    owner, u, v, have = _warm_start(w, reps, supply.tolist())
    cost = -w[reps]
    assert (cost - u[:, None] - v[None, :]).min() >= -1e-9
    cols = np.flatnonzero(owner >= 0)
    assert np.abs(cost[owner[cols], cols] - u[owner[cols]] - v[cols]).max(initial=0.0) <= 1e-9
    assert have == np.bincount(owner[cols], minlength=len(reps)).tolist()
    assert (np.array(have) <= supply).all()


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(["uniform", "integers-0-2", "one-decimal"]), st.integers(60, 120), st.integers(0, 2**32 - 1))
@example("one-decimal", 63, 0)
@example("one-decimal", 64, 0)
@example("integers-0-2", 64, 1)
def test_bids_then_searches_certify_optimality(kind, n, seed):
    # sides on both sides of _BID_FLOOR: from 64 rows up the searches start
    # after the bidding rounds, and the duals they end with must still prove
    # the matching optimal: feasible, tight on every matched edge, and
    # summing to its cost
    w = _bid_grid(kind, n, seed)
    class_of_row, reps = _row_classes(w)
    assert len(reps) == n
    owner, u, v = _solve_min_cost(w, reps, [1] * n)
    assert np.array_equal(np.sort(owner), np.arange(n))
    cost = -w[reps]
    cols = np.arange(n)
    assert (cost - u[:, None] - v[None, :]).min() >= -1e-9
    assert np.abs(cost[owner, cols] - u[owner] - v).max() <= 1e-9
    assert abs(u.sum() + v.sum() - cost[owner, cols].sum()) <= n * 1e-9


def test_row_classes_group_equal_rows_in_first_seen_order():
    w = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [0.0, 0.0], [3.0, 4.0], [-0.0, 0.0]])
    class_of_row, reps = _row_classes(w)
    # -0.0 and 0.0 differ bit for bit, so the last row is a class of its own
    assert class_of_row.tolist() == [0, 1, 0, 2, 1, 3]
    assert reps.tolist() == [0, 1, 3, 5]


def test_row_classes_split_hash_collisions(monkeypatch):
    # with every row hashed alike, only the rows equal cell by cell to the
    # first share its class; each other row becomes a class of its own
    def same_hash(rows, mix, out):
        out[:] = 0
        return out

    monkeypatch.setattr(np, "matmul", same_hash)
    class_of_row, reps = _row_classes(np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [2.0, 1.0]]))
    assert class_of_row.tolist() == [0, 1, 0, 2]
    assert reps.tolist() == [0, 1, 3]


# weights whose distinct sums differ by rounding only: the 1e-9 tie band
# must absorb the rounding on both paths
_ROUNDING_POOLS = [
    (0.1, 0.2, 0.3, 0.7),
    tuple(k * 100 / 3 for k in range(4)) + tuple(k * 100 / 6 for k in range(7)),
    (33.33333333333333, 33.333333333333336, 100 / 3, 16.666666666666668, 66.66666666666667, 50.0),
]


def _small_matrices():
    shapes = st.one_of(_sides(5), st.sampled_from(_THIN_SHAPES))
    integers = shapes.flatmap(lambda s: arrays(np.float64, s, elements=st.sampled_from([0.0, 1.0, 2.0])))
    pooled = st.tuples(shapes, st.sampled_from(_ROUNDING_POOLS)).flatmap(
        lambda sp: arrays(np.float64, sp[0], elements=st.sampled_from(sp[1]))
    )
    uniform = st.tuples(shapes, st.integers(0, 2**32 - 1)).map(
        lambda ss: np.random.default_rng(ss[1]).uniform(0, 100, ss[0])
    )
    return st.one_of(integers, pooled, uniform)


@settings(deadline=None, max_examples=300)
@given(_small_matrices())
def test_enumeration_and_solver_pick_the_same_edges(w):
    # max_weight_matching enumerates these shapes, so the solver is checked
    # on them here, against the enumeration and in both orientations
    assert _matched_edges(w[None])[0] == _solved_edges(w)
    assert _matched_edges(w.T[None])[0] == _solved_edges(w.T)


def _grid_stacks():
    """Stacks of 1-5 same-shape grids, tie-heavy or not; sides up to 7, so
    the solver's shapes (6x6 and up) come too, and every enumerated shape
    with a side over 5, wide and tall. A stack of one grid of at most
    _LONE_LIMIT assignments is scored in Python, any other with numpy, and
    max_weight_matching scores each grid alone, so the two enumerations
    are checked against each other."""
    weights = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 100.0))
    shapes = st.tuples(st.one_of(_sides(7), st.sampled_from(_THIN_SHAPES)), st.integers(1, 5)).map(
        lambda sg: sg[0] + (sg[1],))
    return st.tuples(shapes, st.booleans()).flatmap(
        lambda sb: arrays(np.float64, sb[0][2:] + sb[0][:2],
                          elements=st.sampled_from([0.0, 1.0, 2.0]) if sb[1] else weights)
    )


@settings(deadline=None, max_examples=200)
@given(_grid_stacks())
# three tied assignments, of which the first in permutation order, rows
# (1, 2) on columns (0, 1), is not the lexicographically smallest edge list
@example(np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]]]))
# lone grids on either side of _LONE_LIMIT = 56: 2x8 is scored in Python,
# 3x5 by the stack's numpy path
@example(np.random.default_rng(8).integers(0, 3, (1, 2, 8)).astype(float))
@example(np.random.default_rng(8).integers(0, 3, (1, 8, 2)).astype(float))
@example(np.random.default_rng(8).integers(0, 3, (1, 3, 5)).astype(float))
@example(np.random.default_rng(8).integers(0, 3, (1, 5, 3)).astype(float))
def test_batched_edges_and_totals_equal_one_matching_each(grids):
    matchings = [max_weight_matching(w) for w in grids]
    assert [tuple(edges) for edges in _matched_edges(grids)] == [m.edges for m in matchings]
    assert _matched_totals(grids) == [m.total for m in matchings]
    # two copies of a grid take the stack's numpy path, whatever the size
    # of the stack drawn
    assert [tuple(_matched_edges(np.stack([w, w]))[0]) for w in grids] == [m.edges for m in matchings]
    assert [_matched_totals(np.stack([w, w])) for w in grids] == [[m.total] * 2 for m in matchings]


def _repeated_row_grids():
    """Grids of 1-8 distinct rows, each repeated, or (k None) of rows all
    distinct, sides 6-40 (so always on the solver's path), with integer
    0-2, rounding-pool or uniform weights."""
    weights = st.sampled_from(["integers-0-2", "pool", "uniform"])
    sides = st.tuples(st.integers(6, 40), st.integers(6, 40))
    return st.tuples(weights, sides, st.one_of(st.integers(1, 8), st.none()), st.integers(0, 2**32 - 1))


def _repeated_row_grid(kind, shape, k, seed):
    rng = np.random.default_rng(seed)
    count = shape[0] if k is None else k
    while True:
        if kind == "integers-0-2":
            distinct = rng.integers(0, 3, (count, shape[1])).astype(float)
        elif kind == "pool":
            distinct = rng.choice(_ROUNDING_POOLS[seed % len(_ROUNDING_POOLS)], (count, shape[1]))
        else:
            distinct = rng.uniform(0, 100, (count, shape[1]))
        # rows drawn alike are drawn again, so that every row is distinct
        if k is not None or len(np.unique(distinct, axis=0)) == count:
            break
    return distinct if k is None else distinct[rng.integers(0, k, shape[0])]


@settings(deadline=None, max_examples=100)
@given(_repeated_row_grids())
@example(("integers-0-2", (40, 6), 2, 0))
@example(("uniform", (6, 40), 8, 0))
# an n-best grid: 8 distinct rows repeated, a class on every open column
@example(("integers-0-2", (60, 50), 8, 1))
# distinct rows: solved on its own rows, and as 40x12 on its transpose
@example(("integers-0-2", (12, 40), None, 0))
def test_repeated_rows_match_the_oracles(case):
    # repeated rows are solved as one row with a multiplicity, and a tall
    # grid on its transpose; in both orientations the edges must be the
    # lexicographically smallest optimal ones, and the totals scipy's
    kind, shape, _, _ = case
    w = _repeated_row_grid(*case)
    for grid in (w, w.T):
        m = max_weight_matching(grid)
        if kind == "integers-0-2":
            assert list(m.edges) == oracle_lex_min_assignment(grid)
            assert m.total == scipy_total(grid)
        else:
            assert m.total == pytest.approx(scipy_total(grid), abs=max(shape) * 1e-9)


def test_square_solve_makes_no_copy_of_the_matrix():
    # ScoreMatrix's own copy is the one n x n float array; the solver works
    # on it, so the peak stays well under two copies
    w = np.random.default_rng(13).uniform(0, 100, (1000, 1000))
    tracemalloc.start()
    try:
        max_weight_matching(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * w.nbytes


def test_nbest_shaped_matrix_within_time_budget():
    # 8 distinct rows repeated to 1000: searches take at most 9 steps
    rng = np.random.default_rng(14)
    w = rng.uniform(0, 100, (8, 1000))[np.arange(1000) % 8]
    start = time.perf_counter()
    m = max_weight_matching(w)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert m.total == pytest.approx(scipy_total(w), abs=1e-6)


MATCHING_GOLDEN = os.path.join(os.path.dirname(__file__), "matching_golden", "edges.json")

_GOLDEN_MATRICES = {
    "random-300x300": lambda: np.random.default_rng(300).uniform(0, 100, (300, 300)),
    "integers-0-2-300x300": lambda: np.random.default_rng(302).integers(0, 3, (300, 300)).astype(float),
    "all-equal-200x200": lambda: np.full((200, 200), 50.0),
    "random-60x180": lambda: np.random.default_rng(60).uniform(0, 100, (60, 180)),
    "random-180x60": lambda: np.random.default_rng(180).uniform(0, 100, (180, 60)),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_MATRICES))
def test_large_matrix_edges_match_golden(name):
    # recorded with the cold-start solver that eagerly updated its duals at
    # every step: any solver must keep these edges, ties included
    with open(MATCHING_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    m = max_weight_matching(_GOLDEN_MATRICES[name]())
    digest = hashlib.sha256(json.dumps([list(e) for e in m.edges]).encode()).hexdigest()
    assert digest == golden["edges_sha256"]
    assert m.total == golden["total"]


@pytest.mark.parametrize(
    "shape", [(3, 2000), (2000, 3), (4, 300), (1, 5000), (1, 20000), (3, 20000)], ids=lambda s: "%dx%d" % s
)
def test_long_thin_matrix_takes_the_solver_within_time_budget(shape):
    # a small side does not make a small input: 3x2000 has 8e9 assignments
    w = np.random.default_rng(11).uniform(0, 100, shape)
    start = time.perf_counter()
    m = max_weight_matching(w)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    rows, cols = linear_sum_assignment(w, maximize=True)
    assert m.total == math.fsum(w[rows, cols])


# peaks measured at 1.16, 1.55 and 54.5 MiB. A wide grid is solved on its
# own rows and a tall one on its transpose, with no zero padding, so the
# wide peaks are a few arrays of the long side. The tall bound comes from
# the tie-break, which still sees the tall grid as squared by zero columns:
# its n x n bool tight matrix (23.8 MiB at n = 5000) and a row-gathered copy
# of it are alive at once
@pytest.mark.parametrize(
    "shape, bound_mib", [((1, 20000), 2), ((3, 20000), 2.5), ((5000, 1), 64)], ids=["1x20000", "3x20000", "5000x1"]
)
def test_long_thin_matrix_peak_memory(shape, bound_mib):
    w = np.random.default_rng(11).uniform(0, 100, shape)
    tracemalloc.start()
    try:
        max_weight_matching(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20
