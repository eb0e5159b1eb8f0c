"""Hungarian solver vs the brute-force oracle (and scipy as a third route)."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from multiscore.assignment import (
    ScoreMatrix,
    _lex_min_tight_matching,
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
    col_of_row = _lex_min_tight_matching(tight, row_of_col, n)
    assert np.array_equal(col_of_row, rows)


def _tie_heavy(max_side):
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0, 2.0])))


@settings(deadline=None)
@given(_tie_heavy(7))
def test_tie_heavy_edges_match_brute_force(w):
    assert max_weight_matching(w).edges == brute_force_matching(w).edges


@settings(deadline=None)
@given(_tie_heavy(40))
def test_tie_heavy_totals_match_scipy(w):
    assert max_weight_matching(w).total == scipy_total(w)
