"""BLEU, chrF++ and Self-BLEU against hand counts and independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiscore.metrics import (
    SMOOTH_NONE,
    BleuConfig,
    BleuMetric,
    ChrfConfig,
    ChrfMetric,
    corpus_bleu,
    corpus_chrfpp,
    self_bleu,
    sentence_bleu,
    sentence_chrfpp,
)
from multiscore.multiscore import score_matrix
from multiscore.text import Sentence
from oracles import oracle_chrfpp, oracle_corpus_bleu, oracle_sentence_bleu

UNSMOOTHED = BleuConfig(smoothing=SMOOTH_NONE)


def random_sentence(rng, vocab=("red", "cat", "sat", "mat", "dog", "ran", "far", "big"), lo=1, hi=12):
    return " ".join(vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(lo, hi)))


class TestSentenceBleu:
    def test_identity(self):
        assert sentence_bleu("the cat sat", ["the cat sat"]) == 100.0

    def test_clipping_the_the(self):
        # hyp "the the the the the the the" vs "the cat is on the mat":
        # clipped p1 = 2/7, smoothed p2..p4 = 1/7, 1/6, 1/5, BP = 1
        score = sentence_bleu("the the the the the the the", ["the cat is on the mat"])
        expected = math.exp(
            (math.log(2 / 7) + math.log(1 / 7) + math.log(1 / 6) + math.log(1 / 5)) / 4
        ) * 100
        assert score == pytest.approx(expected, abs=1e-12)
        assert score == pytest.approx(19.205612637498934, abs=1e-9)

    def test_disjoint_tokens(self):
        assert sentence_bleu("aa bb cc", ["xx yy zz"]) == 0.0

    def test_empty_hypothesis_scores_zero(self):
        assert sentence_bleu("", ["the cat"]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            sentence_bleu("the cat", [""])
        with pytest.raises(ValueError):
            sentence_bleu("the cat", [])

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            hyp = random_sentence(rng)
            refs = [random_sentence(rng) for _ in range(int(rng.integers(1, 4)))]
            assert sentence_bleu(hyp, refs) == pytest.approx(
                oracle_sentence_bleu(hyp, refs, smooth=True), abs=1e-9
            )
            assert sentence_bleu(hyp, refs, UNSMOOTHED) == pytest.approx(
                oracle_sentence_bleu(hyp, refs, smooth=False), abs=1e-9
            )

    def test_brevity_penalty_tie_prefers_shorter(self):
        # hyp length 3; refs of lengths 2 and 4 are equally distant: r = 2,
        # so BP = 1 rather than exp(1 - 4/3)
        score = sentence_bleu("a b c", ["a b", "a b c d"], BleuConfig(max_order=1, smoothing=SMOOTH_NONE))
        assert score == pytest.approx(100.0, abs=1e-9)


class TestCorpusBleu:
    def test_single_pair_equals_unsmoothed_sentence(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            hyp = random_sentence(rng, lo=4)
            refs = [random_sentence(rng, lo=4) for _ in range(2)]
            assert corpus_bleu([(hyp, refs)]) == sentence_bleu(hyp, refs, UNSMOOTHED)

    def test_identity_corpus(self):
        pairs = [("the cat sat on the mat", ["the cat sat on the mat"]),
                 ("a big dog ran far away", ["a big dog ran far away"])]
        assert corpus_bleu(pairs) == 100.0

    def test_two_segment_hand_aggregation(self):
        # micro stats, hand-counted: matched/total = 11/11, 8/9, 5/7, 3/5,
        # hyp len 11, closest ref lens 6 + 5 = 11, BP = 1
        pairs = [
            ("the cat sat on the mat",
             ["the cat sat on the red mat", "a cat sat on the mat"]),
            ("he ate the apple pie",
             ["he ate an apple pie", "he devoured the apple pie"]),
        ]
        expected = math.exp(
            (math.log(11 / 11) + math.log(8 / 9) + math.log(5 / 7) + math.log(3 / 5)) / 4
        ) * 100
        assert corpus_bleu(pairs) == pytest.approx(expected, abs=1e-12)
        assert corpus_bleu(pairs) == pytest.approx(78.5629301801026, abs=1e-9)
        assert corpus_bleu(pairs) == pytest.approx(oracle_corpus_bleu(pairs), abs=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([])

    def test_aggregation_is_order_independent(self):
        rng = np.random.default_rng(5)
        pairs = [(random_sentence(rng, lo=4), [random_sentence(rng, lo=4)]) for _ in range(20)]
        assert corpus_bleu(pairs) == corpus_bleu(list(reversed(pairs)))


class TestSentenceChrfpp:
    def test_identity(self):
        assert sentence_chrfpp("hello there", "hello there") == 100.0

    def test_disjoint_characters(self):
        assert sentence_chrfpp("aaa", "zzz") == 0.0

    def test_abc_abd_hand_computation(self):
        # char orders: 1: P=R=2/3, 2: P=R=1/2, 3: P=R=0; word order 1: 0;
        # orders 4..6 and word order 2 skipped (no n-grams on either side);
        # P = R = (2/3 + 1/2) / 4 = 7/24, F = P when P == R
        assert sentence_chrfpp("abc", "abd") == pytest.approx(700 / 24, abs=1e-9)
        assert sentence_chrfpp("abc", "abd") == pytest.approx(oracle_chrfpp("abc", "abd"), abs=1e-12)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            hyp, ref = random_sentence(rng), random_sentence(rng)
            assert sentence_chrfpp(hyp, ref) == pytest.approx(oracle_chrfpp(hyp, ref), abs=1e-9)

    def test_word_order_zero_is_pure_character_f(self):
        cfg = ChrfConfig(word_order=0)
        assert sentence_chrfpp("abc", "abd", cfg) == pytest.approx(
            oracle_chrfpp("abc", "abd", word_order=0), abs=1e-12
        )

    @pytest.mark.parametrize("beta", [math.inf, 1e200, math.nan, 0.0, -1.0])
    def test_beta_needs_a_finite_positive_square(self, beta):
        # inf and 1e200 used to make every chrF++ score nan
        with pytest.raises(ValueError, match=r"^beta must be > 0 with a finite square"):
            ChrfConfig(beta=beta)

    def test_largest_accepted_beta_stays_in_range(self):
        assert 0.0 <= sentence_chrfpp("a b c", "a b d", ChrfConfig(beta=1e154)) <= 100.0


class TestCorpusChrfpp:
    def test_single_pair_equals_sentence(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            hyp, ref = random_sentence(rng), random_sentence(rng)
            assert corpus_chrfpp([(hyp, ref)]) == sentence_chrfpp(hyp, ref)

    def test_identity_pairs(self):
        pairs = [("the cat sat", "the cat sat"), ("a dog ran", "a dog ran")]
        assert corpus_chrfpp(pairs) == 100.0

    def test_two_pair_hand_aggregation(self):
        pairs = [("abc", "abd"), ("cat sat", "cat mat")]
        # aggregate per-order sums computed by the independent oracle logic
        from collections import Counter

        agg = []
        for n in range(1, 7):
            m = th = tr = 0
            for hyp, ref in pairs:
                hs, rs = "".join(hyp.split()), "".join(ref.split())
                hg = Counter(hs[i:i + n] for i in range(len(hs) - n + 1))
                rg = Counter(rs[i:i + n] for i in range(len(rs) - n + 1))
                m += sum((hg & rg).values())
                th += sum(hg.values())
                tr += sum(rg.values())
            agg.append((m, th, tr))
        for n in (1, 2):
            m = th = tr = 0
            for hyp, ref in pairs:
                hg = Counter(tuple(hyp.split()[i:i + n]) for i in range(len(hyp.split()) - n + 1))
                rg = Counter(tuple(ref.split()[i:i + n]) for i in range(len(ref.split()) - n + 1))
                m += sum((hg & rg).values())
                th += sum(hg.values())
                tr += sum(rg.values())
            agg.append((m, th, tr))
        precs = [m / th if th else 0.0 for m, th, tr in agg if th or tr]
        recs = [m / tr if tr else 0.0 for m, th, tr in agg if th or tr]
        p, r = sum(precs) / len(precs), sum(recs) / len(recs)
        expected = 5 * p * r / (4 * p + r) * 100
        assert corpus_chrfpp(pairs) == pytest.approx(expected, abs=1e-9)

    def test_multi_reference_segment_uses_best(self):
        # identical-to-one-reference hypothesis must hit 100
        assert corpus_chrfpp([("the cat", ["a dog", "the cat"])]) == 100.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_chrfpp([])


class TestSelfBleu:
    def test_identical_triple(self):
        assert self_bleu(["a b c", "a b c", "a b c"]) == 100.0

    def test_disjoint_triple(self):
        assert self_bleu(["aa bb cc dd", "ee ff gg hh", "ii jj kk ll"]) == 0.0

    def test_composition_oracle(self):
        outs = ["a b c d", "a b c e", "x y z w"]
        parts = [oracle_sentence_bleu(o, [x for j, x in enumerate(outs) if j != i], smooth=True)
                 for i, o in enumerate(outs)]
        assert self_bleu(outs) == pytest.approx(sum(parts) / 3, abs=1e-9)
        assert self_bleu(outs) == pytest.approx(43.869133765083085, abs=1e-9)

    def test_too_few_outputs(self):
        with pytest.raises(ValueError):
            self_bleu(["just one"])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            outs = [random_sentence(rng) for _ in range(3)]
            shuffled = [outs[2], outs[0], outs[1]]
            assert self_bleu(outs) == pytest.approx(self_bleu(shuffled), abs=1e-12)

    def test_adding_duplicate_never_decreases(self):
        rng = np.random.default_rng(88)
        for _ in range(100):
            outs = [random_sentence(rng) for _ in range(int(rng.integers(2, 5)))]
            dup = outs[int(rng.integers(0, len(outs)))]
            assert self_bleu(outs + [dup]) >= self_bleu(outs) - 1e-9

    def test_each_output_against_the_others_less_one_copy(self):
        outs = ["a b c d", "a b c e", "x y z w", "a b c d", "x y z w", "a b c d"]
        expected = sum(
            sentence_bleu(o, [x for j, x in enumerate(outs) if j != i]) for i, o in enumerate(outs)
        ) / len(outs)
        assert self_bleu(outs) == expected
        outs = ["a b c d", "a b c e", "x y z w"] * 4
        assert self_bleu(outs) == self_bleu(outs[:3] * 2)


class TestMetricContract:
    METRICS = [BleuMetric(), ChrfMetric()]

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
    def test_identity_maximality(self, metric):
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = random_sentence(rng)
            assert metric.score(x, [x]) == 100.0

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
    def test_range_and_determinism(self, metric):
        rng = np.random.default_rng(10)
        for _ in range(200):
            hyp = random_sentence(rng)
            refs = [random_sentence(rng) for _ in range(int(rng.integers(1, 4)))]
            score = metric.score(hyp, refs)
            assert 0.0 <= score <= 100.0
            assert metric.score(hyp, refs) == score

    def test_asymmetry_not_assumed(self):
        # BLEU and chrF++ are asymmetric; just record one witness of it
        a, b = "the cat sat on the mat", "the cat sat"
        assert sentence_bleu(a, [b]) != sentence_bleu(b, [a])


# property tests of the statistics layer: a sentence score, a one-segment
# corpus score and the MS-CHRF grid all read the same per-segment statistics.
# A small vocabulary with case and punctuation variants makes equal texts,
# and so tied references, common.
_words = st.sampled_from(["the", "The", "cat", "sat", "mat", "a", "dog", ",", ".", "баку", "don't"])
_texts = st.lists(_words, min_size=1, max_size=8).map(" ".join)
_hypotheses = st.one_of(_texts, st.sampled_from(["", "  "]))
_reference_lists = st.lists(_texts, min_size=1, max_size=4)
_bleu_configs = st.builds(
    BleuConfig, max_order=st.integers(1, 6), smoothing=st.sampled_from([SMOOTH_NONE, "add-one"])
)
_chrf_configs = st.builds(
    ChrfConfig, char_order=st.integers(1, 7), word_order=st.integers(0, 3), beta=st.sampled_from([0.5, 1.0, 2.0, 3.0])
)


@settings(deadline=None)
@given(_hypotheses, _reference_lists, _bleu_configs)
def test_one_segment_corpus_bleu_equals_sentence_bleu(hyp, refs, config):
    assert corpus_bleu([(hyp, refs)], config) == sentence_bleu(hyp, refs, config)


@settings(deadline=None)
@given(_hypotheses, _reference_lists, _chrf_configs)
def test_one_segment_corpus_chrfpp_is_best_single_reference(hyp, refs, config):
    assert corpus_chrfpp([(hyp, refs)], config) == max(sentence_chrfpp(hyp, r, config) for r in refs)


@settings(deadline=None)
@given(st.lists(st.tuples(st.lists(_texts, min_size=1, max_size=4), _reference_lists), min_size=1, max_size=4))
def test_corpus_chrfpp_reference_is_first_row_maximum_of_grid(instances):
    # what evaluate_all relies on to take each slot's chrF++ reference from
    # the MS-CHRF grid; its outputs are never blank, so neither are these
    full, picked = [], []
    for outputs, refs in instances:
        weights = score_matrix(outputs, refs, ChrfMetric()).weights
        for out, row in zip(outputs, weights):
            full.append((out, refs))
            picked.append((out, refs[int(np.argmax(row))]))
    assert corpus_chrfpp(full) == corpus_chrfpp(picked)


# rules the per-pair functions keep whichever engine counts their n-grams
def test_blank_hypothesis_keeps_its_shortest_reference_in_a_corpus():
    # a blank hypothesis scores 0 against every reference; in a corpus it
    # adds the totals of its shortest reference by characters, wherever
    # that reference stands
    other = ("ab cd", "ab cd")
    shortest_last = corpus_chrfpp([("", ["abcdef ghi", "ab"]), other])
    assert shortest_last == corpus_chrfpp([("", ["ab", "abcdef ghi"]), other])
    assert shortest_last == corpus_chrfpp([("", "ab"), other])
    assert shortest_last != corpus_chrfpp([("", "abcdef ghi"), other])
    assert corpus_chrfpp([("  ", ["abcdef ghi", "ab"]), other]) == shortest_last
    assert sentence_chrfpp("", "ab") == ChrfMetric().score("", ["abcdef ghi", "ab"]) == 0.0


def _cased(text):
    """``text`` as a cased Sentence of the text a metric reads from it."""
    if isinstance(text, Sentence):
        return Sentence(text.raw.lower() if text.lowercase else text.raw, lowercase=False)
    return Sentence(text.lower(), lowercase=False) if text.strip() else text


class TestPerTextCasing:
    """A Sentence keeps its own casing beside plain strings, which are
    lowercased: every call equals the one on the texts as each is read."""

    CASED = Sentence("The Cat sat", lowercase=False)
    HYPS = [CASED, "The cat sat", Sentence("THE CAT sat"), "the Cat Sat on"]
    REFS = [Sentence("the Cat sat", lowercase=False), "THE CAT SAT", CASED]

    def test_a_cased_sentence_keeps_its_case(self):
        assert sentence_bleu(Sentence("The Cat", lowercase=False), ["the cat"]) == 0.0
        assert sentence_bleu("The Cat", [Sentence("the cat", lowercase=False)]) == 100.0
        assert sentence_chrfpp(Sentence("AB", lowercase=False), "ab") == 0.0
        assert sentence_chrfpp("AB", Sentence("ab", lowercase=False)) == 100.0

    def test_sentence_functions(self):
        for hyp in self.HYPS:
            for k in range(len(self.REFS)):
                refs = self.REFS[k:] + self.REFS[:k]
                assert sentence_bleu(hyp, refs) == sentence_bleu(_cased(hyp), [_cased(r) for r in refs])
                assert sentence_chrfpp(hyp, refs[0]) == sentence_chrfpp(_cased(hyp), _cased(refs[0]))
                assert ChrfMetric().score(hyp, refs) == ChrfMetric().score(_cased(hyp), [_cased(r) for r in refs])
        assert sentence_bleu(self.CASED, self.REFS[:2]) != sentence_bleu(str(self.CASED), self.REFS[:2])

    def test_corpus_functions(self):
        pairs = [(hyp, self.REFS[k % 3:]) for k, hyp in enumerate(self.HYPS)]
        cased = [(_cased(hyp), [_cased(r) for r in refs]) for hyp, refs in pairs]
        plain = [(str(hyp), [str(r) for r in refs]) for hyp, refs in pairs]
        # unsmoothed order 4 would read 0 on three-word texts
        config = BleuConfig(max_order=2, smoothing=SMOOTH_NONE)
        assert corpus_bleu(pairs, config) == corpus_bleu(cased, config) != corpus_bleu(plain, config)
        assert corpus_chrfpp(pairs) == corpus_chrfpp(cased) != corpus_chrfpp(plain)

    def test_self_bleu(self):
        # the cased Sentence is no repeat of "the cat sat"; the other two are
        outputs = [self.CASED, "the cat sat", Sentence("THE CAT SAT"), "a dog"]
        assert self_bleu(outputs) == self_bleu([_cased(o) for o in outputs])
        assert self_bleu(outputs) != self_bleu([str(o) for o in outputs])

    def test_score_matrix(self):
        for metric in (BleuMetric(), ChrfMetric()):
            grid = score_matrix(self.HYPS + ["  "], self.REFS, metric).weights
            cased = score_matrix([_cased(h) for h in self.HYPS] + ["  "], [_cased(r) for r in self.REFS], metric)
            plain = score_matrix([str(h) for h in self.HYPS], [str(r) for r in self.REFS], metric)
            assert np.array_equal(grid, cased.weights)
            assert not np.array_equal(grid[:-1], plain.weights)


@pytest.mark.parametrize("call, message", [
    (lambda: sentence_bleu("a b", []), "references must be non-empty"),
    (lambda: sentence_bleu("a b", ["a b", " "]), "reference sentence must be non-empty"),
    (lambda: sentence_chrfpp("a b", ""), "reference sentence must be non-empty"),
    (lambda: corpus_bleu([]), "corpus must contain at least one segment"),
    (lambda: corpus_bleu([("a b", ["a b"]), ("a b", [])]), "references must be non-empty"),
    (lambda: corpus_bleu([("a b", ["a b"]), ("a b", ["\t"])]), "reference sentence must be non-empty"),
    (lambda: corpus_chrfpp([]), "corpus must contain at least one segment"),
    (lambda: corpus_chrfpp([("a b", [])]), "references must be non-empty"),
    (lambda: corpus_chrfpp([("a b", "a b"), ("a b", " ")]), "reference sentence must be non-empty"),
    (lambda: self_bleu([]), "self-BLEU needs at least 2 outputs"),
    (lambda: self_bleu(["a b"]), "self-BLEU needs at least 2 outputs"),
    (lambda: self_bleu(["a b", " "]), "reference sentence must be non-empty"),
    (lambda: self_bleu(["", "a b", "c d"]), "reference sentence must be non-empty"),
    (lambda: BleuMetric().score("a b", []), "references must be non-empty"),
    (lambda: ChrfMetric().score("a b", []), "references must be non-empty"),
    (lambda: ChrfMetric().score("a b", ["a b", ""]), "reference sentence must be non-empty"),
    (lambda: score_matrix(["a b"], ["a b", " "], BleuMetric()), "reference sentence must be non-empty"),
    (lambda: score_matrix(["a b"], [""], ChrfMetric()), "reference sentence must be non-empty"),
])
def test_rejections_keep_their_messages(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@settings(deadline=None)
@given(_hypotheses, _reference_lists, _chrf_configs)
def test_chrf_metric_is_the_best_single_reference_score(hyp, refs, config):
    assert ChrfMetric(config).score(hyp, refs) == max(sentence_chrfpp(hyp, r, config) for r in refs)
