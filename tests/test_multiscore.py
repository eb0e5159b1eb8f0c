"""Set-level scoring: matrix construction, matching, and the metric's
defining properties (identity maximality, duplication penalty, degenerate
quality, permutation invariance)."""

import dataclasses
import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiscore import multiscore as ms
from multiscore import table
from multiscore.assignment import brute_force_matching
from multiscore.metrics import BleuConfig, BleuMetric, ChrfMetric, SentenceMetric
from multiscore.multiscore import EvalInstance, _instance_sentences, corpus_multi_score, multi_score, score_matrix
from multiscore.text import Sentence

from oracles import oracle_score_matrix


class TableMetric(SentenceMetric):
    """Deterministic lookup metric for matrix-level fixtures."""

    name = "table"

    def __init__(self, table):
        self.table = table

    def score(self, hypothesis, references):
        return max(self.table[str(hypothesis), str(r)] for r in references)


class CountingMetric(SentenceMetric):
    """Wraps a metric and records every (hypothesis, references) call."""

    name = "counting"

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def score(self, hypothesis, references):
        self.calls.append((hypothesis, tuple(references)))
        return self.inner.score(hypothesis, references)


def random_sentences(rng, k, vocab=("aa", "bb", "cc", "dd", "ee", "ff", "gg"), lo=3, hi=9):
    made = []
    while len(made) < k:
        s = " ".join(vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(lo, hi)))
        made.append(s)
    return made


class TestScoreMatrix:
    def test_identity_single(self):
        m = score_matrix(["x"], ["x"], BleuMetric())
        assert m.weights.shape == (1, 1)
        assert m.weights[0, 0] == 100.0

    def test_entries_equal_independent_calls(self):
        rng = np.random.default_rng(1)
        outs = random_sentences(rng, 3)
        refs = random_sentences(rng, 3)
        metric = BleuMetric()
        m = score_matrix(outs, refs, metric)
        for i, j in itertools.product(range(3), range(3)):
            assert m.weights[i, j] == metric.score(outs[i], [refs[j]])

    def test_disjoint_entry_is_zero(self):
        m = score_matrix(["aa bb"], ["xx yy"], BleuMetric())
        assert m.weights[0, 0] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            score_matrix([], ["x"], BleuMetric())

    @pytest.mark.parametrize("metric", [BleuMetric(), ChrfMetric()], ids=lambda m: m.name)
    def test_strings_score_as_sentences(self, metric):
        rng = np.random.default_rng(3)
        refs = random_sentences(rng, 5)
        outs = random_sentences(rng, 6) + [refs[0], refs[0]]
        as_text = score_matrix(outs, refs, metric)
        as_sentences = score_matrix([Sentence(t) for t in outs], [Sentence(t) for t in refs], metric)
        assert np.array_equal(as_text.weights, as_sentences.weights)
        # a blank output is not a Sentence, and still scores 0
        assert score_matrix(["  ", outs[0]], refs, metric).weights[0].tolist() == [0.0] * 5


class TestScoreMatrixDedup:
    """``score`` runs once per distinct (output, reference) pair, where
    distinct means distinct :class:`Sentence` (stripped text and casing) or
    distinct blank string; the grid equals the per-cell definition."""

    @pytest.mark.parametrize("outs,refs,n_out,n_ref", [
        # repeated strings
        (["aa bb", "cc dd", "aa bb", "aa bb"], ["aa bb", "ee ff", "ee ff"], 2, 2),
        # surrounding whitespace is stripped, inner whitespace is not
        (["aa bb", " aa bb ", "aa bb\t", "aa  bb"], ["\tcc dd", "cc dd "], 2, 1),
        # blank outputs are each their own key and score 0
        (["  ", "", "  ", "aa bb"], ["aa bb", "aa bb"], 3, 1),
        # nothing repeats
        (["aa bb", "cc dd", "ee ff"], ["aa cc", "bb dd", "ee gg"], 3, 3),
    ], ids=["repeats", "whitespace", "blank", "distinct"])
    def test_calls_per_distinct_pair(self, outs, refs, n_out, n_ref):
        metric = CountingMetric(BleuMetric())
        m = score_matrix(outs, refs, metric)
        assert len(metric.calls) == n_out * n_ref
        assert len(set(metric.calls)) == n_out * n_ref
        assert m.weights.shape == (len(outs), len(refs))
        assert m.weights.tolist() == oracle_score_matrix(outs, refs, BleuMetric())

    def test_sentence_input(self):
        # equal Sentences share a key whatever object they are; casing is
        # part of the key, and a plain string keys as its lowercased
        # Sentence. The key is the text as written: "aa BB" is its own key
        # even when it is scored lowercased.
        outs = [Sentence("aa bb"), Sentence(" aa bb"), Sentence("Aa bb", lowercase=False),
                Sentence("aa bb", lowercase=False), "aa bb", Sentence("Aa bb", lowercase=False)]
        refs = [Sentence("Aa bb", lowercase=False), " aa bb", Sentence("aa bb"), "aa BB"]
        metric = CountingMetric(BleuMetric())
        m = score_matrix(outs, refs, metric)
        assert len(metric.calls) == 3 * 3
        assert m.weights.tolist() == oracle_score_matrix(outs, refs, BleuMetric())

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["bleu", "chrf", "table"]), lowercase=st.booleans())
    def test_equals_per_cell_oracle(self, data, kind, lowercase):
        # pools of one to four texts over cased words with optional
        # surrounding whitespace, drawn with replacement
        text = st.tuples(
            st.sampled_from(["", " ", "\t"]),
            st.lists(st.sampled_from(["aa", "Aa", "bb", "cc"]), min_size=1, max_size=4).map(" ".join),
            st.sampled_from(["", " "]),
        ).map("".join)
        pool = data.draw(st.lists(text, min_size=1, max_size=4))
        out_pool = pool + data.draw(st.lists(st.sampled_from(["", "  "]), max_size=1))
        outs = data.draw(st.lists(st.sampled_from(out_pool), min_size=1, max_size=7))
        refs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
        if kind == "table":
            # one value per stripped pair, looked up as written or stripped,
            # so a text and its padded copy agree
            by_text = {}
            table = {}
            for o, r in itertools.product(out_pool, pool):
                key = (o.strip(), r.strip())
                if key not in by_text:
                    by_text[key] = data.draw(st.sampled_from([0.0, 12.5, 50.0, 100.0]))
                for a, b in itertools.product({o, key[0]}, {r, key[1]}):
                    table[a, b] = by_text[key]
            metric = TableMetric(table)
        else:
            metric = BleuMetric() if kind == "bleu" else ChrfMetric()
        if not lowercase:
            outs = [Sentence(t, lowercase=False) if t.strip() else t for t in outs]
            refs = [Sentence(t, lowercase=False) for t in refs]
        m = score_matrix(outs, refs, metric)
        expected = np.array(oracle_score_matrix(outs, refs, metric))
        assert m.weights.shape == expected.shape
        assert m.weights.tobytes() == expected.tobytes()


class TestMultiScore:
    def test_figure_walkthrough_average(self):
        # matched weights 56, 50, 58 -> (56+50+58)/3 = 54.67 (2 decimals)
        outs = ["pred one", "pred two", "pred three"]
        refs = ["ref one", "ref two", "ref three"]
        table = {}
        fixed = {("pred one", "ref two"): 56.0, ("pred two", "ref three"): 50.0,
                 ("pred three", "ref one"): 58.0}
        filler = iter([40.0, 30.0, 35.0, 25.0, 22.0, 38.0])
        for o in outs:
            for r in refs:
                table[o, r] = fixed[o, r] if (o, r) in fixed else next(filler)
        result = multi_score(outs, refs, TableMetric(table))
        assert result.matching.edges == ((0, 1), (1, 2), (2, 0))
        assert result.score == pytest.approx((56 + 50 + 58) / 3, abs=1e-12)
        assert f"{result.score:.2f}" == "54.67"

    @pytest.mark.parametrize("metric", [BleuMetric(), ChrfMetric()], ids=lambda m: m.name)
    def test_outputs_equal_references_scores_100(self, metric):
        rng = np.random.default_rng(2)
        for _ in range(20):
            refs = random_sentences(rng, 3)
            outs = [refs[2], refs[0], refs[1]]
            assert multi_score(outs, refs, metric).score == pytest.approx(100.0, abs=1e-9)

    def test_all_outputs_identical_average_over_references(self):
        # every assignment pairs the same sentence with all references, so
        # the score is the plain mean of its per-reference scores
        rng = np.random.default_rng(3)
        metric = BleuMetric()
        for _ in range(20):
            refs = random_sentences(rng, 3)
            out = random_sentences(rng, 1)[0]
            expected = sum(metric.score(out, [r]) for r in refs) / 3
            got = multi_score([out, out, out], refs, metric).score
            assert got == pytest.approx(expected, abs=1e-9)

    def test_unequal_sizes_rejected_by_default(self):
        with pytest.raises(ValueError):
            multi_score(["a b", "c d"], ["a b", "c d", "e f"], BleuMetric())

    def test_unequal_sizes_with_escape_hatch(self):
        res = multi_score(["a b", "c d"], ["a b", "c d", "e f"], BleuMetric(), allow_unequal=True)
        assert len(res.matching.edges) == 2
        assert res.score == pytest.approx(100.0, abs=1e-9)

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            multi_score([], [], BleuMetric())


class TestMultiScoreProperties:
    def test_reference_permutation_invariance_exact(self):
        rng = np.random.default_rng(4)
        metric = BleuMetric()
        for _ in range(30):
            refs = random_sentences(rng, 3)
            outs = random_sentences(rng, 3)
            base = multi_score(outs, refs, metric).score
            for perm in itertools.permutations(refs):
                assert multi_score(outs, list(perm), metric).score == base

    def test_output_permutation_invariance_exact(self):
        rng = np.random.default_rng(5)
        metric = BleuMetric()
        for _ in range(30):
            refs = random_sentences(rng, 3)
            outs = random_sentences(rng, 3)
            base = multi_score(outs, refs, metric).score
            for perm in itertools.permutations(outs):
                assert multi_score(list(perm), refs, metric).score == base

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), metric=st.sampled_from([BleuMetric(), ChrfMetric()]))
    def test_permutation_invariance_exact_on_tie_heavy_sets(self, data, metric):
        # a pool of one to six sentences over four words, drawn with
        # replacement: small pools give sets full of duplicates and ties
        pool = data.draw(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=5).map(" ".join),
                                  min_size=1, max_size=6))
        outs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
        refs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
        base = multi_score(outs, refs, metric, allow_unequal=True).score
        shuffled_outs = data.draw(st.permutations(outs))
        shuffled_refs = data.draw(st.permutations(refs))
        assert multi_score(shuffled_outs, refs, metric, allow_unequal=True).score == base
        assert multi_score(outs, shuffled_refs, metric, allow_unequal=True).score == base

    def test_optimality_lower_bound_via_enumeration(self):
        rng = np.random.default_rng(6)
        metric = BleuMetric()
        for _ in range(30):
            refs = random_sentences(rng, 3)
            outs = random_sentences(rng, 3)
            result = multi_score(outs, refs, metric)
            w = result.matrix.weights
            for perm in itertools.permutations(range(3)):
                fixed = sum(w[i, perm[i]] for i in range(3)) / 3
                assert result.score >= fixed - 1e-9

    def test_duplication_penalty(self):
        # references pairwise distinct under the metric; the diverse output
        # set is a permutation of them; no triplicated single output may
        # outscore it, and equality would need one output scoring 100
        # against every reference
        rng = np.random.default_rng(7)
        metric = BleuMetric()
        checked = 0
        while checked < 100:
            refs = random_sentences(rng, 3)
            if any(metric.score(a, [b]) == 100.0 for a, b in itertools.permutations(refs, 2)):
                continue
            diverse = [refs[1], refs[2], refs[0]]
            diverse_score = multi_score(diverse, refs, metric).score
            for out in diverse:
                triple = multi_score([out, out, out], refs, metric).score
                assert triple < diverse_score + 1e-9
            checked += 1

    def test_degenerate_quality_zero(self):
        refs = ["aa bb cc", "dd ee ff", "gg aa bb"]
        outs = ["xx yy zz", "zz xx yy", "yy zz xx"]
        assert multi_score(outs, refs, BleuMetric()).score == 0.0

    def test_matching_confirmed_by_brute_force(self):
        rng = np.random.default_rng(8)
        metric = ChrfMetric()
        for _ in range(20):
            refs = random_sentences(rng, 3)
            outs = random_sentences(rng, 3)
            result = multi_score(outs, refs, metric)
            assert brute_force_matching(result.matrix).total == result.matching.total


class TestEvalInstance:
    def test_validates_empty_reference(self):
        with pytest.raises(ValueError):
            EvalInstance(id="x", references=("a", ""), outputs=())

    def test_validates_empty_output(self):
        with pytest.raises(ValueError):
            EvalInstance(id="x", references=("a",), outputs=(" ",))

    def test_reference_only_instances_allowed(self):
        inst = EvalInstance(id="x", references=("a b",))
        assert inst.outputs == ()

    def test_fields_are_texts_only(self):
        assert [f.name for f in dataclasses.fields(EvalInstance)] == ["id", "references", "outputs", "category"]

    def test_equal_texts_share_a_sentence(self):
        inst = EvalInstance(id="x", references=("a b", "c d"), outputs=("c d", "c d"))
        outputs, references = _instance_sentences(inst, True)
        assert outputs[0] is outputs[1] is references[1]


class TestCorpusMultiScore:
    def test_single_instance_mean(self):
        inst = EvalInstance(id="a", references=("x y", "z w"), outputs=("x y", "z w"))
        mean, results = corpus_multi_score([inst], BleuMetric())
        assert mean == results[0].score

    def test_two_instance_mean(self):
        rng = np.random.default_rng(9)
        insts = []
        for k in range(2):
            refs = random_sentences(rng, 3)
            outs = random_sentences(rng, 3)
            insts.append(EvalInstance(id=f"i{k}", references=tuple(refs), outputs=tuple(outs)))
        mean, results = corpus_multi_score(insts, BleuMetric())
        assert mean == pytest.approx((results[0].score + results[1].score) / 2, abs=1e-12)

    def test_three_instance_composition(self):
        rng = np.random.default_rng(10)
        metric = ChrfMetric()
        insts = []
        for k in range(3):
            refs = random_sentences(rng, 3)
            outs = random_sentences(rng, 3)
            insts.append(EvalInstance(id=f"i{k}", references=tuple(refs), outputs=tuple(outs)))
        singles = [multi_score(i.outputs, i.references, metric).score for i in insts]
        mean, _ = corpus_multi_score(insts, metric)
        assert mean == pytest.approx(sum(singles) / 3, abs=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_multi_score([], BleuMetric())

    def test_instance_without_outputs_rejected(self):
        inst = EvalInstance(id="a", references=("x y",))
        with pytest.raises(ValueError):
            corpus_multi_score([inst], BleuMetric())

    UNEQUAL = [
        EvalInstance(id="a", references=("x y", "z w", "u v"), outputs=("x y", "z w")),
        EvalInstance(id="b", references=("x y", "z w"), outputs=("x y", "z w")),
        EvalInstance(id="c", references=("x y",), outputs=("x y", "z w", "u v")),
    ]
    WARNINGS = [
        ("multiscore.multiscore",
         "instance 'a': matching 2 outputs against 3 references (averaging over the smaller side)"),
        ("multiscore.multiscore",
         "instance 'c': matching 3 outputs against 1 references (averaging over the smaller side)"),
    ]

    def test_unequal_instances_warned_in_order_before_scoring(self, caplog, monkeypatch):
        # a built-in metric's first scoring step is counting a block of
        # instances into its tables; the three instances make one block
        warned_at_scoring = []
        real = table._count
        monkeypatch.setattr(table, "_count", lambda *a: warned_at_scoring.append(len(caplog.records)) or real(*a))
        caplog.set_level(logging.WARNING)
        corpus_multi_score(self.UNEQUAL, BleuMetric(), allow_unequal=True)
        assert [(r.name, r.getMessage()) for r in caplog.records] == self.WARNINGS
        assert warned_at_scoring == [2]

    def test_custom_metric_unequal_instances_warned_in_order_before_scoring(self, caplog, monkeypatch):
        # any other metric scores each instance through score_matrix
        warned_at_scoring = []
        real = ms.score_matrix
        monkeypatch.setattr(ms, "score_matrix", lambda *a: warned_at_scoring.append(len(caplog.records)) or real(*a))
        caplog.set_level(logging.WARNING)
        corpus_multi_score(self.UNEQUAL, CountingMetric(BleuMetric()), allow_unequal=True)
        assert [(r.name, r.getMessage()) for r in caplog.records] == self.WARNINGS
        assert warned_at_scoring == [2, 2, 2]

    @pytest.mark.parametrize("metric", [BleuMetric(BleuConfig(max_order=2)), ChrfMetric()], ids=lambda m: m.name)
    def test_built_in_metrics_build_no_sentence(self, metric, monkeypatch):
        def refuse(sentence):
            raise AssertionError(f"Sentence built for {sentence.raw!r}")

        monkeypatch.setattr(Sentence, "__post_init__", refuse)
        inst = EvalInstance(id="a", references=("x y", "Z w", "z w"), outputs=("x y", "x y", "u v"))
        mean, [result] = corpus_multi_score([inst], metric)
        assert result.matrix.weights.shape == (3, 3)
        # the per-pair path does build them, so the patch is seen
        with pytest.raises(AssertionError, match="Sentence built"):
            corpus_multi_score([inst], CountingMetric(metric))

    @pytest.mark.parametrize("side", [3, 6], ids=["enumerated", "solved"])
    @pytest.mark.parametrize("bad, message", [(np.nan, "non-finite"), (100.5, r"\[0, 100\]")],
                             ids=["nan", "range"])
    def test_bad_weights_are_refused_before_matching(self, side, bad, message, monkeypatch):
        # a custom metric's grid is checked as a ScoreMatrix, a built-in
        # metric's stack of grids by the batched matcher
        texts = [f"t{i} u{i}" for i in range(side)]
        inst = EvalInstance(id="a", references=tuple(texts), outputs=tuple(texts))
        lookup = {(a, b): bad if (a, b) == (texts[-1], texts[0]) else 50.0 for a in texts for b in texts}
        with pytest.raises(ValueError, match=message):
            corpus_multi_score([inst], TableMetric(lookup))
        monkeypatch.setattr(table, "_bleu_scores", lambda stats, config: np.full(stats.shape[:-1], bad))
        with pytest.raises(ValueError, match=message):
            corpus_multi_score([inst], BleuMetric())

    def test_bleu_subclass_scores_each_distinct_pair_once(self):
        class CountingBleu(BleuMetric):
            """Overrides ``score``, so the count tables may not stand in for it."""

            def __init__(self):
                super().__init__()
                self.calls = []

            def score(self, hypothesis, references):
                self.calls.append((str(hypothesis), tuple(map(str, references))))
                return super().score(hypothesis, references)

        inst = EvalInstance(id="a", references=("x y", "z w", "z w", "x y z"), outputs=("x y", "u v", "x y", "u v"))
        metric = CountingBleu()
        _, [result] = corpus_multi_score([inst], metric)
        assert len(metric.calls) == len(set(metric.calls)) == 2 * 3
        expected = multi_score(inst.outputs, inst.references, BleuMetric())
        assert np.array_equal(result.matrix.weights, expected.matrix.weights)
        assert result.score == expected.score
