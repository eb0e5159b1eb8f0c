"""The full evaluation battery and its renderings."""

import gc
import json
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from multiscore import table
from multiscore import text as text_module
from multiscore.corpus import Dataset
from multiscore.metrics import BleuConfig, BleuMetric, ChrfConfig, ChrfMetric, SMOOTH_NONE, corpus_bleu, corpus_chrfpp, self_bleu
from multiscore.multiscore import EvalInstance, corpus_multi_score, multi_score
from multiscore.report import evaluate_all, render, round2
from multiscore.text import Sentence
from oracles import (
    oracle_best_assignment,
    oracle_chrfpp,
    oracle_corpus_bleu,
    oracle_corpus_chrfpp,
    oracle_self_bleu,
    oracle_sentence_bleu,
)


def make_instance(k, rng, n_refs=3, n_outs=3):
    vocab = ("red", "cat", "sat", "mat", "dog", "ran", "far", "big", "sky")
    def sent(lo=4, hi=9):
        return " ".join(vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(lo, hi)))
    return EvalInstance(
        id=f"i{k}",
        references=tuple(sent() for _ in range(n_refs)),
        outputs=tuple(sent() for _ in range(n_outs)),
    )


class TestEvaluateAll:
    def test_identity_outputs(self):
        rng = np.random.default_rng(21)
        instances = []
        for k in range(5):
            inst = make_instance(k, rng)
            instances.append(EvalInstance(id=inst.id, references=inst.references, outputs=inst.references))
        report = evaluate_all(instances)
        assert report.quality["bleu"] == pytest.approx(100.0, abs=1e-9)
        assert report.quality["chrfpp"] == pytest.approx(100.0, abs=1e-9)
        assert report.diversity["ms_bleu"] == pytest.approx(100.0, abs=1e-9)
        assert report.diversity["ms_chrf"] == pytest.approx(100.0, abs=1e-9)
        expected_self = sum(self_bleu(i.references) for i in instances) / len(instances)
        assert report.diversity["self_bleu"] == pytest.approx(expected_self, abs=1e-9)

    def test_single_instance_composition_oracle(self):
        # every report number recomputed by composing the module calls
        inst = EvalInstance(
            id="solo",
            references=("the cat sat on the mat", "a cat sat on a mat", "the cat is sitting down"),
            outputs=("the cat sat on a mat", "a cat is sitting", "the dog sat on the mat"),
        )
        report = evaluate_all([inst])
        sent_cfg = BleuConfig()
        corp_cfg = BleuConfig(smoothing=SMOOTH_NONE)
        chrf_cfg = ChrfConfig()
        want_bleu = sum(
            corpus_bleu([(o, inst.references)], corp_cfg) for o in inst.outputs
        ) / 3
        want_chrf = sum(
            corpus_chrfpp([(o, inst.references)], chrf_cfg) for o in inst.outputs
        ) / 3
        want_ms_b = multi_score(inst.outputs, inst.references, BleuMetric(sent_cfg)).score
        want_ms_c = multi_score(inst.outputs, inst.references, ChrfMetric(chrf_cfg)).score
        want_self = self_bleu(inst.outputs, sent_cfg)
        assert report.quality["bleu"] == pytest.approx(want_bleu, abs=1e-9)
        assert report.quality["chrfpp"] == pytest.approx(want_chrf, abs=1e-9)
        assert report.diversity["ms_bleu"] == pytest.approx(want_ms_b, abs=1e-9)
        assert report.diversity["ms_chrf"] == pytest.approx(want_ms_c, abs=1e-9)
        assert report.diversity["self_bleu"] == pytest.approx(want_self, abs=1e-9)

    def test_disjoint_outputs_zero(self):
        inst = EvalInstance(
            id="zz",
            references=("aa bb cc dd", "bb cc dd ee", "cc dd ee ff"),
            outputs=("xx yy zz ww", "yy zz ww xx", "zz ww xx yy"),
        )
        report = evaluate_all([inst])
        assert report.quality["bleu"] == 0.0
        assert report.diversity["ms_bleu"] == 0.0

    def test_internal_consistency_with_per_instance(self):
        rng = np.random.default_rng(22)
        instances = [make_instance(k, rng) for k in range(8)]
        report = evaluate_all(instances)
        assert report.diversity["ms_bleu"] == pytest.approx(
            sum(s.ms_bleu for s in report.per_instance) / len(report.per_instance), abs=1e-9
        )
        assert report.diversity["ms_chrf"] == pytest.approx(
            sum(s.ms_chrf for s in report.per_instance) / len(report.per_instance), abs=1e-9
        )
        selfs = [s.self_bleu for s in report.per_instance if s.self_bleu is not None]
        assert report.diversity["self_bleu"] == pytest.approx(sum(selfs) / len(selfs), abs=1e-9)

    def test_single_output_instances_omit_self_bleu(self):
        rng = np.random.default_rng(23)
        instances = [make_instance(k, rng, n_refs=1, n_outs=1) for k in range(3)]
        report = evaluate_all(instances)
        assert report.diversity["self_bleu"] is None
        assert render(report, "tsv").decode().splitlines()[1].split("\t")[2] == "-"

    def test_unequal_sizes_need_flag(self):
        rng = np.random.default_rng(24)
        inst = make_instance(0, rng, n_refs=3, n_outs=2)
        with pytest.raises(ValueError):
            evaluate_all([inst])
        report = evaluate_all([inst], allow_unequal=True)
        assert 0.0 <= report.diversity["ms_bleu"] <= 100.0

    def test_unequal_sizes_warned_once_per_instance(self, caplog):
        rng = np.random.default_rng(25)
        instances = [
            make_instance(0, rng, n_refs=3, n_outs=2),
            make_instance(1, rng),
            make_instance(2, rng, n_refs=4, n_outs=3),
        ]
        caplog.set_level(logging.WARNING)
        evaluate_all(instances, allow_unequal=True)
        assert [r.getMessage() for r in caplog.records] == [
            "instance 'i0': matching 2 outputs against 3 references (averaging over the smaller side)",
            "instance 'i2': matching 3 outputs against 4 references (averaging over the smaller side)",
        ]

    def test_missing_outputs_rejected(self):
        inst = EvalInstance(id="a", references=("x y",))
        with pytest.raises(ValueError, match="no outputs"):
            evaluate_all([inst])

    @pytest.mark.parametrize("inst, allow_unequal", [
        (EvalInstance(id="a", references=("x y", "z w")), False),
        (EvalInstance(id="a", references=("x y", "z w"), outputs=("x y",)), False),
        (EvalInstance(id="a", references=("x y", "z w")), True),
    ], ids=["no-outputs", "unequal", "no-outputs-allow-unequal"])
    def test_admission_errors_match_corpus_multi_score(self, inst, allow_unequal):
        instances = [make_instance(0, np.random.default_rng(26)), inst]
        with pytest.raises(ValueError) as report_error:
            evaluate_all(instances, allow_unequal=allow_unequal)
        with pytest.raises(ValueError) as corpus_error:
            corpus_multi_score(instances, BleuMetric(), allow_unequal=allow_unequal)
        assert str(report_error.value) == str(corpus_error.value)
        assert str(report_error.value) in (
            "instance 'a' has no outputs to evaluate",
            "instance 'a': 1 outputs vs 2 references (pass allow_unequal to permit)",
        )

    def test_n_best_statistics_once_per_distinct_output(self, monkeypatch):
        rng = np.random.default_rng(28)
        inst = make_instance(0, rng, n_refs=10)
        outputs = make_instance(1, rng).outputs
        # an n-best list: three texts repeated, plus a title-cased copy of one
        inst = EvalInstance(id=inst.id, references=inst.references + ("big, red cat.", "sky big, dog"),
                            outputs=outputs * 3 + outputs[:2] + (outputs[0].title(),))
        assert len(set(inst.outputs)) == 4
        before = [render(evaluate_all([inst], lowercase=lowercase), "json") for lowercase in (True, False)]
        tokenized, counted = [], []
        tokenize_words, blocks = text_module.tokenize_words, table.count_blocks

        def tokenize(raw, lowercase=True):
            tokenized.append(raw)
            return tokenize_words(raw, lowercase)

        def count_blocks(*args, **kwargs):
            for block in blocks(*args, **kwargs):
                counted.append(block)
                yield block

        monkeypatch.setattr(text_module, "tokenize_words", tokenize)
        monkeypatch.setattr(table, "count_blocks", count_blocks)
        for lowercase, report in zip((True, False), before):
            tokenized.clear()
            counted.clear()
            assert render(evaluate_all([inst], lowercase=lowercase), "json") == report

            def key(raw):
                return " ".join((raw.lower() if lowercase else raw).split())

            # each distinct whitespace chunk is tokenized once, an
            # alphanumeric one without a call, and each distinct text is one
            # row of statistics; under lowercasing the title-cased copy is
            # its original's text
            distinct_outputs = {key(t) for t in inst.outputs}
            assert len(distinct_outputs) == (3 if lowercase else 4)
            chunks = {c for t in inst.outputs + inst.references for c in key(t).split()}
            assert sorted(tokenized) == sorted(c for c in chunks if not c.isalnum()) == ["big,", "cat."]
            [block] = counted
            assert block.pair_bleu.shape[1] == block.pair_chrf.shape[1] == block.self_bleu.shape[1] == len(distinct_outputs)
            assert len(block.out_cols[0]) == 12

    def test_cased_and_lowercased_runs_do_not_mix(self):
        rng = np.random.default_rng(27)
        def cased(k):
            inst = make_instance(k, rng)
            refs = tuple(r.title() if i % 2 else r for i, r in enumerate(inst.references))
            return EvalInstance(id=inst.id, references=refs, outputs=tuple(o.upper() for o in inst.outputs[:1]) + inst.outputs[1:])
        instances = [cased(k) for k in range(4)]
        def fresh():
            return [EvalInstance(id=i.id, references=i.references, outputs=i.outputs) for i in instances]
        lower = evaluate_all(instances)
        upper = evaluate_all(instances, lowercase=False)
        assert lower != upper
        assert evaluate_all(instances) == lower == evaluate_all(fresh())
        assert evaluate_all(instances, lowercase=False) == upper == evaluate_all(fresh(), lowercase=False)

    def test_self_bleu_per_instance_not_per_id(self):
        varied = EvalInstance(id="d", references=("a b c", "d e f"), outputs=("a b c", "d e f"))
        repeated = EvalInstance(id="d", references=("a b c", "d e f"), outputs=("x y z", "x y z"))
        report = evaluate_all([varied, repeated])
        assert [s.self_bleu for s in report.per_instance] == [
            self_bleu(varied.outputs), self_bleu(repeated.outputs)
        ]

    def test_no_sentence_outlives_an_evaluation(self):
        rng = np.random.default_rng(28)
        ds = Dataset(instances=tuple(make_instance(k, rng) for k in range(4)))
        gc.collect()
        before = [o for o in gc.get_objects() if isinstance(o, Sentence)]  # held, so no id is reused
        seen = {id(o) for o in before}
        evaluate_all(ds)
        evaluate_all(ds, lowercase=False)
        corpus_multi_score(ds.instances, ChrfMetric())
        gc.collect()
        # ds is still alive, so a Sentence it held would be listed here
        assert [o for o in gc.get_objects() if isinstance(o, Sentence) and id(o) not in seen] == []

    def test_dataset_object_accepted(self):
        rng = np.random.default_rng(26)
        ds = Dataset(instances=tuple(make_instance(k, rng) for k in range(3)))
        report = evaluate_all(ds)
        assert len(report.per_instance) == 3


class TestRound2:
    def test_half_up(self):
        assert round2(54.666666666666664) == "54.67"
        assert round2(0.125) == "0.13"
        assert round2(2.0) == "2.00"
        assert round2(50.1) == "50.10"
        assert round2(100.0) == "100.00"


class TestRender:
    def build_report(self):
        rng = np.random.default_rng(31)
        return evaluate_all([make_instance(k, rng) for k in range(4)])

    def test_deterministic_bytes(self):
        report = self.build_report()
        for fmt in ("json", "tsv", "table"):
            assert render(report, fmt) == render(report, fmt)

    def test_tsv_header_and_shape(self):
        lines = render(self.build_report(), "tsv").decode().splitlines()
        assert lines[0] == "BLEU\tCHRF++\tSelf-B\tMS-B\tMS-C"
        assert len(lines) == 2
        assert len(lines[1].split("\t")) == 5

    def test_json_canonical_and_parseable(self):
        raw = render(self.build_report(), "json")
        payload = json.loads(raw)
        assert set(payload) == {"quality", "diversity", "per_instance", "config"}
        # fixed two-decimal formatting in the raw bytes
        assert b'"beta": 2.00' in raw
        # keys sorted
        assert raw.index(b'"config"') < raw.index(b'"diversity"') < raw.index(b'"quality"')

    def test_rounding_in_rendering(self):
        report = self.build_report()
        text = render(report, "table").decode()
        assert round2(report.diversity["ms_bleu"]) in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(self.build_report(), "yaml")

    def test_config_echo_reproduces_report(self):
        # the config echo plus the same dataset must reproduce the bytes
        rng = np.random.default_rng(32)
        instances = [make_instance(k, rng) for k in range(4)]
        report = evaluate_all(instances)
        cfg = report.config
        again = evaluate_all(
            instances,
            sentence_bleu_config=BleuConfig(**cfg["sentence_bleu"]),
            corpus_bleu_config=BleuConfig(**cfg["corpus_bleu"]),
            chrf_config=ChrfConfig(**cfg["chrf"]),
            allow_unequal=cfg["allow_unequal"],
            lowercase=cfg["lowercase"],
        )
        assert render(report, "json") == render(again, "json")


# A whole report against the independent oracles alone: pairwise grids of
# oracle_sentence_bleu / oracle_chrfpp matched by exhaustive search (square)
# or scipy (ragged), oracle_corpus_bleu / oracle_corpus_chrfpp per output
# slot, and oracle_self_bleu. A small pool makes repeats and ties common,
# and words of disjoint letters ("zz", "xy") make zero-score ties between
# references of different lengths; title-cased copies read as their
# originals under the default lowercasing. No punctuation, so the oracles'
# whitespace tokenizer agrees with the library's.
@st.composite
def _oracle_corpora(draw):
    words = st.sampled_from(["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "zz", "xy"])
    pool = draw(st.lists(st.lists(words, min_size=1, max_size=7).map(" ".join), min_size=1, max_size=5))

    def text():
        raw = draw(st.sampled_from(pool))
        return raw.title() if draw(st.booleans()) else raw

    return [
        EvalInstance(id=f"i{k}", references=tuple(text() for _ in range(draw(st.integers(1, 5)))),
                     outputs=tuple(text() for _ in range(draw(st.integers(1, 5)))))
        for k in range(draw(st.integers(1, 6)))
    ]


def _oracle_matched_mean(weights):
    n_out, n_ref = len(weights), len(weights[0])
    if n_out == n_ref:
        total = oracle_best_assignment(weights)[0]
    else:
        rows, cols = linear_sum_assignment(np.array(weights), maximize=True)
        total = float(np.array(weights)[rows, cols].sum())
    return total / min(n_out, n_ref)


@settings(deadline=None, max_examples=150)
@given(
    corpus=_oracle_corpora(),
    sentence_order=st.integers(1, 6),
    smooth=st.booleans(),
    corpus_order=st.integers(1, 6),
    char_order=st.integers(1, 8),
    word_order=st.integers(0, 3),
    beta=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
def test_report_equals_the_oracle_composition(corpus, sentence_order, smooth, corpus_order, char_order, word_order, beta):
    report = evaluate_all(
        corpus,
        sentence_bleu_config=BleuConfig(max_order=sentence_order, smoothing="add-one" if smooth else SMOOTH_NONE),
        corpus_bleu_config=BleuConfig(max_order=corpus_order, smoothing=SMOOTH_NONE),
        chrf_config=ChrfConfig(char_order=char_order, word_order=word_order, beta=beta),
        allow_unequal=True,
    )
    rows = []
    for inst in corpus:
        bleu = [[oracle_sentence_bleu(o, [r], smooth=smooth, max_order=sentence_order) for r in inst.references]
                for o in inst.outputs]
        chrf = [[oracle_chrfpp(o, r, char_order, word_order, beta) for r in inst.references] for o in inst.outputs]
        self_b = oracle_self_bleu(inst.outputs, sentence_order, smooth) if len(inst.outputs) > 1 else None
        rows.append((inst.id, _oracle_matched_mean(bleu), _oracle_matched_mean(chrf), self_b))
    assert len(report.per_instance) == len(rows)
    for got, (inst_id, ms_b, ms_c, self_b) in zip(report.per_instance, rows):
        assert got.id == inst_id
        assert got.ms_bleu == pytest.approx(ms_b, abs=1e-9)
        assert got.ms_chrf == pytest.approx(ms_c, abs=1e-9)
        assert (got.self_bleu is None) == (self_b is None)
        if self_b is not None:
            assert got.self_bleu == pytest.approx(self_b, abs=1e-9)

    slots = [[(inst.outputs[s], inst.references) for inst in corpus if len(inst.outputs) > s]
             for s in range(max(len(inst.outputs) for inst in corpus))]
    quality_bleu = sum(oracle_corpus_bleu(segments, corpus_order) for segments in slots) / len(slots)
    quality_chrf = sum(oracle_corpus_chrfpp(segments, char_order, word_order, beta) for segments in slots) / len(slots)
    selfs = [self_b for *_, self_b in rows if self_b is not None]
    assert report.quality["bleu"] == pytest.approx(quality_bleu, abs=1e-9)
    assert report.quality["chrfpp"] == pytest.approx(quality_chrf, abs=1e-9)
    assert report.diversity["ms_bleu"] == pytest.approx(sum(r[1] for r in rows) / len(rows), abs=1e-9)
    assert report.diversity["ms_chrf"] == pytest.approx(sum(r[2] for r in rows) / len(rows), abs=1e-9)
    if selfs:
        assert report.diversity["self_bleu"] == pytest.approx(sum(selfs) / len(selfs), abs=1e-9)
    else:
        assert report.diversity["self_bleu"] is None


# Greek capital sigma lowercases by its neighbours: to final "ς" after a
# cased letter and before no cased letter, to "σ" elsewhere. Each text is
# lowercased on its own, as the oracles do, so a Σ at a text's start or
# end, or beside whitespace inside it, reads as that text alone gives it.
_SIGMA_WORDS = ["Σ", "ΣΑ", "ΑΣ", "ΑΣΑ", "ΟΔΟΣ", "ΣΟΦΟΣ", "σοφος"]
_SIGMA_SEPARATORS = [" ", "\n", "\t", "\u2028", "\u00a0"]


@st.composite
def _sigma_corpora(draw):
    def text():
        words = draw(st.lists(st.sampled_from(_SIGMA_WORDS), min_size=1, max_size=5))
        body = words[0] + "".join(draw(st.sampled_from(_SIGMA_SEPARATORS)) + word for word in words[1:])
        return draw(st.sampled_from(["", "Σ", "\n"])) + body + draw(st.sampled_from(["", "Σ", "\u2028"]))

    pool = [text() for _ in range(draw(st.integers(1, 6)))]
    return [
        EvalInstance(id=f"i{k}", references=tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))),
                     outputs=tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))))
        for k in range(draw(st.integers(1, 4)))
    ]


def test_sigma_lowercases_per_text():
    assert table._keys(["ΑΣ\nΒ", "Σ", "ΑΣ\u2028", "\tΣΑ", "ΑΣ\u00a0ΣΑ"], True) == ["ας β", "σ", "ας", "σα", "ας σα"]


@settings(deadline=None, max_examples=100)
@given(corpus=_sigma_corpora())
@example(corpus=[EvalInstance(id="edges", references=("ΣΑΣ", "ΟΔΟΣ\u2028ΣΟΦΟΣ", "ΑΣ\u00a0ΣΑ"),
                              outputs=("ΑΣ\nΣ", "Σ\tΑΣΑΣ", "\nΣΑ ΑΣ\u2028"))])
def test_sigma_at_text_edges_scores_as_the_oracles(corpus):
    report = evaluate_all(corpus, allow_unequal=True)
    assert report.config["lowercase"] is True
    for got, inst in zip(report.per_instance, corpus, strict=True):
        bleu = [[oracle_sentence_bleu(o, [r]) for r in inst.references] for o in inst.outputs]
        chrf = [[oracle_chrfpp(o, r) for r in inst.references] for o in inst.outputs]
        assert got.ms_bleu == pytest.approx(_oracle_matched_mean(bleu), abs=1e-9)
        assert got.ms_chrf == pytest.approx(_oracle_matched_mean(chrf), abs=1e-9)
        if len(inst.outputs) > 1:
            assert got.self_bleu == pytest.approx(oracle_self_bleu(inst.outputs), abs=1e-9)
        else:
            assert got.self_bleu is None
