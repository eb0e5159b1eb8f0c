"""The block-bounded count tables behind every BLEU and chrF++ score:
their integer statistics and grids equal the frozen Counter oracles', and
a report does not depend on where the blocks are cut."""

import collections
import math
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from multiscore import table
from multiscore.assignment import ScoreMatrix, max_weight_matching
from multiscore.metrics import SMOOTH_ADD_ONE, SMOOTH_NONE, BleuConfig, BleuMetric, ChrfConfig, ChrfMetric
from multiscore.multiscore import EvalInstance, corpus_multi_score, multi_score
from multiscore.report import evaluate_all, render
from multiscore.text import Sentence
from oracles import oracle_bleu_score, oracle_bleu_stats, oracle_chrf_score, oracle_chrf_stats

# a small pool makes repeats common; case variants, punctuation, Cyrillic
# and astral-plane words, and words over a wide alphabet (a 12-gram of
# 40-odd symbols would not fit a packed 63-bit key)
_words = st.one_of(
    st.sampled_from(["the", "The", "THE", "cat", "sat", "a", ",", ".", "don't", "«a»", "баку", "Баку", "𝔘𝔫𝔦", "😀x"]),
    st.text(st.characters(min_codepoint=0x21, max_codepoint=0x2FF), min_size=1, max_size=14),
    st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6),
)
_texts = st.lists(_words, min_size=1, max_size=7).map(" ".join).filter(str.strip)


@st.composite
def _corpora(draw):
    pool = draw(st.lists(_texts, min_size=1, max_size=6))

    def text():
        raw = draw(st.sampled_from(pool))
        return draw(st.sampled_from([raw, raw.upper(), raw.title(), f" {raw}  "]))

    return [
        EvalInstance(
            id=f"i{k}",
            references=tuple(text() for _ in range(draw(st.integers(1, 5)))),
            outputs=tuple(text() for _ in range(draw(st.integers(1, 5)))),
        )
        for k in range(draw(st.integers(1, 4)))
    ]


_WIDE = [EvalInstance(id="w", references=("".join(map(chr, range(0x400, 0x430))) + " x",) * 2,
                      outputs=("".join(map(chr, range(0x400, 0x430))) + " x", "y z"))]


@settings(deadline=None, max_examples=150)
@given(
    corpus=_corpora(),
    lowercase=st.booleans(),
    char_order=st.integers(1, 12),
    word_order=st.integers(0, 3),
    pair_order=st.integers(1, 9),
    slot_order=st.integers(1, 9),
    cells=st.sampled_from([1, 200, 1 << 15, table._BLOCK_CELLS]),
)
@example(corpus=_WIDE, lowercase=False, char_order=12, word_order=3, pair_order=9, slot_order=9, cells=1 << 15)
# no two texts share a symbol, so no position outlives order 1
@example(corpus=[EvalInstance(id="d", references=("ef", "gh"), outputs=("ab", "cd"))],
         lowercase=True, char_order=6, word_order=2, pair_order=4, slot_order=4, cells=1 << 15)
# an output equal to a reference, beside a repeated output
@example(corpus=[EvalInstance(id="e", references=("a dog ran", "the cat"), outputs=("the cat", "The  cat", "a dog ran"))],
         lowercase=True, char_order=6, word_order=2, pair_order=4, slot_order=4, cells=1 << 15)
@example(corpus=[EvalInstance(id="one", references=("the mat sat",), outputs=("the cat sat",))],
         lowercase=False, char_order=6, word_order=2, pair_order=4, slot_order=4, cells=1)
@example(corpus=[EvalInstance(id="astral", references=("😀x 𝔘𝔫𝔦𝔳", "𝔘𝔫"), outputs=("𝔘𝔫𝔦 😀x", "𝔘𝔫𝔦", "x😀"))],
         lowercase=False, char_order=6, word_order=2, pair_order=4, slot_order=4, cells=1 << 15)
def test_statistics_equal_the_oracles(corpus, lowercase, char_order, word_order, pair_order, slot_order, cells):
    chrf_config = ChrfConfig(char_order=char_order, word_order=word_order)
    with mock.patch.object(table, "_BLOCK_CELLS", cells):
        blocks = list(table.count_blocks(corpus, lowercase, char_order=char_order, word_order=word_order,
                                         pair_order=pair_order, slot_order=slot_order, self_order=pair_order))
    assert [inst for block in blocks for inst in block.instances] == corpus
    for block in blocks:
        for b, inst in enumerate(block.instances):
            outs, refs = inst.outputs, inst.references
            out_cols, ref_cols = block.out_cols[b], block.ref_cols[b]
            for out, o in zip(outs, out_cols):
                for ref, r in zip(refs, ref_cols):
                    assert block.pair_bleu[b, o, r].tolist() == oracle_bleu_stats(out, [ref], pair_order, lowercase)
                    assert block.pair_chrf[b, o, r].tolist() == oracle_chrf_stats(out, [ref], chrf_config, lowercase)
                assert block.slot_bleu[b, o].tolist() == oracle_bleu_stats(out, refs, slot_order, lowercase)
                # the best reference, the first on ties, as evaluate_all picks it
                best = max((block.pair_chrf[b, o, r].tolist() for r in ref_cols),
                           key=lambda s: oracle_chrf_score(s, chrf_config.beta))
                assert best == oracle_chrf_stats(out, refs, chrf_config, lowercase)
            for k, (out, o) in enumerate(zip(outs, out_cols)):
                if len(outs) >= 2:
                    others = outs[:k] + outs[k + 1:]
                    assert block.self_bleu[b, o].tolist() == oracle_bleu_stats(out, others, pair_order, lowercase)


@settings(deadline=None, max_examples=100)
@given(corpus=_corpora(), lowercase=st.booleans(), cells=st.sampled_from([1, 200, 1 << 15, table._BLOCK_CELLS]))
@example(corpus=_WIDE, lowercase=False, cells=1 << 15)
def test_every_table_row_is_held_by_an_output_and_another_text(corpus, lowercase, cells):
    # an n-gram that only one text holds, or that no output holds, matches
    # nothing; neither does any of its extensions, so it gets no row
    with mock.patch.object(table, "_BLOCK_CELLS", cells):
        blocks = list(table._blocks(corpus, lowercase))
    for block in blocks:
        layout = table._Layout(block)
        for stream in (layout.chars(), layout.words()):
            orders = list(layout.tables(*stream, 12))
            assert len(orders) == 12
            for out, ref, bounds in orders:
                assert bounds[0] == 0 and bounds[-1] == len(out) == len(ref)
                held = np.concatenate([out, ref], axis=1) > 0
                assert (held[:, :out.shape[1]].any(axis=1) & (held.sum(axis=1) >= 2)).all()


def test_wide_instance_near_the_last_code_point_equals_the_oracles():
    # keys carry the column: (positions) x 0x110000 x (table width), here
    # with symbols just below U+10FFFF in a 61 x 60 instance, width 121
    rng = np.random.default_rng(17)
    alphabet = [chr(0x10FFFD - k) for k in range(4)]

    def texts(n):
        made = set()
        while len(made) < n:
            made.add(" ".join("".join(rng.choice(alphabet, size=rng.integers(1, 4)))
                              for _ in range(rng.integers(2, 5))))
        return sorted(made)

    outs, refs = texts(61), texts(60)
    inst = EvalInstance(id="wide", references=tuple(refs), outputs=tuple(outs))
    config = ChrfConfig()
    [block] = table.count_blocks([inst], False, char_order=6, word_order=2, pair_order=4, slot_order=4,
                                 self_order=4)
    assert (block.out_cols, block.ref_cols) == ([list(range(61))], [list(range(60))])
    for o, out in enumerate(outs):
        for r, ref in enumerate(refs):
            assert block.pair_bleu[0, o, r].tolist() == oracle_bleu_stats(out, [ref], 4, False)
            assert block.pair_chrf[0, o, r].tolist() == oracle_chrf_stats(out, [ref], config, False)
        assert block.slot_bleu[0, o].tolist() == oracle_bleu_stats(out, refs, 4, False)
        assert block.self_bleu[0, o].tolist() == oracle_bleu_stats(out, outs[:o] + outs[o + 1:], 4, False)


def test_a_key_that_would_pass_int64_is_an_error():
    [block] = table._blocks([EvalInstance(id="a", references=("x y",), outputs=("x z",))], True)
    layout = table._Layout(block)
    symbols, lengths, _ = layout.chars()
    with pytest.raises(ValueError, match="too wide to count"):
        next(layout.tables(symbols, lengths, (1 << 63) // (2 * len(symbols)) + 1, 1))
    # a key keeps the column in its low bits: 3 table columns take a field of 4
    [block] = table._blocks([EvalInstance(id="b", references=("x y", "y z"), outputs=("x z",))], True)
    layout = table._Layout(block)
    symbols, lengths, _ = layout.chars()
    largest = ((1 << 63) - 1) // (4 * len(symbols))
    next(layout.tables(symbols, lengths, largest, 1))
    with pytest.raises(ValueError, match="too wide to count"):
        next(layout.tables(symbols, lengths, largest + 1, 1))


def test_only_the_statistics_asked_for_are_taken(monkeypatch):
    corpus = [EvalInstance(id="a", references=("x y", "Z, w"), outputs=("x y z", "x y z", "w"))]
    [bleu] = table.count_blocks(corpus, True, pair_order=2)
    assert bleu.pair_chrf is None and bleu.slot_bleu is None and bleu.self_bleu is None
    outs, refs = ("x y z", "w"), corpus[0].references
    assert bleu.pair_bleu[0].tolist() == [[oracle_bleu_stats(o, [r], 2) for r in refs] for o in outs]
    # character orders alone tokenize nothing
    monkeypatch.setattr(table.text, "tokenize_words", None)
    [chrf] = table.count_blocks(corpus, True, char_order=3)
    assert chrf.pair_bleu is None and chrf.slot_bleu is None and chrf.self_bleu is None
    config = ChrfConfig(char_order=3, word_order=0)
    assert chrf.pair_chrf[0].tolist() == [[oracle_chrf_stats(o, [r], config) for r in refs] for o in outs]
    [nothing] = table.count_blocks(corpus, True)
    assert nothing[3:] == (None, None, None, None)


# small counts make zeros and equal ratios common; large ones test the
# rounding of each division
_stats_counts = st.one_of(st.integers(0, 3), st.integers(0, 10**6))


def _stats(width):
    """Statistics arrays of ``width`` per row, as (slot,), (instance,
    output) or (instance, output, reference) rows."""
    return arrays(np.int64, array_shapes(min_dims=1, max_dims=3, max_side=4).map(lambda shape: shape + (width,)),
                  elements=_stats_counts)


def _block_stats(width, rows, top):
    """(row, statistic) arrays of ``rows`` rows of counts in 0..``top``,
    each order's matches at most its total, as a block's pairs give them."""

    def build(seed, n_rows, n_top):
        rng = np.random.default_rng(seed)
        n = (width - 2) // 2
        total = rng.integers(0, n_top + 1, (n_rows, n))
        lengths = rng.integers(0, n_top + 1, (n_rows, 2))
        return np.concatenate([lengths, rng.integers(0, total + 1), total], axis=1)

    return st.builds(build, st.integers(0, 2**32 - 1), rows, top)


def _assert_each_row_equals(scores, stats, oracle):
    assert scores.shape == stats.shape[:-1]
    for index in np.ndindex(scores.shape):
        assert scores[index] == oracle(stats[index].tolist())


@settings(deadline=None, max_examples=300)
@given(data=st.data(), max_order=st.integers(1, 9), smoothing=st.sampled_from([SMOOTH_ADD_ONE, SMOOTH_NONE]))
def test_bleu_scores_equal_the_scalar_oracle(data, max_order, smoothing):
    config = BleuConfig(max_order=max_order, smoothing=smoothing)
    width = 2 + 2 * max_order
    stats = data.draw(st.one_of(
        _stats(width),
        # many rows of small counts, whose pairs a lookup table serves
        _block_stats(width, st.integers(200, 600), st.integers(1, 8)),
        # a single row, and corpus-size totals, scored element by element
        _block_stats(width, st.just(1), st.integers(1, 50)),
        _block_stats(width, st.integers(1, 4), st.integers(10**4, 10**6)),
    ))
    _assert_each_row_equals(table._bleu_scores(stats, config), stats, lambda row: oracle_bleu_score(row, config))


def test_bleu_scores_take_one_log_per_distinct_pair(monkeypatch):
    # a block of eval-small's shape: 3 outputs against 2-4 references of 3-9 words
    rng = np.random.default_rng(43)
    corpus = [_words_instance(rng, k, 3, n_ref) for k, n_ref in enumerate(rng.integers(2, 5, 300).tolist())]
    [block] = table.count_blocks(corpus, True, pair_order=4)
    calls = collections.Counter()

    def counted(fn):
        def call(x):
            calls[fn.__name__] += 1
            return fn(x)
        return call

    monkeypatch.setattr(table, "math", types.SimpleNamespace(log=counted(math.log), exp=counted(math.exp)))
    config = BleuConfig()
    scores = table._bleu_scores(block.pair_bleu, config)
    _assert_each_row_equals(scores, block.pair_bleu, lambda row: oracle_bleu_score(row, config))
    rows = block.pair_bleu.reshape(-1, 10)
    smoothed = rows[:, 2:] + [0, 1, 1, 1, 0, 1, 1, 1]
    pairs = set(zip(smoothed[:, :4].ravel().tolist(), smoothed[:, 4:].ravel().tolist()))
    assert 0 < calls["log"] <= len(pairs)
    # one brevity penalty per distinct pair of lengths, and one mean per row
    assert calls["exp"] <= len(set(map(tuple, rows[:, :2].tolist()))) + len(rows)


@pytest.mark.parametrize("smoothing", [SMOOTH_ADD_ONE, SMOOTH_NONE])
@pytest.mark.parametrize("max_order", [1, 4, 9])
def test_bleu_scores_zero_cases(smoothing, max_order):
    config = BleuConfig(max_order=max_order, smoothing=smoothing)
    full = [7, 9] + [5] * max_order + [6] * max_order
    rows = [full, [0] + full[1:]]  # a hypothesis length of 0
    for i in range(max_order):  # a zero match, then a zero total, at each order
        for at in (2 + i, 2 + max_order + i):
            rows.append(full[:at] + [0] + full[at + 1:])
    stats = np.array(rows)
    scores = table._bleu_scores(stats, config)
    _assert_each_row_equals(scores, stats, lambda row: oracle_bleu_score(row, config))
    assert scores[0] > 0.0 and scores[1] == 0.0
    # an unsmoothed zero, or one at order 1, scores 0; add-one lifts the rest
    zeros = [scores[2 + 2 * i + k] == 0.0 for i in range(max_order) for k in range(2)]
    assert zeros == [smoothing == SMOOTH_NONE or i == 0 for i in range(max_order) for _ in range(2)]


@settings(deadline=None, max_examples=300)
@given(data=st.data(), char_order=st.integers(1, 9), word_order=st.integers(0, 3), beta=st.floats(0.25, 8.0))
def test_chrf_scores_equal_the_scalar_oracle(data, char_order, word_order, beta):
    stats = data.draw(_stats(3 * (char_order + word_order)))
    _assert_each_row_equals(table._chrf_scores(stats, beta), stats, lambda row: oracle_chrf_score(row, beta))


@pytest.mark.parametrize("beta", [0.25, 1.0, 2.0, 8.0])
def test_chrf_scores_zero_cases(beta):
    stats = np.array([
        [3, 5, 4, 2, 4, 3, 1, 3, 2],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],  # no order carries n-grams: 0
        [3, 5, 4, 0, 0, 0, 1, 3, 2],  # an order without n-grams is not counted
        [0, 0, 0, 2, 4, 3, 0, 0, 0],
        [0, 5, 4, 0, 4, 3, 0, 3, 2],  # nothing matched: p + r == 0
        [0, 0, 4, 0, 0, 3, 0, 0, 2],  # an empty hypothesis: precision and recall 0
        [2, 0, 4, 2, 4, 0, 1, 3, 2],  # one side empty at some orders
    ])
    scores = table._chrf_scores(stats, beta)
    _assert_each_row_equals(scores, stats, lambda row: oracle_chrf_score(row, beta))
    assert scores[1] == scores[4] == scores[5] == 0.0
    # a skipped order scores as if the row never held it
    assert scores[2] == table._chrf_scores(stats[2, [0, 1, 2, 6, 7, 8]], beta) > 0.0
    assert scores[3] == table._chrf_scores([2, 4, 3], beta) > 0.0


_metrics = st.one_of(
    st.builds(BleuMetric, st.builds(BleuConfig, max_order=st.integers(1, 9))),
    st.builds(ChrfMetric, st.builds(ChrfConfig, char_order=st.integers(1, 8), word_order=st.integers(0, 3),
                                    beta=st.floats(0.25, 8.0))),
)


@settings(deadline=None, max_examples=150)
@given(corpus=_corpora(), lowercase=st.booleans(), metric=_metrics, cells=st.sampled_from([1, 200, 1 << 15, table._BLOCK_CELLS]))
def test_multiscore_grids_equal_the_oracle_grids(corpus, lowercase, metric, cells):
    with mock.patch.object(table, "_BLOCK_CELLS", cells):
        mean, results = corpus_multi_score(corpus, metric, allow_unequal=True, lowercase=lowercase)
    assert [r.instance_id for r in results] == [inst.id for inst in corpus]
    config = metric.config
    for inst, got in zip(corpus, results):
        if isinstance(metric, BleuMetric):
            grid = [[oracle_bleu_score(oracle_bleu_stats(o, [r], config.max_order, lowercase), config)
                     for r in inst.references] for o in inst.outputs]
        else:
            grid = [[oracle_chrf_score(oracle_chrf_stats(o, [r], config, lowercase), config.beta)
                     for r in inst.references] for o in inst.outputs]
        want = max_weight_matching(ScoreMatrix(np.array(grid)))
        assert got.matrix.weights.tolist() == grid
        assert got.matching.edges == want.edges
        assert got.matching.edge_weights == want.edge_weights
        assert got.score == want.total / len(want.edges)
        # one instance on its own, its texts as sentences under the casing
        single = multi_score([Sentence(o, lowercase=lowercase) for o in inst.outputs],
                             [Sentence(r, lowercase=lowercase) for r in inst.references], metric, allow_unequal=True)
        assert single.matrix.weights.tolist() == grid
        assert single.matching == got.matching
        assert single.score == got.score
    assert mean == sum(got.score for got in results) / len(results)


def _words_instance(rng, k, n_out, n_ref, vocab=("red", "Cat", "sat", "mat", "dog", "ran", "far", "big", ",", ".")):
    def sent():
        return " ".join(vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(3, 10)))

    return EvalInstance(id=f"i{k}", references=tuple(sent() for _ in range(n_ref)),
                        outputs=tuple(sent() for _ in range(n_out)))


def test_reports_do_not_depend_on_the_block_cuts():
    rng = np.random.default_rng(41)
    corpus = [_words_instance(rng, k, 3, n_ref) for k, n_ref in enumerate([3, 2, 4, 3, 3, 4, 2])]
    corpus.append(_words_instance(rng, 7, 1, 3))  # a single output: no Self-BLEU
    nbest = _words_instance(rng, 8, 8, 200)
    outputs = [nbest.outputs[j % 8] for j in range(199)] + [nbest.outputs[0].title()]
    corpus.insert(4, EvalInstance(id="nbest", references=nbest.references, outputs=tuple(outputs)))
    corpus += [_words_instance(rng, k, 3, 3) for k in range(9, 12)]
    for lowercase in (True, False):
        # the default bound splits the corpus, the n-best instance in a block
        # beside small ones (blocks of 8 and 4 instances at 2**17 cells)
        blocks = [[inst.id for inst, _, _ in block] for block in table._blocks(corpus, lowercase)]
        assert 1 < len(blocks) < len(corpus)
        assert any("nbest" in ids and len(ids) > 1 for ids in blocks)
        rendered = []
        # one instance a block; the default bound; the whole corpus in one
        for cells in (1, table._BLOCK_CELLS, 10**12):
            with mock.patch.object(table, "_BLOCK_CELLS", cells):
                report = evaluate_all(corpus, allow_unequal=True, lowercase=lowercase)
            rendered.append([render(report, fmt) for fmt in ("json", "tsv", "table")])
        assert rendered[0] == rendered[1] == rendered[2]


def test_allocation_peak_stays_within_a_few_blocks():
    # eval-small's shape: 2,000 instances of 3 outputs and 2-4 references,
    # 4-11 words each. Measured 5.2 MB at the default bound of 2**17 cells;
    # 9.9 MB at 2**18, which this bound rules out; one block for the whole
    # corpus peaks at 39 MB
    vocab = ("red", "cat", "sat", "mat", "dog", "ran", "far", "big", "sky", "old", "town", "blue")
    rng = np.random.default_rng(42)

    def sent():
        return " ".join(vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(4, 12)))

    corpus = [EvalInstance(id=f"s{k}", references=tuple(sent() for _ in range(int(rng.integers(2, 5)))),
                           outputs=tuple(sent() for _ in range(3))) for k in range(2000)]
    tracemalloc.start()
    try:
        evaluate_all(corpus, allow_unequal=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
