"""The block-bounded count tables behind evaluate_all: their integer
statistics equal the per-pair functions', and a report does not depend on
where the blocks are cut."""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiscore import table
from multiscore.metrics import ChrfConfig, _bleu_stats, _chrf_score, _chrf_stats
from multiscore.multiscore import EvalInstance
from multiscore.report import evaluate_all, render
from multiscore.text import Sentence

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
    cells=st.sampled_from([1, 200, 1 << 15]),
)
@example(corpus=_WIDE, lowercase=False, char_order=12, word_order=3, pair_order=9, slot_order=9, cells=1 << 15)
def test_statistics_equal_the_per_pair_functions(corpus, lowercase, char_order, word_order, pair_order, slot_order, cells):
    chrf_config = ChrfConfig(char_order=char_order, word_order=word_order)
    with mock.patch.object(table, "_BLOCK_CELLS", cells):
        blocks = list(table.count_blocks(corpus, lowercase, char_order, word_order, pair_order, slot_order))
    assert [inst for block in blocks for inst, _ in block] == corpus
    for inst, counts in (item for block in blocks for item in block):
        outs = [Sentence(t, lowercase) for t in inst.outputs]
        refs = [Sentence(t, lowercase) for t in inst.references]
        for out, o in zip(outs, counts.out_cols):
            for ref, r in zip(refs, counts.ref_cols):
                assert counts.pair_bleu[o][r] == _bleu_stats(out, [ref], pair_order)
                assert counts.pair_chrf[o][r] == _chrf_stats(out, [ref], chrf_config)
            assert counts.slot_bleu[o] == _bleu_stats(out, refs, slot_order)
            # the best reference, the first on ties, as evaluate_all picks it
            best = max((counts.pair_chrf[o][r] for r in counts.ref_cols), key=lambda s: _chrf_score(s, chrf_config.beta))
            assert best == _chrf_stats(out, refs, chrf_config)
        if len(outs) < 2:
            assert counts.self_bleu is None
        for k, (out, o) in enumerate(zip(outs, counts.out_cols)):
            if len(outs) >= 2:
                assert counts.self_bleu[o] == _bleu_stats(out, outs[:k] + outs[k + 1:], pair_order)


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
        rendered = []
        for cells in (1, 10**12):  # one instance a block; the whole corpus in one
            with mock.patch.object(table, "_BLOCK_CELLS", cells):
                report = evaluate_all(corpus, allow_unequal=True, lowercase=lowercase)
            rendered.append([render(report, fmt) for fmt in ("json", "tsv", "table")])
        assert rendered[0] == rendered[1]


def test_allocation_peak_stays_within_a_few_blocks():
    # eval-small's shape: 2,000 instances of 3 outputs and 2-4 references,
    # 4-11 words each. Measured 2.1 MB at the default budget; one block for
    # the whole corpus peaks at 51 MB
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
