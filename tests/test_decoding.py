"""The n-gram model and the four set-decoding strategies."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiscore.decoding import (
    BOS,
    EOS,
    NGramLM,
    beam_search,
    generate_ensemble,
    generate_random,
    generate_top3_beam,
    generate_topk_random,
    train_ngram,
)
from oracles import oracle_distribution, enumerate_sequences, oracle_sample_set


def fixed_model(rows, order=2, add_k=0.0):
    return train_ngram([r.split() for r in rows], order=order, add_k=add_k)


class TestTrainNgram:
    def test_single_continuation(self):
        lm = fixed_model(["a b"], add_k=0.0)
        d = lm.next_distribution(("a",))
        assert d[lm.vocabulary.index("b")] == 1.0

    def test_symmetric_continuations(self):
        lm = fixed_model(["a b", "a c"], add_k=0.0)
        d = lm.next_distribution(("a",))
        assert d[lm.vocabulary.index("b")] == pytest.approx(0.5)
        assert d[lm.vocabulary.index("c")] == pytest.approx(0.5)

    def test_add_k_formula(self):
        # corpus ["a b"], order 2, add_k 0.1, vocab {a, b, EOS}:
        # P(b | a) = (1 + 0.1) / (1 + 0.1 * 3)
        lm = fixed_model(["a b"], add_k=0.1)
        assert lm.vocabulary == (EOS, "a", "b")
        d = lm.next_distribution(("a",))
        assert d[lm.vocabulary.index("b")] == pytest.approx(1.1 / 1.3, abs=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_ngram([], order=2)

    def test_reserved_symbols_rejected(self):
        with pytest.raises(ValueError):
            train_ngram([[EOS]], order=1)

    def test_distributions_sum_to_one(self):
        rng = np.random.default_rng(12)
        vocab = list("abcdef")
        corpus = [[vocab[i] for i in rng.integers(0, 6, size=rng.integers(1, 8))] for _ in range(30)]
        for order in (1, 2, 3):
            for add_k in (0.0, 0.1, 1.0):
                lm = train_ngram(corpus, order=order, add_k=add_k)
                for _ in range(30):
                    ctx = tuple(vocab[i] for i in rng.integers(0, 6, size=rng.integers(0, 5)))
                    assert abs(lm.next_distribution(ctx).sum() - 1.0) < 1e-9

    def test_context_uses_last_order_minus_one_tokens(self):
        lm = fixed_model(["x a b", "y a c"], order=2, add_k=0.0)
        long_ctx = ("q", "r", "s", "a")
        short_ctx = ("a",)
        assert np.array_equal(lm.next_distribution(long_ctx), lm.next_distribution(short_ctx))

    def test_unseen_context_with_smoothing_is_uniform(self):
        lm = fixed_model(["a b"], order=2, add_k=0.5)
        d = lm.next_distribution(("b",))  # "b" never occurs as context start
        # counts: b -> EOS once; so not uniform. pick truly unseen context token
        lm2 = fixed_model(["a b"], order=3, add_k=0.5)
        d2 = lm2.next_distribution(("b", "a"))
        assert np.allclose(d2, np.full(len(lm2.vocabulary), 1 / len(lm2.vocabulary)))


class TestModelValidation:
    def test_counted_token_outside_the_vocabulary(self):
        with pytest.raises(ValueError, match=r"context \('a',\): counted token 'b' is not in the vocabulary"):
            NGramLM(2, (EOS, "a"), {("a",): {"b": 1}})

    def test_negative_count(self):
        with pytest.raises(ValueError, match=r"context \('a',\): token 'a' has the count -1"):
            NGramLM(2, (EOS, "a"), {("a",): {"a": -1, EOS: 2}})

    def test_context_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=r"context \('x', 'a'\) has 2 tokens; an order-2 model's contexts have 1"):
            NGramLM(2, (EOS, "a"), {("x", "a"): {"a": 1}})

    def test_duplicated_vocabulary_token(self):
        with pytest.raises(ValueError, match="vocabulary lists the token 'a' twice"):
            NGramLM(2, (EOS, "a", "b", "a"), {("a",): {"b": 1}})


class TestSharedDistributions:
    def test_at_most_one_distribution_per_training_context_plus_the_prior(self):
        lm = fixed_model(["a b c", "b c a", "c c"], order=3, add_k=0.1)
        for seed in range(5):
            generate_random(lm, seed=seed, max_len=20)
            generate_topk_random(lm, k=2, seed=seed, max_len=20)
        generate_top3_beam(lm, beam_width=6, max_len=8)
        assert len(lm._distributions) <= len(lm.counts) + 1
        unseen = lm.next_distribution(("a", "a"))
        assert lm.next_distribution(("c", "b")) is unseen
        assert lm.next_distribution(("q", "r", "b", "b")) is unseen
        assert lm.next_distribution(("b",)) is lm.next_distribution((BOS, "b"))
        assert lm.next_distribution(("x", "a", "b")) is not unseen
        with pytest.raises(ValueError):
            unseen[0] = 1.0  # shared, so read-only


_WORDS = [f"t{i}" for i in range(12)]


@settings(deadline=None, max_examples=150)
@given(
    corpus=st.lists(st.lists(st.sampled_from(_WORDS), max_size=6), min_size=1, max_size=6),
    order=st.integers(1, 4),
    add_k=st.sampled_from([0.0, 0.1, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    max_len=st.integers(1, 10),
)
# twelve word types: every k up to |V| = 13, past the 8 elements where
# numpy's sum turns pairwise
@example(corpus=[_WORDS[:9], _WORDS[3:], _WORDS[::2]], order=2, add_k=0.1, seed=7, max_len=10)
@example(corpus=[_WORDS[:9], _WORDS[3:], []], order=3, add_k=0.0, seed=20210811, max_len=10)
def test_sampling_equals_the_per_draw_sampler(corpus, order, add_k, seed, max_len):
    # one model decoded at every k in turn, so nothing built for one k
    # may serve another
    lm = train_ngram(corpus, order=order, add_k=add_k)
    for ctx in ([], corpus[0], ["t11"] * 3):
        assert np.array_equal(lm.next_distribution(ctx), oracle_distribution(lm, ctx))
    for top_k in [None, *range(1, len(lm.vocabulary) + 1)]:
        sentences, flags = oracle_sample_set(lm, seed, max_len, top_k)

        def decode():
            if top_k is None:
                return generate_random(lm, seed=seed, max_len=max_len)
            return generate_topk_random(lm, k=top_k, seed=seed, max_len=max_len)

        if all(sentences):
            got = decode()
            assert (got.sentences, got.flags) == (sentences, flags)
        else:  # every redraw of some sample was empty
            with pytest.raises(ValueError, match="empty sentence"):
                decode()
    assert len(lm._distributions) <= len(lm.counts) + 1


class TestBeamSearch:
    def test_width_one_is_greedy(self):
        lm = fixed_model(["a b c", "a b d", "a x"], order=2, add_k=0.0)
        hyps = beam_search(lm, beam_width=1, max_len=10, alpha=0.0)
        # greedy: argmax at each step
        tokens = []
        for _ in range(10):
            d = lm.next_distribution(tuple(tokens))
            idx = int(np.argmax(d))
            if lm.vocabulary[idx] == EOS:
                break
            tokens.append(lm.vocabulary[idx])
        assert len(hyps) == 1
        assert hyps[0].tokens == tuple(tokens)

    def test_exhaustive_width_matches_enumeration(self):
        lm = fixed_model(["a b", "b a", "a", "b b b"], order=2, add_k=0.0)
        sequences = enumerate_sequences(lm, max_len=4)
        width = len(sequences) + 5
        hyps = beam_search(lm, beam_width=width, max_len=4, alpha=0.0)
        expected = sorted(
            ((tuple(t), lp) for t, lp in sequences),
            key=lambda x: (-x[1], x[0]),
        )
        got = [(h.tokens, h.logp) for h in hyps]
        assert len(got) == len(expected)
        for (etok, elp), (gtok, glp) in zip(expected, got):
            assert etok == gtok
            assert glp == pytest.approx(elp, abs=1e-9)

    def test_three_nonzero_sequences_in_score_order(self):
        lm = fixed_model(["a b", "a c", "d"], order=2, add_k=0.0)
        hyps = beam_search(lm, beam_width=8, max_len=5, alpha=0.0)
        texts = [h.text for h in hyps]
        assert sorted(texts) == ["a b", "a c", "d"]
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)

    def test_length_penalty_ranking(self):
        # two finished hypotheses, lengths 2 and 8: with alpha = 1 the longer
        # one must rank first despite lower raw log-probability
        lp2 = math.log(0.20) / ((5 + 2) / 6)
        lp8 = math.log(0.12) / ((5 + 8) / 6)
        assert lp8 > lp2
        assert lp8 == pytest.approx(-0.9785831705538882, abs=1e-12)
        assert lp2 == pytest.approx(-1.3795182106578001, abs=1e-12)

    def test_beam_monotonicity_on_enumerable_models(self):
        lm = fixed_model(["a b c", "b a", "c", "a a"], order=2, add_k=0.05)
        best = None
        for width in range(1, 12):
            hyps = beam_search(lm, beam_width=width, max_len=4, alpha=0.6)
            if not hyps:
                continue
            top = hyps[0].score
            if best is not None:
                assert top >= best - 1e-12
            best = top

    def test_invalid_parameters(self):
        lm = fixed_model(["a"])
        with pytest.raises(ValueError):
            beam_search(lm, beam_width=0, max_len=3)
        with pytest.raises(ValueError):
            beam_search(lm, beam_width=2, max_len=0)


class TestGenerateTop3Beam:
    def test_deterministic(self):
        lm = fixed_model(["a b c", "a b d", "b c", "c a"], order=2, add_k=0.1)
        g1 = generate_top3_beam(lm, beam_width=5, max_len=8)
        g2 = generate_top3_beam(lm, beam_width=5, max_len=8)
        assert g1.sentences == g2.sentences

    def test_exactly_three_nonzero_sequences(self):
        lm = fixed_model(["a b", "a c", "d"], order=2, add_k=0.0)
        g = generate_top3_beam(lm, beam_width=6, max_len=5, alpha=0.0)
        assert sorted(g.sentences) == ["a b", "a c", "d"]
        assert g.flags == ()

    def test_degenerate_single_sequence_fills_with_flag(self):
        lm = fixed_model(["a b"], order=2, add_k=0.0)
        g = generate_top3_beam(lm, beam_width=3, max_len=5)
        assert g.sentences == ("a b", "a b", "a b")
        assert "filled_by_repetition" in g.flags

    def test_nothing_finishes_fills_from_unfinished_then_repeats(self):
        # the only sentence is longer than max_len, so one truncated prefix
        # survives and is repeated
        lm = fixed_model(["a b c d e"], order=2, add_k=0.0)
        g = generate_top3_beam(lm, beam_width=4, max_len=3)
        assert g.sentences == ("a b c",) * 3
        assert g.flags == ("filled_by_repetition", "filled_from_unfinished")

    def test_width_below_three_rejected(self):
        lm = fixed_model(["a b"])
        with pytest.raises(ValueError):
            generate_top3_beam(lm, beam_width=2)


class TestGenerateRandom:
    def test_all_mass_on_one_sequence(self):
        lm = fixed_model(["a"], order=2, add_k=0.0)
        g = generate_random(lm, seed=3)
        assert g.sentences == ("a", "a", "a")

    def test_reproducible(self):
        lm = fixed_model(["a b c", "b a", "c c"], order=2, add_k=0.1)
        g1 = generate_random(lm, seed=7, max_len=12)
        g2 = generate_random(lm, seed=7, max_len=12)
        assert g1 == g2
        g3 = generate_random(lm, seed=8, max_len=12)
        assert g1.sentences != g3.sentences  # overwhelmingly likely

    def test_empirical_frequencies_within_three_sigma(self):
        lm = fixed_model(["a b", "a c", "a c"], order=2, add_k=0.0)
        d = lm.next_distribution(("a",))
        rng = np.random.default_rng(123)
        n = 10000
        counts = {tok: 0 for tok in lm.vocabulary}
        from multiscore.decoding import _sample_tokens

        cdfs = {}
        for _ in range(n):
            tokens, _tr = _sample_tokens(lm, rng, max_len=5, top_k=None, cdfs=cdfs)
            # first token after "a" in each sample: sample full sequences and
            # look at the continuation of the deterministic first token "a"
            assert tokens[0] == "a"
            nxt = tokens[1] if len(tokens) > 1 else EOS
            counts[nxt] += 1
        for tok, p in zip(lm.vocabulary, d):
            expect = n * p
            sigma = math.sqrt(n * p * (1 - p)) if 0 < p < 1 else 0.0
            assert abs(counts[tok] - expect) <= 3 * sigma + 1e-9

    def test_truncation_flag(self):
        lm = fixed_model(["a a a a a a a a a a"], order=1, add_k=0.0)
        # order-1 model: P(a) = 10/11, P(EOS) = 1/11 each step; max_len 2
        # often truncates; flag must appear whenever no EOS was drawn
        g = generate_random(lm, seed=1, max_len=2)
        for s in g.sentences:
            assert len(s.split()) <= 2
        if any(len(s.split()) == 2 for s in g.sentences):
            assert "truncated" in g.flags


class TestGenerateTopkRandom:
    def test_k_one_is_greedy_and_identical(self):
        lm = fixed_model(["a b c", "a b d", "a x"], order=2, add_k=0.0)
        g = generate_topk_random(lm, k=1, seed=5, max_len=10)
        greedy = beam_search(lm, beam_width=1, max_len=10, alpha=0.0)[0]
        assert g.sentences == (greedy.text,) * 3

    def test_full_k_equals_unrestricted_distribution(self):
        lm = fixed_model(["a b", "b a", "a"], order=2, add_k=0.2)
        probs = lm.next_distribution(("a",))
        keep = np.argsort(-probs, kind="stable")[: len(lm.vocabulary)]
        restricted = probs[keep] / probs[keep].sum()
        # topk with k = |V| restricts to everything: same distribution
        assert np.allclose(sorted(restricted, reverse=True), sorted(probs, reverse=True))

    def test_top2_empirical_frequencies(self):
        lm = fixed_model(["a b", "a b", "a c", "a d"], order=2, add_k=0.0)
        d = lm.next_distribution(("a",))
        order = np.argsort(-d, kind="stable")
        keep = order[:2]
        renorm = d[keep] / d[keep].sum()
        rng = np.random.default_rng(321)
        from multiscore.decoding import _sample_tokens

        n = 10000
        counts, cdfs = {}, {}
        for _ in range(n):
            tokens, _tr = _sample_tokens(lm, rng, max_len=4, top_k=2, cdfs=cdfs)
            nxt = tokens[1] if len(tokens) > 1 else EOS
            counts[nxt] = counts.get(nxt, 0) + 1
        for idx, p in zip(keep, renorm):
            tok = lm.vocabulary[int(idx)]
            expect = n * p
            sigma = math.sqrt(n * p * (1 - p)) if 0 < p < 1 else 0.0
            assert abs(counts.get(tok, 0) - expect) <= 3 * sigma + 1e-9
        # tokens outside the top-2 must never be sampled
        outside = set(lm.vocabulary) - {lm.vocabulary[int(i)] for i in keep}
        assert all(counts.get(tok, 0) == 0 for tok in outside)

    def test_probability_ties_keep_token_order(self):
        lm = fixed_model(["a b", "a c", "a d"], order=2, add_k=0.0)
        d = lm.next_distribution(("a",))
        keep = np.argsort(-d, kind="stable")[:2]
        # b, c, d all have probability 1/3; token order must win: b then c
        assert [lm.vocabulary[int(i)] for i in keep] == ["b", "c"]

    def test_invalid_k(self):
        lm = fixed_model(["a"])
        with pytest.raises(ValueError):
            generate_topk_random(lm, k=0, seed=1)


class TestGenerateEnsemble:
    def test_identical_models_identical_sentences(self):
        lm = fixed_model(["a b c", "a b", "b c"], order=2, add_k=0.1)
        g = generate_ensemble([lm, lm, lm], beam_width=4, max_len=8)
        assert len(set(g.sentences)) == 1

    def test_disjoint_corpora_solo_outputs(self):
        models = [
            fixed_model(["aa bb"], order=2, add_k=0.0),
            fixed_model(["cc dd"], order=2, add_k=0.0),
            fixed_model(["ee ff"], order=2, add_k=0.0),
        ]
        g = generate_ensemble(models, beam_width=4, max_len=5)
        for model, sent in zip(models, g.sentences):
            solo = beam_search(model, beam_width=4, max_len=5)[0]
            assert sent == solo.text

    def test_nothing_finishes_fills_from_unfinished(self):
        lm = fixed_model(["a b c d e"], order=2, add_k=0.0)
        g = generate_ensemble([lm, lm, lm], beam_width=4, max_len=3)
        assert g.sentences == ("a b c",) * 3
        assert g.flags == ("filled_from_unfinished",)

    def test_wrong_model_count_rejected(self):
        lm = fixed_model(["a"])
        with pytest.raises(ValueError):
            generate_ensemble([lm, lm])
