"""Independent first-principles scorers used as test oracles.

Everything here is written directly from the metric definitions with
collections.Counter and math, and deliberately shares no code with the
library implementations it verifies. The one exception is the library's
word tokenizer in :func:`oracle_bleu_stats` and :func:`oracle_chrf_stats`,
so that they read punctuation and any Unicode as the count tables do.
"""

import math
from collections import Counter
from itertools import permutations

import numpy as np
from scipy.optimize import linear_sum_assignment

from multiscore.text import tokenize_words


def toks(s):
    return s.lower().split()


def ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def oracle_sentence_bleu(hyp, refs, smooth=True, max_order=4):
    """Clipped-precision BLEU with optional add-one smoothing on orders >= 2.

    Inputs are whitespace-tokenized lowercase strings (oracle fixtures avoid
    punctuation so tokenizers cannot disagree).
    """
    h = toks(hyp)
    c = len(h)
    if c == 0:
        return 0.0
    r = min((abs(len(toks(rf)) - c), len(toks(rf))) for rf in refs)[1]
    logs = []
    for n in range(1, max_order + 1):
        hg = ngrams(h, n)
        total = sum(hg.values())
        clip = Counter()
        for rf in refs:
            for g, cnt in ngrams(toks(rf), n).items():
                clip[g] = max(clip[g], cnt)
        matched = sum(min(cnt, clip[g]) for g, cnt in hg.items())
        if smooth and n >= 2:
            matched += 1
            total += 1
        if matched == 0 or total == 0:
            return 0.0
        logs.append(math.log(matched / total))
    bp = min(1.0, math.exp(1 - r / c))
    return bp * math.exp(sum(logs) / max_order) * 100.0


def oracle_corpus_bleu(pairs, max_order=4):
    """Micro-aggregated unsmoothed BLEU over (hypothesis, references) pairs."""
    matched = [0] * max_order
    total = [0] * max_order
    c_sum = 0
    r_sum = 0
    for hyp, refs in pairs:
        h = toks(hyp)
        c_sum += len(h)
        r_sum += min((abs(len(toks(rf)) - len(h)), len(toks(rf))) for rf in refs)[1]
        for n in range(1, max_order + 1):
            hg = ngrams(h, n)
            clip = Counter()
            for rf in refs:
                for g, cnt in ngrams(toks(rf), n).items():
                    clip[g] = max(clip[g], cnt)
            matched[n - 1] += sum(min(cnt, clip[g]) for g, cnt in hg.items())
            total[n - 1] += sum(hg.values())
    logs = []
    for n in range(max_order):
        if matched[n] == 0 or total[n] == 0:
            return 0.0
        logs.append(math.log(matched[n] / total[n]))
    bp = min(1.0, math.exp(1 - r_sum / c_sum))
    return bp * math.exp(sum(logs) / max_order) * 100.0


def oracle_chrfpp(hyp, ref, char_order=6, word_order=2, beta=2.0):
    """Order-by-order chrF++ over stripped characters plus word n-grams."""
    hs = "".join(hyp.lower().split())
    rs = "".join(ref.lower().split())
    ht, rt = toks(hyp), toks(ref)
    precs, recs = [], []
    for n in range(1, char_order + 1):
        hg = Counter(hs[i : i + n] for i in range(len(hs) - n + 1))
        rg = Counter(rs[i : i + n] for i in range(len(rs) - n + 1))
        th, tr = sum(hg.values()), sum(rg.values())
        if th == 0 and tr == 0:
            continue
        m = sum((hg & rg).values())
        precs.append(m / th if th else 0.0)
        recs.append(m / tr if tr else 0.0)
    for n in range(1, word_order + 1):
        hg, rg = ngrams(ht, n), ngrams(rt, n)
        th, tr = sum(hg.values()), sum(rg.values())
        if th == 0 and tr == 0:
            continue
        m = sum((hg & rg).values())
        precs.append(m / th if th else 0.0)
        recs.append(m / tr if tr else 0.0)
    if not precs:
        return 0.0
    p = sum(precs) / len(precs)
    r = sum(recs) / len(recs)
    if p + r == 0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * p * r / (b2 * p + r) * 100.0


def _order_stats(hyp_chars, ref_chars, hyp_tokens, ref_tokens, char_order, word_order):
    """(matched, hyp total, ref total) per order, character orders first,
    flattened, of two character streams and two token lists."""
    stats = []
    for n in range(1, char_order + 1):
        hg = Counter(hyp_chars[i : i + n] for i in range(len(hyp_chars) - n + 1))
        rg = Counter(ref_chars[i : i + n] for i in range(len(ref_chars) - n + 1))
        stats += [sum((hg & rg).values()), sum(hg.values()), sum(rg.values())]
    for n in range(1, word_order + 1):
        hg, rg = ngrams(hyp_tokens, n), ngrams(ref_tokens, n)
        stats += [sum((hg & rg).values()), sum(hg.values()), sum(rg.values())]
    return stats


def oracle_corpus_chrfpp(pairs, char_order=6, word_order=2, beta=2.0):
    """Micro-aggregated chrF++ over (non-blank hypothesis, references)
    pairs: each segment adds the per-order statistics of its best reference
    under :func:`oracle_chrfpp`, the first on ties."""
    totals = [0] * (3 * (char_order + word_order))
    for hyp, refs in pairs:
        scores = [oracle_chrfpp(hyp, ref, char_order, word_order, beta) for ref in refs]
        best = refs[scores.index(max(scores))]
        stats = _order_stats("".join(toks(hyp)), "".join(toks(best)), toks(hyp), toks(best), char_order, word_order)
        totals = [a + b for a, b in zip(totals, stats)]
    return oracle_chrf_score(totals, beta)


def oracle_self_bleu(outputs, max_order=4, smooth=True):
    """Mean sentence BLEU of each output against all the other outputs."""
    scores = [
        oracle_sentence_bleu(out, outputs[:i] + outputs[i + 1 :], smooth=smooth, max_order=max_order)
        for i, out in enumerate(outputs)
    ]
    return sum(scores) / len(scores)


def oracle_bleu_score(stats, config):
    """BLEU of one ``[hyp_len, ref_len, matched_1..N, total_1..N]`` list, one
    scalar step at a time: the library's formula as it stood before it was
    vectorized, frozen here to check the array form float for float."""
    hyp_len, ref_len = stats[0], stats[1]
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for i in range(config.max_order):
        m, t = stats[2 + i], stats[2 + config.max_order + i]
        if config.smoothing == "add-one" and i >= 1:
            m += 1
            t += 1
        if m == 0 or t == 0:
            return 0.0
        log_sum += math.log(m / t)
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return bp * math.exp(log_sum / config.max_order) * 100.0


def oracle_chrf_score(stats, beta):
    """chrF++ of one flattened (matched, hyp_total, ref_total)-per-order
    list, one scalar step at a time; frozen like :func:`oracle_bleu_score`."""
    precisions, recalls = [], []
    for matched, hyp_total, ref_total in zip(stats[0::3], stats[1::3], stats[2::3]):
        if hyp_total == 0 and ref_total == 0:
            continue  # order carries no n-grams on either side
        precisions.append(matched / hyp_total if hyp_total else 0.0)
        recalls.append(matched / ref_total if ref_total else 0.0)
    if not precisions:
        return 0.0
    # added left to right, as sum() does before Python 3.12 (later ones compensate)
    p_sum = r_sum = 0.0
    for precision, recall in zip(precisions, recalls):
        p_sum += precision
        r_sum += recall
    p = p_sum / len(precisions)
    r = r_sum / len(recalls)
    if p + r == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * p * r / (b2 * p + r) * 100.0


def oracle_bleu_stats(hyp, refs, max_order, lowercase=True):
    """One segment's BLEU statistics, ``[hyp_len, ref_len, matched_1..N,
    total_1..N]``, with ``Counter``s over the library's tokenizer (the
    count tables draw punctuation and any Unicode): matches clipped by the
    largest count in any one reference, ``ref_len`` the reference length
    closest to ``hyp_len``, ties toward the shorter. The library's
    per-segment statistics as they stood before the count tables replaced
    them, frozen here."""
    h = tokenize_words(hyp, lowercase)
    rs = [tokenize_words(r, lowercase) for r in refs]
    ref_len = min((len(r) for r in rs), key=lambda n: (abs(n - len(h)), n))
    matched, total = [], []
    for n in range(1, max_order + 1):
        counts, cap = ngrams(h, n), Counter()
        for r in rs:
            cap |= ngrams(r, n)
        matched.append(sum((counts & cap).values()))
        total.append(sum(counts.values()))
    return [len(h), ref_len, *matched, *total]


def oracle_chrf_stats(hyp, refs, config, lowercase=True):
    """One segment's chrF++ statistics under ``config``, with ``Counter``s
    over the library's tokenizer: those of the reference whose statistics
    score highest by :func:`oracle_chrf_score`, the first on ties. A blank
    hypothesis takes the totals of its shortest reference by characters.
    Frozen like :func:`oracle_bleu_stats`."""
    def streams(text):
        return "".join((text.lower() if lowercase else text).split()), tokenize_words(text, lowercase)

    def stats(ref):
        (hc, ht), (rc, rt) = streams(hyp), streams(ref)
        return _order_stats(hc, rc, ht, rt, config.char_order, config.word_order)

    if not hyp.strip():
        return stats(min(refs, key=lambda r: len(streams(r)[0])))
    return max(map(stats, refs), key=lambda s: oracle_chrf_score(s, config.beta))


def oracle_score_matrix(outputs, references, metric):
    """The pairwise grid by definition: ``metric`` called on every cell."""
    return [[metric.score(out, [ref]) for ref in references] for out in outputs]


def oracle_best_assignment(weights):
    """Exhaustive square-matrix assignment: (best total, row->col tuple)."""
    n = len(weights)
    best = max(
        permutations(range(n)),
        key=lambda p: sum(weights[i][p[i]] for i in range(n)),
    )
    return sum(weights[i][best[i]] for i in range(n)), best


def oracle_lex_min_assignment(weights):
    """The lexicographically smallest optimal edge list of an exactly
    summed (say, small-integer) matrix, by scipy alone: rows are fixed in
    order, and each row takes the smallest column, or else no column, for
    which the optimum with every fixed edge forced still equals the overall
    optimum."""
    w = np.asarray(weights, dtype=float)
    nr, nc = w.shape

    def best(rows, cols):
        if not rows or not cols:
            return 0.0
        sub = w[np.ix_(rows, cols)]
        r, c = linear_sum_assignment(sub, maximize=True)
        return sub[r, c].sum()

    optimum = best(list(range(nr)), list(range(nc)))
    edges, fixed, open_cols = [], 0.0, list(range(nc))
    for row in range(nr):
        rest = list(range(row + 1, nr))
        for col in open_cols:
            others = [c for c in open_cols if c != col]
            if fixed + w[row, col] + best(rest, others) == optimum:
                edges.append((row, col))
                fixed += w[row, col]
                open_cols = others
                break
        # no column keeps the optimum: the row stays unmatched
    return edges


def enumerate_sequences(model, max_len):
    """All nonzero-probability finished sequences as (tokens, logp) pairs,
    by brute-force tree expansion.

    Same boundary convention as the decoders: a prefix that reaches
    max_len tokens is truncated, so finished sequences carry at most
    max_len - 1 word tokens plus the EOS step.
    """
    from multiscore.decoding import EOS

    vocab = model.vocabulary
    eos = vocab.index(EOS)
    out = []

    def walk(tokens, logp, depth):
        if depth >= max_len:
            return  # truncated prefix, can no longer finish
        probs = model.next_distribution(tokens)
        for idx, p in enumerate(probs):
            if p <= 0.0:
                continue
            if idx == eos:
                out.append((tokens, logp + math.log(p)))
            else:
                walk(tokens + (vocab[idx],), logp + math.log(p), depth + 1)

    walk((), 0.0, 0)
    return out


def oracle_distribution(model, context):
    """The add-k next-token distribution of ``context``, built afresh from
    the model's counts on every call."""
    from multiscore.decoding import BOS

    n_vocab = len(model.vocabulary)
    index = {t: i for i, t in enumerate(model.vocabulary)}
    key = () if model.order == 1 else ((BOS,) * (model.order - 1) + tuple(context))[-(model.order - 1):]
    table = model.counts.get(key)
    probs = np.full(n_vocab, model.add_k)
    total = 0
    if table:
        for token, count in table.items():
            probs[index[token]] += count
            total += count
    denom = total + model.add_k * n_vocab
    if denom <= 0.0:
        return np.full(n_vocab, 1.0 / n_vocab)
    return probs / denom


def oracle_sample_set(model, seed, max_len, top_k=None):
    """(sentences, flags) of the set ``generate_random`` (``top_k`` None) or
    ``generate_topk_random`` draws, by the per-draw sampler as it stood
    before distributions and CDFs were shared: every draw builds its
    context's distribution, its top-k ``argsort`` and its ``cumsum``, and
    searches that. Frozen here to check the shared form token for token."""
    from multiscore.decoding import EOS

    vocab = model.vocabulary
    eos = vocab.index(EOS)
    sentences, truncated = [], False
    for k in range(3):
        rng = np.random.default_rng((seed, k))
        for _ in range(100):  # an empty sample is redrawn from the same substream
            tokens, hit_max_len = [], True
            for _ in range(max_len):
                probs = oracle_distribution(model, tokens)
                keep = np.arange(len(vocab))
                if top_k is not None and top_k < len(vocab):
                    keep = np.argsort(-probs, kind="stable")[:top_k]
                    probs = probs[keep] / probs[keep].sum()
                cdf = np.cumsum(probs)
                r = rng.random() * cdf[-1]
                idx = int(keep[min(int(np.searchsorted(cdf, r, side="right")), len(probs) - 1)])
                if idx == eos:
                    hit_max_len = False
                    break
                tokens.append(vocab[idx])
            if tokens:
                break
        truncated = truncated or hit_max_len
        sentences.append(" ".join(tokens))
    return tuple(sentences), ("truncated",) if truncated else ()
