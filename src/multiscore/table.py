"""Block-bounded n-gram count tables: every integer statistic behind a
BLEU or chrF++ score, whether :func:`~multiscore.evaluate_all`,
:func:`~multiscore.corpus_multi_score`, :func:`~multiscore.multi_score`
or a per-pair function of :mod:`multiscore.metrics` asks for it, and the
BLEU and chrF++ formulas that turn statistics into scores.

The instances are cut into blocks of about ``_BLOCK_CELLS`` table cells.
Within a block, an instance's columns are its distinct casing-normalized
texts (:func:`_keys`), outputs and references apart, in first-seen order.
Each n-gram order has one table: a row per distinct (instance, n-gram) that
one of the instance's outputs and at least one other of its texts hold,
and in each cell that column's count of the n-gram. Any other n-gram, held
by no output or by one text alone, adds 0 to every overlap and clip, and
so does each of its extensions (the apriori property: Agrawal & Srikant
1994). So it gets no row, and its positions leave the stream before the
next order is ranked; once no position is left, the remaining orders'
tables are empty. Character tables run over code points, word tables over
token ids, each distinct whitespace chunk of a block tokenized once; BLEU
and chrF++ share the word tables.

Every statistic is a column operation summed per instance with
``np.add.reduceat``: an output's overlap with one reference (chrF++ and
BLEU pairs), its clip against the largest count in any reference (slot
BLEU) or in any other output (Self-BLEU). Lengths and totals come from
each text's symbol count. A BLEU statistics row is ``[hyp_len, ref_len,
matched_1..N, total_1..N]``, a chrF++ row (matched, hypothesis total,
reference total) per order, character orders first. :func:`_bleu_scores`
and :func:`_chrf_scores` score a whole block's rows together, in the
scalar formula's order, so every score is the float one statistics row
alone gives. BLEU's ``math.log`` and ``math.exp`` run once per distinct
pair of counts where a lookup table over the pairs (:func:`_tabled`) is no
larger than the array it serves, and element by element elsewhere.

An n-gram of order n is ranked from (its first n-1 symbols' rank, its
last symbol), and order 0 is the instance. Its sort key also carries the
table column of the text it sits in, in its low ``(width - 1).bit_length()``
bits, so that a gram's positions sort by column, its first and last hold
its smallest and largest, and gram and column come apart by a shift and a
mask. A key is below (positions in the block) x 0x110000 x (table width
rounded up to a power of two), so it fits an int64 at every order, whatever
the alphabet, while positions x that width stays below 2**63 / 0x110000,
about 8e12; a wider block (say, one instance of a million distinct texts of
eight characters) is an error, never a wrapped key. Nothing outlives a
block: each table is dropped once its statistics are taken.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import text
from .metrics import SMOOTH_ADD_ONE

# Cells per block: (output characters) x (distinct outputs + distinct
# references), summed over the block's instances; it bounds the widest
# table. Reports do not depend on it. Measured on eval-small (2,000
# instances of 3 outputs and 2-4 references), one pinned CPU of a 2-CPU
# VM, at 2**15, 2**16, 2**17 and 2**18 cells (39, 20, 10 and 5 blocks):
# a cold `evaluate --format json` took 0.64, 0.60, 0.57 and 0.57 s
# (medians of 16 alternating runs, quartiles 0.05-0.1 s apart) and
# peaked at 34.8, 36.1, 39.0 and 44.5 MB RSS; the tracemalloc peak of
# evaluate_all was 1.6, 2.7, 5.1 and 10.0 MiB. Each block pays a fixed
# cost in numpy calls per order, so fewer blocks run faster, up to
# 2**17. 2**18 is left out for memory: its child RSS is above the ~42 MB
# the benchmark harness reports for eval-small, and its tracemalloc peak
# above the 8e6 bound of test_allocation_peak_stays_within_a_few_blocks.
_BLOCK_CELLS = 1 << 17

_CODE_POINTS = 0x110000  # symbols of the character tables


class Block(NamedTuple):
    """A block's integer statistics, as arrays indexed by instance (its
    position in the block), distinct output o and, for pairs, distinct
    reference r, with the statistics along the last axis.

    ``out_cols[b][k]`` and ``ref_cols[b][j]`` are the columns of output k
    and reference j of ``instances[b]``; positions past an instance's own
    columns hold no statistic of it. ``pair_bleu[b, o, r]`` and
    ``pair_chrf[b, o, r]`` are the BLEU and chrF++ rows of output o against
    reference r alone. ``slot_bleu[b, o]`` is o's BLEU row against every
    reference: each n-gram clipped by its largest count in any one
    reference, and ``ref_len`` the reference length closest to o's, ties
    toward the shorter. ``self_bleu[b, o]`` is o's BLEU row against the
    other outputs, where a repeat of o's text is one of the others; it
    means nothing for an instance with a single output. A statistic whose
    order was 0 in :func:`count_blocks` is None.
    """

    instances: list
    out_cols: list
    ref_cols: list
    pair_bleu: np.ndarray | None
    pair_chrf: np.ndarray | None
    slot_bleu: np.ndarray | None
    self_bleu: np.ndarray | None

    def shapes(self):
        """Yield ``(positions, outs, refs)`` for each (outputs x references)
        grid shape: the positions of the block's instances of that shape,
        and their output and reference columns as (instance, output) and
        (instance, reference) arrays. So ``scores[positions[:, None, None],
        outs[:, :, None], refs[:, None, :]]`` are their grids of
        ``scores[b, o, r]``, a repeated text copying its row or column."""
        groups: dict = {}
        for b, shape in enumerate(zip(map(len, self.out_cols), map(len, self.ref_cols))):
            groups.setdefault(shape, []).append(b)
        for positions in groups.values():
            yield (np.array(positions), np.array([self.out_cols[b] for b in positions]),
                   np.array([self.ref_cols[b] for b in positions]))


def _each(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of every element, one Python call per element. ``math.log``
    and ``math.exp`` give the floats the scalar formula gives; ``np.log``
    and ``np.exp`` may differ from them by an ulp on some CPUs."""
    return np.fromiter(map(fn, values.ravel().tolist()), dtype=np.float64, count=values.size).reshape(values.shape)


def _tabled(fn, formula, a: np.ndarray, b: np.ndarray, a_top: int, b_top: int) -> np.ndarray:
    """``_each(fn, formula(a, b))`` for same-shape arrays of integers in
    0..``a_top`` and 0..``b_top``, with ``fn`` run once per distinct (a, b)
    pair present: their values fill a table indexed by ``a * (b_top + 1) +
    b``, with no sort, and each element reads its pair's cell. ``formula``
    sees the same integers either way, so each value is the same float.
    The table is built only when it has no more cells than ``a`` has
    elements; otherwise ``fn`` runs element by element, as it does for a
    corpus's totals or a single row, whose counts would need a table larger
    than the array."""
    span = b_top + 1
    cells = (a_top + 1) * span
    if cells > a.size:
        return _each(fn, formula(a, b))
    key = a * span + b
    present = np.zeros(cells, dtype=bool)
    present[key] = True
    at = present.nonzero()[0]
    table = np.empty(cells)
    table[at] = _each(fn, formula(*np.divmod(at, span)))
    return table.take(key)


def _bleu_scores(stats, config) -> np.ndarray:
    """BLEU of each statistics row along the last axis of ``stats``:
    ``[hyp_len, ref_len, matched_1..N, total_1..N]``, N =
    ``config.max_order``. The log precisions are added order by order; a
    zero hypothesis length, or a zero matched or total count at any order,
    scores 0.0. Add-one smoothing applies from order 2.

    Only the other rows are scored. Their log precisions and brevity
    penalties come from :func:`_tabled`, one ``math.log`` per distinct
    (matched, total) and one ``math.exp`` per distinct (ref_len, hyp_len)
    where a table pays, and then one ``math.exp`` of its mean log precision
    per row."""
    stats = np.asarray(stats, dtype=np.int64)
    n = config.max_order
    rows = stats.reshape(-1, stats.shape[-1])
    if config.smoothing == SMOOTH_ADD_ONE:
        smoothed = np.zeros(rows.shape[-1], dtype=np.int64)
        smoothed[3:2 + n] = smoothed[3 + n:] = 1  # matched and total from order 2
        rows = rows + smoothed
    # counts are never negative, so a least count of 0 means a zero count
    live = np.minimum(rows[:, 0], rows[:, 2:].min(axis=1)).nonzero()[0]
    rows = rows[live]
    hyp_top, ref_top, *tops = rows.max(axis=0, initial=0).tolist()
    logs = _tabled(math.log, np.divide, rows[:, 2:2 + n], rows[:, 2 + n:], max(tops[:n]), max(tops[n:]))
    # a running sum adds order after order, as the scalar loop does
    log_sum = np.add.accumulate(logs, axis=1)[:, -1]
    brevity = _tabled(math.exp, lambda ref_len, hyp_len: 1.0 - ref_len / hyp_len, rows[:, 1], rows[:, 0],
                      ref_top, hyp_top)
    scores = np.zeros(stats.shape[:-1])
    scores.reshape(-1)[live] = np.minimum(1.0, brevity) * _each(math.exp, log_sum / n) * 100.0
    return scores


def _chrf_scores(stats, beta: float) -> np.ndarray:
    """chrF++ of each statistics row along the last axis of ``stats``:
    (matched, hypothesis total, reference total) per order. Each order's
    precision and recall are added in order; an order with no n-grams on
    either side adds nothing and is not counted. No counted order, or a
    zero precision and recall, scores 0.0."""
    stats = np.asarray(stats, dtype=np.int64)
    matched, hyp_total, ref_total = stats[..., 0::3], stats[..., 1::3], stats[..., 2::3]
    shape = stats.shape[:-1]
    counted = ((hyp_total != 0) | (ref_total != 0)).sum(axis=-1)

    def mean(side):
        # a side without n-grams adds 0.0, which leaves the running sum as it is
        ratios = np.divide(matched, side, out=np.zeros(side.shape), where=side != 0)
        return np.divide(np.add.accumulate(ratios, axis=-1)[..., -1], counted, out=np.zeros(shape), where=counted != 0)

    p, r = mean(hyp_total), mean(ref_total)
    b2 = beta * beta
    return np.divide((1 + b2) * p * r, b2 * p + r, out=np.zeros(shape), where=p + r != 0.0) * 100.0


def _keys(texts, lowercase: bool) -> list[str]:
    """Each text as the metrics read it: its word tokens and its character
    stream (the key without its spaces) are functions of its key alone."""
    if lowercase:
        return [" ".join(text.lower().split()) for text in texts]
    return [" ".join(text.split()) for text in texts]


def _columns(keys) -> tuple[list[int], list[str]]:
    """Each key's column, and the distinct keys in first-seen order."""
    distinct = list(dict.fromkeys(keys))
    if len(distinct) == len(keys):
        return list(range(len(keys))), distinct
    index = {key: col for col, key in enumerate(distinct)}
    return [index[key] for key in keys], distinct


def _blocks(instances, lowercase):
    """Runs of consecutive instances whose tables stay within
    ``_BLOCK_CELLS`` cells (an instance wider than that is a run of its
    own), each instance with its output and reference columns."""
    block, chars, widths = [], 0, (0, 0)
    for inst in instances:
        outs = _columns(_keys(inst.outputs, lowercase))
        refs = _columns(_keys(inst.references, lowercase))
        inst_chars = sum(map(len, outs[1]))  # bounds the instance's rows
        grown = (max(widths[0], len(outs[1])), max(widths[1], len(refs[1])))
        if block and (chars + inst_chars) * sum(grown) > _BLOCK_CELLS:
            yield block
            block, chars, grown = [], 0, (len(outs[1]), len(refs[1]))
        block.append((inst, outs, refs))
        chars, widths = chars + inst_chars, grown
    if block:
        yield block


def _sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per instance, the sum of its rows of ``values``; instance b owns rows
    ``bounds[b]:bounds[b + 1]``, and an instance without rows sums to 0."""
    starts = bounds[:-1]
    filled = starts < bounds[1:]
    sums = np.zeros((len(starts),) + values.shape[1:], dtype=np.int64)
    if filled.any():
        # the filled instances' rows are consecutive and cover every row
        sums[filled] = np.add.reduceat(values, starts[filled], axis=0)
    return sums


class _Layout:
    """Where a block's texts sit: per instance, its distinct outputs, then
    its distinct references, one text after another in a symbol stream."""

    def __init__(self, block):
        self.block = block
        self.n_inst = len(block)
        self.keys = [key for _, outs, refs in block for key in (*outs[1], *refs[1])]
        # distinct texts per (instance, side): an instance's outputs, then its references
        sizes = [len(side[1]) for _, outs, refs in block for side in (outs, refs)]
        self.width_out, self.width_ref = max(sizes[0::2]), max(sizes[1::2])
        sizes = np.array(sizes)
        self.inst = np.arange(self.n_inst).repeat(sizes[0::2] + sizes[1::2])
        # each text's table column: an instance's outputs from 0, its references from width_out
        starts = sizes.cumsum() - sizes
        starts[1::2] -= self.width_out
        self.column = np.arange(len(self.keys)) - starts.repeat(sizes)
        # a sort key holds the column in its low bits
        self.bits = (self.width_out + self.width_ref - 1).bit_length()

    def chars(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The character stream: code points, each text's length, and the
        number of distinct symbols a key may hold."""
        chars = "".join(k.replace(" ", "") for k in self.keys)
        symbols = np.frombuffer(chars.encode("utf-32-le", "surrogatepass"), dtype=np.uint32).astype(np.int64)
        return symbols, np.array([len(k) - k.count(" ") for k in self.keys], dtype=np.int64), _CODE_POINTS

    def words(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The word stream: token ids, each text's length, and the number
        of distinct tokens. A token never spans whitespace, so each
        distinct whitespace chunk of the block is tokenized once."""
        vocab: dict = {}
        chunks: dict = {}
        stream, lengths = [], []
        for key in self.keys:
            start = len(stream)
            for chunk in key.split():
                ids = chunks.get(chunk)
                if ids is None:
                    # letters and digits alone are one token, as tokenize_words gives them
                    tokens = [chunk] if chunk.isalnum() else text.tokenize_words(chunk, lowercase=False)
                    ids = chunks[chunk] = [vocab.setdefault(t, len(vocab)) for t in tokens]
                stream += ids
            lengths.append(len(stream) - start)
        return np.array(stream, dtype=np.int64), np.array(lengths, dtype=np.int64), max(len(vocab), 1)

    def padded(self, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-text ``lengths`` as (instance, output) and (instance,
        reference) arrays, 0 where an instance has fewer columns."""
        padded = np.zeros((self.n_inst, self.width_out + self.width_ref), dtype=np.int64)
        padded[self.inst, self.column] = lengths
        return padded[:, :self.width_out], padded[:, self.width_out:]

    def repeated(self) -> np.ndarray:
        """(instance, output): whether several of the instance's outputs
        have that output's text."""
        out_cols = [outs[0] for _, outs, _ in self.block]
        owner = np.arange(self.n_inst).repeat([len(cols) for cols in out_cols])
        outputs = np.fromiter((col for cols in out_cols for col in cols), dtype=np.int64, count=len(owner))
        copies = np.bincount(owner * self.width_out + outputs, minlength=self.n_inst * self.width_out)
        return copies.reshape(self.n_inst, self.width_out) > 1

    def tables(self, symbols: np.ndarray, lengths: np.ndarray, n_symbols: int, max_order: int):
        """Yield ``(out, ref, bounds)`` for orders 1..``max_order`` of a
        stream: the (row, output) and (row, reference) count tables, and
        ``bounds``, where instance b owns rows ``bounds[b]:bounds[b + 1]``.

        A row is an n-gram that an output and at least one other text of
        its instance hold; an output and a reference with equal text are
        two texts. Any other n-gram adds 0 to every overlap and clip (a
        repeated output's Self-BLEU takes its totals, not its clips), and
        so does each of its extensions, so its positions are dropped
        before the next order. Once none is left, the remaining orders get
        empty tables without any ranking."""
        width = self.width_out + self.width_ref
        if len(symbols) * n_symbols << self.bits >= 1 << 63:
            raise ValueError(f"a block of {len(symbols)} symbols and {width} table columns is too wide to count")
        owner = np.arange(len(lengths)).repeat(lengths)
        inst = self.inst.take(owner)
        left = lengths.cumsum().take(owner) - np.arange(len(symbols))  # symbols to the text's end
        # a position's symbol, and its text's table column in the low bits,
        # as the low part of a key, so that a gram's positions sort by column
        tail = symbols << self.bits | self.column.take(owner)
        del owner  # held through every yield otherwise
        rank = inst.copy()  # order 0: the instance
        at = np.arange(len(symbols))  # where a surviving n-gram starts
        for n in range(1, max_order + 1):
            at = at.take((left.take(at) >= n).nonzero()[0])
            if not len(at):
                counts = np.zeros((0, width), dtype=np.int64)
                bounds = np.zeros(self.n_inst + 1, dtype=np.int64)
                for _ in range(n, max_order + 1):
                    yield counts[:, :self.width_out], counts[:, self.width_out:], bounds
                return
            # the ranking's temporaries die with the call, before the yield
            at, out, ref, bounds = self._ranked(at, rank.take(at) * (n_symbols << self.bits) + tail.take(at + (n - 1)),
                                                rank, inst)
            yield out, ref, bounds

    def _ranked(self, at, keys, rank, inst):
        """One order's tables from ``keys`` of the n-grams starting at
        ``at``: the starts of the surviving n-grams, in row order, the
        (row, output) and (row, reference) tables, and their bounds. Each
        surviving start's ``rank`` becomes its row."""
        width = self.width_out + self.width_ref
        order = keys.argsort()
        at = at.take(order)
        keys = keys.take(order)
        gram, cols = keys >> self.bits, keys & ((1 << self.bits) - 1)
        del keys, order
        # each gram's entries run edges[g]:edges[g + 1], and its first and
        # last hold its smallest and largest column; it survives when the
        # first is an output's and the last another text's
        edges = np.concatenate(([0], (gram[1:] != gram[:-1]).nonzero()[0] + 1, [len(at)]))
        first = cols.take(edges[:-1])
        alive = ((first < self.width_out) & (first != cols.take(edges[1:] - 1))).nonzero()[0]
        firsts = edges.take(alive)
        sizes = edges.take(alive + 1) - firsts
        row = np.arange(len(alive)).repeat(sizes)
        # the surviving grams' entries, run after run
        kept = np.arange(len(row)) + (firsts - (sizes.cumsum() - sizes)).repeat(sizes)
        bounds = inst.take(at.take(firsts)).searchsorted(np.arange(self.n_inst + 1))
        at = at.take(kept)
        rank[at] = row
        counts = np.bincount(row * width + cols.take(kept), minlength=len(alive) * width).reshape(-1, width)
        # contiguous copies: the pair sums run slower on strided views
        return at, counts[:, :self.width_out].copy(), counts[:, self.width_out:].copy(), bounds


def _windows(lengths: np.ndarray, n: int) -> np.ndarray:
    """The number of n-grams in texts of ``lengths`` symbols."""
    return np.maximum(lengths - (n - 1), 0)


def _closest(lengths: np.ndarray, allowed: np.ndarray, hyp: np.ndarray) -> np.ndarray:
    """Per hypothesis length, the allowed length closest to it, ties
    toward the shorter; ``lengths`` and ``allowed`` broadcast to
    (*hyp.shape, candidates)."""
    big = int(lengths.max(initial=0)) + 1
    cost = np.abs(lengths - hyp[..., None]) * big + lengths
    return np.where(allowed, cost, np.iinfo(np.int64).max).min(axis=-1) % big


def _pairs(out: np.ndarray, ref: np.ndarray, bounds: np.ndarray, into: np.ndarray) -> None:
    """Fill ``into[b, o, r]`` with one order's (instance, output,
    reference) overlaps."""
    for o in range(out.shape[1]):
        into[:, o] = _sums(np.minimum(out[:, [o]], ref), bounds)


def count_blocks(instances, lowercase: bool, *, char_order: int = 0, word_order: int = 0,
                 pair_order: int = 0, slot_order: int = 0, self_order: int = 0):
    """Yield a :class:`Block` for each block of ``instances``, in corpus
    order. A statistic whose order is 0 is not taken, and no table is built
    that no statistic reads.

    :param char_order: chrF++ character orders 1..``char_order``.
    :param word_order: chrF++ word orders 1..``word_order``.
    :param pair_order: BLEU orders of the pair statistics.
    :param slot_order: BLEU orders of the slot statistics.
    :param self_order: BLEU orders of the Self-BLEU statistics.
    """
    for block in _blocks(instances, lowercase):
        yield _count(block, char_order, word_order, pair_order, slot_order, self_order)


def _chrf_totals(into: np.ndarray, n: int, out_len: np.ndarray, ref_len: np.ndarray) -> None:
    """Fill chrF++'s hypothesis and reference totals of order n,
    ``into[b, o, r, 1]`` and ``into[b, o, r, 2]``."""
    into[..., 1] = _windows(out_len, n)[:, :, None]
    into[..., 2] = _windows(ref_len, n)[:, None, :]


def _count(block, char_order, word_order, pair_order, slot_order, self_order) -> Block:
    layout = _Layout(block)
    shape = (layout.n_inst, layout.width_out, layout.width_ref)
    # chrF++: (matched, hypothesis total, reference total) per order,
    # character orders first
    chrf = np.empty(shape + (char_order + word_order, 3), dtype=np.int64)
    if char_order:
        chars = layout.chars()
        char_out, char_ref = layout.padded(chars[1])
        for n, (out, ref, bounds) in enumerate(layout.tables(*chars, char_order), start=1):
            _pairs(out, ref, bounds, chrf[..., n - 1, 0])
            _chrf_totals(chrf[..., n - 1, :], n, char_out, char_ref)

    pair_bleu = slot_bleu = self_bleu = None
    n_words = max(word_order, pair_order, slot_order, self_order)
    if n_words:
        words = layout.words()
        word_out, word_ref = layout.padded(words[1])
        totals = [_windows(word_out, n) for n in range(1, n_words + 1)]
        if pair_order:
            # BLEU: hypothesis length, reference length, matches and totals per order
            pair_bleu = np.empty(shape + (2 + 2 * pair_order,), dtype=np.int64)
            pair_bleu[..., 0] = word_out[:, :, None]
            pair_bleu[..., 1] = word_ref[:, None, :]
        slot_clips, self_clips = [], []
        for n, (out, ref, bounds) in enumerate(layout.tables(*words, n_words), start=1):
            if n <= pair_order:
                _pairs(out, ref, bounds, pair_bleu[..., 1 + n])
                pair_bleu[..., 1 + pair_order + n] = totals[n - 1][:, :, None]
            if n <= word_order:
                chrf_n = chrf[..., char_order + n - 1, :]
                if n <= pair_order:
                    chrf_n[..., 0] = pair_bleu[..., 1 + n]
                else:
                    _pairs(out, ref, bounds, chrf_n[..., 0])
                _chrf_totals(chrf_n, n, word_out, word_ref)
            if n <= slot_order:
                slot_clips.append(_sums(np.minimum(out, ref.max(axis=1, keepdims=True)), bounds))
            if n <= self_order:
                # min(count, largest count in any other output) is min(count,
                # second largest count in the row): the row's largest once its
                # first largest is set aside
                first = out.argmax(axis=1)[:, None] == np.arange(out.shape[1])
                second = np.where(first, 0, out).max(axis=1, keepdims=True, initial=0)
                self_clips.append(_sums(np.minimum(out, second), bounds))
        if slot_order:
            n_refs = np.array([len(refs[1]) for _, _, refs in block])
            valid_ref = np.arange(layout.width_ref) < n_refs[:, None]
            slot_len = _closest(word_ref[:, None, :], valid_ref[:, None, :], word_out)
            slot_bleu = np.stack([word_out, slot_len, *slot_clips, *totals[:slot_order]], axis=-1)
        if self_order:
            # Self-BLEU: the others are the other outputs, and a repeated
            # output's text is one of its own others, all of whose n-grams
            # it matches
            n_outs = np.array([len(outs[1]) for _, outs, _ in block])
            repeated = layout.repeated()
            others = (np.arange(layout.width_out) < n_outs[:, None])[:, None, :]
            others = others & (~np.eye(layout.width_out, dtype=bool) | repeated[:, :, None])
            self_len = _closest(word_out[:, None, :], others, word_out)
            self_matched = [np.where(repeated, total, clips) for total, clips in zip(totals, self_clips)]
            self_bleu = np.stack([word_out, self_len, *self_matched, *totals[:self_order]], axis=-1)
    return Block(
        instances=[inst for inst, _, _ in block],
        out_cols=[outs[0] for _, outs, _ in block],
        ref_cols=[refs[0] for _, _, refs in block],
        pair_bleu=pair_bleu,
        pair_chrf=chrf.reshape(shape + (-1,)) if char_order or word_order else None,
        slot_bleu=slot_bleu,
        self_bleu=self_bleu,
    )
