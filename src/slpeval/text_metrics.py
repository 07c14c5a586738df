"""Back-translation text metrics: BLEU-1..4, CHRF, ROUGE-L, and WER.

All metrics take id-aligned hypothesis/reference corpora and report
percentages. A corpus encodes its tokens as dense ids once, when it is built.
BLEU pools n-gram counts over the corpus (no smoothing: a zero precision at any
order zeroes the score). CHRF pools character n-gram counts per order and
averages the per-order F-scores. Both clip n-gram matches per sentence pair in
numpy batches of about ``_BATCH_UNITS`` units (tokens, or characters whose ids
are their code points), counting every order from one sort of packed keys, and
from more for units too wide to pack all orders in 63 bits. ROUGE-L averages
per-sentence LCS F1. WER is token-level Levenshtein with unit costs and its
substitution/deletion/insertion counts, so rates above 100 are possible for
verbose hypotheses. Both run on batches of length-sorted pairs in numpy, a
reference token at a time with a running extremum: ROUGE-L keeps one LCS column
a pair, WER whole tables, traced back together.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

__all__ = [
    "SentenceEdits",
    "TextScore",
    "TokenizedCorpus",
    "WerBreakdown",
    "bleu_corpus",
    "chrf",
    "length_error_correlation",
    "rouge_l",
    "text_scores",
    "tokenize",
    "top_error_words",
    "wer",
]

CHRF_MAX_ORDER = 6
CHRF_BETA = 2.0
#: sentence pairs are counted in batches of about this many units
_BATCH_UNITS = 16384


def tokenize(sentence: str) -> list[str]:
    """Lowercase and split on whitespace runs; punctuation stays attached."""
    return sentence.lower().split()


@dataclass(frozen=True)
class TokenizedCorpus:
    raw: tuple[str, ...]
    #: each sentence's tokens, distinct tokens in first-occurrence order, each token's index
    #: into them, sentence lengths
    sentences: tuple[tuple[str, ...], ...] = field(init=False, compare=False, repr=False)
    vocab: tuple[str, ...] = field(init=False, compare=False, repr=False)
    ids: np.ndarray = field(init=False, compare=False, repr=False)
    lengths: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        sentences = tuple(tuple(tokenize(s)) for s in self.raw)
        index: defaultdict[str, int] = defaultdict()
        index.default_factory = index.__len__  # a new token gets the next id
        lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
        ids = np.fromiter(map(index.__getitem__, chain(*sentences)), np.int32, lengths.sum())
        for name, value in (("sentences", sentences), ("vocab", tuple(index)), ("ids", ids),
                            ("lengths", lengths)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_raw(cls, sentences: list[str]) -> "TokenizedCorpus":
        return cls(tuple(sentences))

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class SentenceEdits:
    substitutions: int
    deletions: int
    insertions: int
    ref_tokens: int
    #: the substituted or deleted reference tokens, in reference order
    error_words: tuple[str, ...]

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions


@dataclass(frozen=True)
class WerBreakdown:
    substitutions: int
    deletions: int
    insertions: int
    ref_tokens: int
    rate: float
    per_sentence: tuple[SentenceEdits, ...]


@dataclass(frozen=True)
class TextScore:
    bleu: tuple[float, float, float, float]
    chrf: float
    rouge: float
    wer: WerBreakdown


def _check_paired(hyps: TokenizedCorpus, refs: TokenizedCorpus) -> None:
    if len(hyps) != len(refs):
        raise ValueError(f"corpus sizes differ: {len(hyps)} hypotheses vs {len(refs)} references")
    if len(refs) == 0:
        raise ValueError("empty corpus")


def _joint_ids(hyps: TokenizedCorpus, refs: TokenizedCorpus) -> list[tuple]:
    """Per side, hypotheses first: token ids in one id space followed by the side's padding
    id (-1, -2), pair offsets and lengths."""
    index = {t: i for i, t in enumerate(refs.vocab)}
    joint = np.array([index.setdefault(t, len(index)) for t in hyps.vocab], np.int32)
    return [(np.append(ids, np.int32(pad)), np.cumsum(c.lengths) - c.lengths, c.lengths)
            for ids, c, pad in ((joint[hyps.ids], hyps, -1), (refs.ids, refs, -2))]


def _clipped_counts(
    sizes: np.ndarray | list[list[int]],
    unit_ids: Callable[[slice], tuple[np.ndarray, Sequence[int]]],
    max_n: int,
) -> list[tuple[int, int, int]]:
    """``(clipped matches, hyp n-grams, ref n-grams)`` per order 1..max_n, pooled.

    ``sizes`` bounds the hypotheses' and the references' unit counts, and
    batches are cut by it; ``unit_ids(pairs)`` gives the non-negative ids of a
    slice of pairs' hypothesis units, then their reference units, and the unit
    count of each of those sentences. A hypothesis n-gram matches at most as
    often as it occurs in the paired reference.

    A batch lays out its units shifted up by two, each sentence followed by its
    side (0 hypothesis, 1 reference), so an n-gram that runs past its sentence
    matches nothing. A round packs ``k`` units of ``bits`` bits from each
    position into the key ``head | unit[i] ... unit[i+k-1] | side``, ``k`` as
    large as 63 bits allow, and sorts the keys once. Order ``done + m`` reads
    the sorted keys without their side and last ``k - m`` units: a run of ``h``
    hypothesis and ``r`` reference equal keys adds ``min(h, r) = (h + r -
    |h - r|) / 2`` matches. The first head is the pair, so one round takes every
    order when ``head bits + max_n * bits <= 62`` (chrF below U+00FE, BLEU ids
    below 4094, up to 2**14 pairs a batch). Wider units take a second round or
    more, whose head is the dense rank of (pair, units so far) in the last sort.
    """
    sizes = np.array(sizes, np.int64)
    pair_off = np.concatenate(([0], np.cumsum(sizes.sum(axis=0))))
    totals = np.zeros((max_n, 3), np.int64)
    start = 0
    while start < sizes.shape[1]:
        stop = int(np.searchsorted(pair_off, pair_off[start] + _BATCH_UNITS, "right")) - 1
        stop = max(stop, start + 1)
        # hypothesis units of the batch's pairs, then their reference units
        units, batch = unit_ids(slice(start, stop))
        batch, pairs = np.asarray(batch, np.int64), stop - start
        # each order's hypothesis and reference n-grams
        totals[:, 1:] += (batch - np.arange(max_n)[:, None]).clip(0).reshape(max_n, 2, -1).sum(2)
        count = len(units) + 2 * pairs
        side = np.arange(count) >= batch[:pairs].sum() + pairs
        padded = np.append(side, np.zeros(max_n, np.int64))
        padded[np.arange(len(units)) + np.arange(2 * pairs).repeat(batch)] = units + 2
        head = np.tile(np.arange(pairs), 2).repeat(batch + 1)
        bits, done = int(units.max(initial=0) + 2).bit_length(), 0
        while done < max_n:
            k = min((62 - int(head.max()).bit_length()) // bits, max_n - done)
            key = head
            for j in range(done, done + k):
                key = key << bits | padded[j : j + count]
            keys = key << 1 | side
            order = np.argsort(keys) if done + k < max_n else None
            keys = np.sort(keys) if order is None else keys[order]
            # keys i and i + 1 share an n-gram of order done + m if change[i] < 2 << (k - m) * bits
            change, balance = keys[1:] ^ keys[:-1], np.cumsum(1 - 2 * (keys & 1))
            for m in range(1, k + 1):
                last = np.append(np.flatnonzero(change >= 2 << (k - m) * bits), count - 1)
                h_minus_r = np.diff(balance[last], prepend=0)
                totals[done + m - 1, 0] += (count - np.abs(h_minus_r).sum()) // 2
            done += k
            if done < max_n:
                head = np.empty(count, np.int64)
                head[order] = np.concatenate(([0], np.cumsum(change >= 2)))
        start = stop
    return [tuple(int(v) for v in row) for row in totals]


def bleu_corpus(hyps: TokenizedCorpus, refs: TokenizedCorpus) -> tuple[float, ...]:
    """Corpus BLEU-1..4 as percentages.

    BLEU-n is the geometric mean of the clipped modified precisions of orders
    1..n times the brevity penalty exp(1 - r/c) when the hypothesis corpus is
    shorter than the reference corpus.
    """
    _check_paired(hyps, refs)
    sides = _joint_ids(hyps, refs)

    def token_ids(pairs: slice) -> tuple[np.ndarray, np.ndarray]:
        batch = lengths[:, pairs]
        units = [ids[off[pairs.start] :][:n] for (ids, off, _), n in zip(sides, batch.sum(axis=1))]
        return np.concatenate(units, dtype=np.int64), batch.ravel()

    lengths = np.array([hyps.lengths, refs.lengths])
    counts = _clipped_counts(lengths, token_ids, 4)
    precisions = [m / t if t else 0.0 for m, t, _ in counts]
    _, hyp_len, ref_len = counts[0]
    brevity = 1.0 if hyp_len >= ref_len or hyp_len == 0 else math.exp(1.0 - ref_len / hyp_len)

    scores, log_sum = [], 0.0
    for n, precision in enumerate(precisions, 1):
        # a zero precision sends the sum to -inf: BLEU-n is 0.0 for this order and every higher one
        log_sum += math.log(precision) if precision else -math.inf
        scores.append(100.0 * brevity * math.exp(log_sum / n))
    return tuple(scores)


def chrf(hyps: TokenizedCorpus, refs: TokenizedCorpus) -> float:
    """Character n-gram F-beta averaged over orders 1..6, beta = 2.

    Precision and recall per order come from corpus-pooled counts over the
    characters ``str.split()`` keeps. Orders with no n-grams on either side
    (corpora shorter than the order) do not enter the average.
    """
    _check_paired(hyps, refs)

    def code_points(pairs: slice) -> tuple[np.ndarray, list[int]]:
        # each sentence is split once, here; "surrogatepass" gives a lone surrogate its
        # own code point, as len() counts it
        kept = ["".join(s.split()) for s in (*hyps.raw[pairs], *refs.raw[pairs])]
        ids = np.frombuffer("".join(kept).encode("utf-32-le", "surrogatepass"), np.uint32)
        return ids.astype(np.int64), list(map(len, kept))

    # batches are cut by raw length, which bounds the characters split() keeps
    sizes = [list(map(len, corpus.raw)) for corpus in (hyps, refs)]
    f_sum, orders = 0.0, 0
    for matched, total_hyp, total_ref in _clipped_counts(sizes, code_points, CHRF_MAX_ORDER):
        if total_hyp == 0 and total_ref == 0:
            continue
        precision = matched / total_hyp if total_hyp else 0.0
        recall = matched / total_ref if total_ref else 0.0
        beta_sq = CHRF_BETA * CHRF_BETA
        denom = beta_sq * precision + recall
        f_sum += (1 + beta_sq) * precision * recall / denom if denom > 0 else 0.0
        orders += 1
    if not orders:
        raise ValueError("empty corpora: no character n-grams on either side")
    return 100.0 * f_sum / orders


def _batches(sides: list[tuple]):
    """Pairs by (reference, hypothesis) length, in batches of ~16 * _BATCH_UNITS table cells:
    each batch's pair indices, then per side its rows right-padded with the padding id."""
    (_, _, hyp_len), (_, _, ref_len) = sides
    order = np.lexsort((hyp_len, ref_len))
    # a batch ends before the pair that would take its padded tables past the budget
    bounds, size, widest = [], 0, 0
    for k, (r, h) in enumerate(zip(ref_len[order].tolist(), hyp_len[order].tolist())):
        widest = max(widest, h)
        if size and (size + 1) * (r + 1) * (widest + 1) > 16 * _BATCH_UNITS:
            bounds.append(k)
            size, widest = 0, h
        size += 1
    for pairs in np.split(order, bounds):
        rows = []
        for ids, off, lens in sides:  # ids[off : off + lens], then ids[-1]
            off, lens = off[pairs], lens[pairs]
            cols = np.arange(lens.max())
            rows.append(ids[np.where(cols < lens[:, None], off[:, None] + cols, len(ids) - 1)])
        yield pairs, *rows


def rouge_l(hyps: TokenizedCorpus, refs: TokenizedCorpus) -> float:
    """Sentence-level LCS F1 over tokens, arithmetic-averaged, as a percentage.

    The LCS table of a batch's pairs (cut as in ``wer``) is kept one column a pair,
    ``col[i]`` the LCS of ``hyp[:i]`` with the reference seen so far. Each reference
    token sets ``col[i]`` to the larger of itself and ``col[i - 1] + (token == hyp[i - 1])``,
    then takes the running maximum down the column.
    """
    _check_paired(hyps, refs)
    sides = _joint_ids(hyps, refs)
    hyp_len, ref_len = sides[0][2], sides[1][2]
    lcs = np.zeros(len(hyps), np.int64)
    for pairs, hyp, ref in _batches(sides):
        hyp = hyp.T  # (H, B): the padding ids -1 and -2 never match
        col = np.zeros((hyp.shape[0] + 1, len(pairs)), np.int32)
        for token in ref.T:
            np.maximum(col[:-1] + (token == hyp), col[1:], out=col[1:])
            np.maximum.accumulate(col, axis=0, out=col)
        lcs[pairs] = col[-1]
    precision, recall = (np.divide(lcs, n, out=np.zeros(len(n)), where=n > 0)
                         for n in (hyp_len, ref_len))
    f = ((hyp_len == 0) & (ref_len == 0)).astype(float)  # a pair of empty sentences scores 1
    np.divide(2.0 * precision * recall, precision + recall, out=f, where=precision + recall > 0)
    return 100.0 * float(np.cumsum(f)[-1]) / len(hyps)  # cumsum adds left to right


def wer(hyps: TokenizedCorpus, refs: TokenizedCorpus) -> WerBreakdown:
    """Word error rate with its substitution/deletion/insertion decomposition per sentence.

    Pairs are batched by ``_batches``. A batch's Levenshtein tables are
    filled one reference position at a time: with ``t[j]`` the
    better of the diagonal and the step from above, the row is
    ``j + min(t[k] - k for k <= j)``. All its pairs are then traced back at
    once, preferring on cost ties the diagonal (match or substitution), then
    deletion, then insertion.
    """
    _check_paired(hyps, refs)
    if not len(refs.ids):
        raise ValueError("empty reference corpus: no reference tokens")
    sides = _joint_ids(hyps, refs)
    (hyp_ids, hyp_off, hyp_len), (ref_ids, ref_off, ref_len) = sides
    edits = np.zeros((len(refs), 3), np.int64)
    errors = []  # positions in ref_ids of substituted or deleted tokens
    for pairs, hyp, ref in _batches(sides):
        width = hyp.shape[1] + 1
        cols = np.arange(width, dtype=np.int32)
        table = np.empty((len(pairs), ref.shape[1] + 1, width), np.int32)
        table[:, 0] = cols
        for i in range(1, ref.shape[1] + 1):
            above, row = table[:, i - 1], table[:, i]
            np.minimum(above[:, :-1] + (ref[:, i - 1 : i] != hyp), above[:, 1:] + 1, out=row[:, 1:])
            row[:, 0] = i
            row -= cols
            np.minimum.accumulate(row, axis=1, out=row)
            row += cols

        # one step of every unfinished pair at a time; a step off the edge of a
        # pair's table reads a cell of another pair's (or the padding id), masked
        flat = table.reshape(-1)
        i, j = ref_len[pairs], hyp_len[pairs]
        corner = np.arange(len(pairs)) * table[0].size
        ref_at, hyp_at = ref_off[pairs] - 1, hyp_off[pairs] - 1
        counts = np.zeros((3, len(pairs)), np.int64)
        while (i | j).any():
            at = corner + i * width + j
            here = flat[at]
            wrong = ref_ids[ref_at + i] != hyp_ids[hyp_at + j]
            diag = (i > 0) & (j > 0) & (here == flat[at - width - 1] + wrong)
            delete = ~diag & (i > 0) & (here == flat[at - width] + 1)
            insert = ~diag & ~delete & (j > 0)
            wrong &= diag
            counts += (wrong, delete, insert)
            errors.append((ref_at + i)[wrong | delete])
            i, j = i - (diag | delete), j - (diag | insert)
        edits[pairs] = counts.T

    words = [refs.vocab[t] for t in refs.ids[np.sort(np.concatenate(errors))].tolist()]
    ends = np.cumsum(edits[:, 0] + edits[:, 1]).tolist()
    per_sentence = tuple(
        SentenceEdits(subs, dels, ins, length, tuple(words[end - subs - dels : end]))
        for (subs, dels, ins), length, end in zip(edits.tolist(), ref_len.tolist(), ends)
    )
    subs, dels, ins = (int(v) for v in edits.sum(axis=0))
    return WerBreakdown(substitutions=subs, deletions=dels, insertions=ins, ref_tokens=len(refs.ids),
                        rate=100.0 * (subs + dels + ins) / len(refs.ids), per_sentence=per_sentence)


def top_error_words(breakdown: WerBreakdown, k: int) -> list[tuple[str, int]]:
    """Reference tokens most often substituted or deleted.

    Sorted by descending count, ties lexicographically; the top ``k`` returned.
    """
    counts = Counter(chain.from_iterable(s.error_words for s in breakdown.per_sentence))
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def length_error_correlation(
    ref_lengths: list[int], rates: list[float]
) -> float | None:
    """Pearson correlation between reference length and per-sentence error rate.

    Returns None (absent) when fewer than two points or either variable has
    zero variance.
    """
    if len(ref_lengths) != len(rates):
        raise ValueError("length/rate lists differ in size")
    n = len(ref_lengths)
    if n < 2:
        return None
    # np.cumsum adds left to right on every Python, as builtin sum() did before 3.12
    dx, dy = (v - np.cumsum(v)[-1] / n for v in (np.array(ref_lengths), np.array(rates, float)))
    var_x, var_y, cov = (float(np.cumsum(a * b)[-1]) for a, b in ((dx, dx), (dy, dy), (dx, dy)))
    if var_x == 0.0 or var_y == 0.0:
        return None
    return cov / math.sqrt(var_x * var_y)


def text_scores(hyps: TokenizedCorpus, refs: TokenizedCorpus) -> TextScore:
    """All four text metrics over one id-aligned corpus pair."""
    return TextScore(
        bleu=bleu_corpus(hyps, refs),  # type: ignore[arg-type]
        chrf=chrf(hyps, refs),
        rouge=rouge_l(hyps, refs),
        wer=wer(hyps, refs),
    )
