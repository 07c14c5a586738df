"""Back-translation text metrics: BLEU-1..4, CHRF, ROUGE-L, and WER.

All metrics take id-aligned hypothesis/reference corpora and report
percentages. A corpus encodes its tokens as dense ids once, when it is built.
BLEU pools n-gram counts over the corpus (no smoothing: a zero precision at any
order zeroes the score). CHRF pools character n-gram counts per order and
averages the per-order F-scores. Both clip n-gram matches per sentence pair and
count them in numpy, in batches of about ``_BATCH_UNITS`` units (tokens, or
characters whose ids are their code points). ROUGE-L averages per-sentence LCS
F1, the LCS from a bit-parallel recurrence (Hyyrö 2004). WER is token-level
Levenshtein with unit costs and its substitution/deletion/insertion counts, so
rates above 100 are possible for verbose hypotheses. Both run on batches of
length-sorted pairs in numpy: ROUGE-L's recurrence over a batch's pairs at
once, WER's tables a row at a time and traced back together.
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
#: one bits per byte value, for ROUGE-L
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], np.uint8)


def tokenize(sentence: str) -> list[str]:
    """Lowercase and split on whitespace runs; punctuation stays attached."""
    return sentence.lower().split()


@dataclass(frozen=True)
class TokenizedCorpus:
    raw: tuple[str, ...]
    sentences: tuple[tuple[str, ...], ...]
    #: distinct tokens in first-occurrence order, each token's index into them, sentence lengths
    vocab: tuple[str, ...] = field(init=False, compare=False, repr=False)
    ids: np.ndarray = field(init=False, compare=False, repr=False)
    lengths: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        index: defaultdict[str, int] = defaultdict()
        index.default_factory = index.__len__  # a new token gets the next id
        lengths = np.fromiter(map(len, self.sentences), np.int64, len(self.sentences))
        ids = np.fromiter(map(index.__getitem__, chain(*self.sentences)), np.int32, lengths.sum())
        for name, value in (("vocab", tuple(index)), ("ids", ids), ("lengths", lengths)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_raw(cls, sentences: list[str]) -> "TokenizedCorpus":
        return cls(
            raw=tuple(sentences),
            sentences=tuple(tuple(tokenize(s)) for s in sentences),
        )

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


def _joint_ids(hyps: TokenizedCorpus, refs: TokenizedCorpus) -> tuple[list[tuple], int]:
    """Per side, hypotheses first: token ids in one id space followed by the side's padding
    id (-1, -2), pair offsets and lengths; and the id space's size."""
    index = {t: i for i, t in enumerate(refs.vocab)}
    joint = np.array([index.setdefault(t, len(index)) for t in hyps.vocab], np.int32)
    sides = [(np.append(ids, np.int32(pad)), np.cumsum(c.lengths) - c.lengths, c.lengths)
             for ids, c, pad in ((joint[hyps.ids], hyps, -1), (refs.ids, refs, -2))]
    return sides, len(index)


def _clipped_counts(
    sizes: np.ndarray | list[list[int]],
    unit_ids: Callable[[slice], tuple[np.ndarray, int, Sequence[int]]],
    max_n: int,
) -> list[tuple[int, int, int]]:
    """``(clipped matches, hyp n-grams, ref n-grams)`` per order 1..max_n, pooled.

    ``sizes`` bounds the hypotheses' and the references' unit counts, and
    batches are cut by it; ``unit_ids(pairs)`` gives the ids in ``range(size)``
    of a slice of pairs' hypothesis units, then their reference units,
    ``size``, and the unit count of each of those sentences. A hypothesis
    n-gram matches at most as often as it occurs in the paired reference. An
    n-gram's id is the (n-1)-gram id at its position times ``size`` plus its
    last unit's id. Each kept n-gram gets the key ``(pair * span + gram) * 2 +
    side``, side 0 for the hypothesis and 1 for the reference, and the keys of
    an order and batch are sorted once: a hypothesis run followed by a run of
    its key + 1 is a match.
    """
    sizes = np.array(sizes, np.int64)
    pair_off = np.concatenate(([0], np.cumsum(sizes.sum(axis=0))))
    totals = np.zeros((max_n, 3), np.int64)
    start = 0
    while start < sizes.shape[1]:
        stop = int(np.searchsorted(pair_off, pair_off[start] + _BATCH_UNITS, "right")) - 1
        stop = max(stop, start + 1)
        # hypothesis units of the batch's pairs, then their reference units
        units, size, batch = unit_ids(slice(start, stop))
        batch = np.asarray(batch, np.int64)
        split = batch[: stop - start].sum()
        pair = np.tile(np.arange(stop - start), 2).repeat(batch)
        side = np.arange(len(units)) >= split
        left = np.cumsum(batch).repeat(batch) - np.arange(len(units))
        gram, span = units, size
        for n in range(1, max_n + 1):
            if n > 1:
                # renumber densely only when this order's keys could reach 2**62
                if (stop - start) * span * size * 2 >= 2**62:
                    grams, gram = np.unique(gram, return_inverse=True)
                    span = len(grams)
                gram, span = gram[:-1] * size + units[n - 1 :], span * size
            keep = left[: len(gram)] >= n
            keys = np.sort(((pair[: len(gram)] * span + gram) * 2 + side[: len(gram)])[keep])
            # the lengths of the runs of equal keys, the first of run k > 0 at starts[k - 1];
            # a reference run (odd key) right after its n-gram's hypothesis run is a match
            starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
            runs = np.diff(np.concatenate(([0], starts, [len(keys)])))
            first = keys[starts]
            at = np.flatnonzero((first & 1 == 1) & (keys[starts - 1] == first - 1)) + 1
            hyp_total = np.count_nonzero(keep[:split])
            totals[n - 1] += (
                np.minimum(runs[at - 1], runs[at]).sum(), hyp_total, len(keys) - hyp_total
            )
        start = stop
    return [tuple(int(v) for v in row) for row in totals]


def bleu_corpus(hyps: TokenizedCorpus, refs: TokenizedCorpus) -> tuple[float, ...]:
    """Corpus BLEU-1..4 as percentages.

    BLEU-n is the geometric mean of the clipped modified precisions of orders
    1..n times the brevity penalty exp(1 - r/c) when the hypothesis corpus is
    shorter than the reference corpus.
    """
    _check_paired(hyps, refs)
    sides, size = _joint_ids(hyps, refs)

    def token_ids(pairs: slice) -> tuple[np.ndarray, int, np.ndarray]:
        batch = lengths[:, pairs]
        units = [ids[off[pairs.start] :][:n] for (ids, off, _), n in zip(sides, batch.sum(axis=1))]
        return np.concatenate(units, dtype=np.int64), size, batch.ravel()

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

    def code_points(pairs: slice) -> tuple[np.ndarray, int, list[int]]:
        # each sentence is split once, here; "surrogatepass" gives a lone surrogate its
        # own code point, as len() counts it
        kept = ["".join(s.split()) for s in (*hyps.raw[pairs], *refs.raw[pairs])]
        ids = np.frombuffer("".join(kept).encode("utf-32-le", "surrogatepass"), np.uint32)
        return ids.astype(np.int64), int(ids.max(initial=0)) + 1, list(map(len, kept))

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


def _padded(ids: np.ndarray, off: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Rows ``ids[off : off + lens]``, right-padded with the padding id ``ids[-1]``."""
    cols = np.arange(lens.max())
    return ids[np.where(cols < lens[:, None], off[:, None] + cols, len(ids) - 1)]


def _batches(ref_len: np.ndarray, hyp_len: np.ndarray) -> list[np.ndarray]:
    """Pairs by (reference, hypothesis) length, in batches of ~16 * _BATCH_UNITS table cells."""
    order = np.lexsort((hyp_len, ref_len))
    # a batch ends before the pair that would take its padded tables past the budget
    bounds, size, widest = [], 0, 0
    for k, (r, h) in enumerate(zip(ref_len[order].tolist(), hyp_len[order].tolist())):
        widest = max(widest, h)
        if size and (size + 1) * (r + 1) * (widest + 1) > 16 * _BATCH_UNITS:
            bounds.append(k)
            size, widest = 0, h
        size += 1
    return np.split(order, bounds)


def rouge_l(hyps: TokenizedCorpus, refs: TokenizedCorpus) -> float:
    """Sentence-level LCS F1 over tokens, arithmetic-averaged, as a percentage.

    Hyyrö's (2004) bit-parallel LCS runs on whole batches (cut as in ``wer``): bit i
    of ``v`` is 0 when ``hyp[: i + 1]`` has a longer LCS with the reference seen so
    far than ``hyp[:i]``. ``v`` is in 56-bit words; bit 56 of a word's sum carries on.
    """
    _check_paired(hyps, refs)
    sides, _ = _joint_ids(hyps, refs)
    hyp_len, ref_len = sides[0][2], sides[1][2]
    ones = np.zeros(len(hyps), np.int64)
    for pairs in _batches(ref_len, hyp_len):
        hyp, ref = (_padded(ids, off[pairs], lens[pairs]) for ids, off, lens in sides)
        # row 0: the hypothesis positions; row j + 1: where the hypothesis holds ref[:, j]
        bits = np.concatenate(((hyp != -1)[:, None], ref[:, :, None] == hyp[:, None]), axis=1)
        packed = np.packbits(bits, axis=-1, bitorder="little")
        words = np.zeros((*packed.shape[:-1], -(-packed.shape[-1] // 7) * 8), np.uint8)
        words[..., np.arange(packed.shape[-1]) * 8 // 7] = packed  # 7 bytes and a 0 a word
        full, masks = words.view("<u8")[:, 0], words.view("<u8")[:, 1:]
        v = full.copy()
        for j in range(ref.shape[1]):
            carry = 0
            for k in range(v.shape[1]):  # u is a subset of v, so v - u is v ^ u, with no borrow
                u = v[:, k] & masks[:, j, k]
                total = v[:, k] + u + carry
                carry = total >> 56
                v[:, k] = (total | v[:, k] ^ u) & full[:, k]
        ones[pairs] = _POPCOUNT[v.view(np.uint8)].sum(axis=1, dtype=np.int64)
    precision, recall = (np.divide(hyp_len - ones, n, out=np.zeros(len(n)), where=n > 0)
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
    sides, _ = _joint_ids(hyps, refs)
    (hyp_ids, hyp_off, hyp_len), (ref_ids, ref_off, ref_len) = sides
    edits = np.zeros((len(refs), 3), np.int64)
    errors = []  # positions in ref_ids of substituted or deleted tokens
    for pairs in _batches(ref_len, hyp_len):
        hyp, ref = (_padded(ids, off[pairs], lens[pairs]) for ids, off, lens in sides)
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
