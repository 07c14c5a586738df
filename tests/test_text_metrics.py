from __future__ import annotations

import builtins
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from slpeval import text_metrics
from slpeval.cli import main
from slpeval.synth import synth_sentence
from slpeval.text_metrics import (
    CHRF_BETA,
    CHRF_MAX_ORDER,
    TokenizedCorpus,
    bleu_corpus,
    chrf,
    length_error_correlation,
    rouge_l,
    text_scores,
    tokenize,
    top_error_words,
    wer,
)


def corpus(*sentences: str) -> TokenizedCorpus:
    return TokenizedCorpus.from_raw(list(sentences))


sentences_strategy = st.lists(
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=5).map(" ".join),
    min_size=1,
    max_size=4,
)


# ---------------------------------------------------------------- tokenize


def test_tokenize_lowercases_and_splits():
    assert tokenize("Morgen Regen") == ["morgen", "regen"]
    assert tokenize("  und\tregen ") == ["und", "regen"]
    assert tokenize("") == []


# ---------------------------------------------------------------- bleu


def test_bleu_identity_is_100():
    hyps = corpus("morgen regen im norden", "und schnee")
    assert bleu_corpus(hyps, hyps) == (100.0, 100.0, 100.0, 100.0)


def test_bleu_clipping_example():
    scores = bleu_corpus(corpus("a a a"), corpus("a"))
    assert scores[0] == pytest.approx(100.0 / 3.0, abs=1e-6)
    assert scores[1] == 0.0  # no matched bigram, no smoothing


def test_bleu_brevity_penalty():
    # c=2 < r=3, unigram precision 1 -> BLEU-1 = 100 * exp(1 - 3/2)
    scores = bleu_corpus(corpus("a b"), corpus("a b c"))
    assert scores[0] == pytest.approx(100.0 * math.exp(-0.5), abs=1e-9)


def test_bleu_no_brevity_penalty_when_longer():
    scores = bleu_corpus(corpus("a b c d"), corpus("a b"))
    assert scores[0] == pytest.approx(100.0 * 2.0 / 4.0, abs=1e-9)


def test_bleu_zero_at_order_propagates_upward():
    # bigram precision is zero, so orders 2..4 are all zero
    scores = bleu_corpus(corpus("a b"), corpus("b a"))
    assert scores[0] > 0.0
    assert scores[1:] == (0.0, 0.0, 0.0)


def test_bleu_order_monotonicity_can_fail():
    # clipping plus pooling lets a higher order beat a lower one; the classic
    # corpus definition does not guarantee BLEU-n <= BLEU-(n-1)
    scores = bleu_corpus(corpus("a c a"), corpus("c a c"))
    assert scores[0] == pytest.approx(200.0 / 3.0, abs=1e-9)
    assert scores[1] == pytest.approx(100.0 * math.sqrt(2.0 / 3.0), abs=1e-9)
    assert scores[1] > scores[0]


def test_bleu_empty_corpus_raises():
    with pytest.raises(ValueError, match="empty"):
        bleu_corpus(TokenizedCorpus.from_raw([]), TokenizedCorpus.from_raw([]))


@settings(max_examples=150, deadline=None)
@given(hyps=sentences_strategy, refs=sentences_strategy)
def test_bleu_zero_propagation_property(hyps, refs):
    size = min(len(hyps), len(refs))
    scores = bleu_corpus(corpus(*hyps[:size]), corpus(*refs[:size]))
    seen_zero = False
    for value in scores:
        if seen_zero:
            assert value == 0.0
        seen_zero = seen_zero or value == 0.0


# ---------------------------------------------------------------- chrf


def test_chrf_identity_is_100():
    hyps = corpus("morgen regen", "schnee")
    assert chrf(hyps, hyps) == pytest.approx(100.0)


def test_chrf_hand_example():
    # "abc" vs "abd": P=R=2/3 (order 1), 1/2 (order 2), 0 (order 3);
    # orders 4..6 have no n-grams on either side and drop out
    expected = 100.0 * (2.0 / 3.0 + 1.0 / 2.0 + 0.0) / 3.0
    assert chrf(corpus("abc"), corpus("abd")) == pytest.approx(expected, abs=1e-9)


def test_chrf_ignores_whitespace():
    assert chrf(corpus("a b c"), corpus("abd")) == pytest.approx(
        chrf(corpus("abc"), corpus("ab d")), abs=1e-12
    )
    assert chrf(corpus("abc   "), corpus("abd")) == pytest.approx(
        chrf(corpus("abc"), corpus("abd")), abs=1e-12
    )


def test_chrf_empty_corpora_raise():
    with pytest.raises(ValueError, match="n-grams"):
        chrf(corpus(""), corpus(""))


def test_chrf_bounded():
    assert 0.0 <= chrf(corpus("xyz"), corpus("abc")) <= 100.0


# ---------------------------------------------------------------- rouge


def test_rouge_identity_is_100():
    hyps = corpus("a b c", "d e")
    assert rouge_l(hyps, hyps) == pytest.approx(100.0)


def test_rouge_hand_example():
    # LCS("a b c", "a c") = 2 -> P = 2/3, R = 1, F = 0.8
    assert rouge_l(corpus("a b c"), corpus("a c")) == pytest.approx(80.0, abs=1e-9)


def test_rouge_disjoint_is_zero():
    assert rouge_l(corpus("a b"), corpus("x y")) == 0.0


def test_rouge_empty_pair_is_perfect():
    assert rouge_l(corpus(""), corpus("")) == pytest.approx(100.0)


def test_rouge_averages_over_sentences():
    value = rouge_l(corpus("a b c", "x"), corpus("a c", "x"))
    assert value == pytest.approx((80.0 + 100.0) / 2.0, abs=1e-9)


# ---------------------------------------------------------------- wer


def brute_force_edit_cost(hyp: tuple[str, ...], ref: tuple[str, ...]) -> int:
    """Unit-cost Levenshtein via plain DP, kept separate from the library."""
    prev = list(range(len(hyp) + 1))
    for i, r_tok in enumerate(ref, start=1):
        cur = [i]
        for j, h_tok in enumerate(hyp, start=1):
            cur.append(
                min(
                    prev[j] + 1,
                    cur[-1] + 1,
                    prev[j - 1] + (0 if r_tok == h_tok else 1),
                )
            )
        prev = cur
    return prev[-1]


def test_wer_identity_is_zero():
    hyps = corpus("a b c", "d")
    result = wer(hyps, hyps)
    assert (result.substitutions, result.deletions, result.insertions) == (0, 0, 0)
    assert result.rate == 0.0


def test_wer_single_substitution():
    result = wer(corpus("a x c"), corpus("a b c"))
    assert (result.substitutions, result.deletions, result.insertions) == (1, 0, 0)
    assert result.rate == pytest.approx(100.0 / 3.0, abs=1e-9)


def test_wer_rate_can_exceed_100():
    result = wer(corpus("a b c d d"), corpus("a"))
    assert result.rate == pytest.approx(400.0)
    assert result.insertions == 4


def test_wer_matches_brute_force_oracle():
    rng = np.random.Generator(np.random.PCG64(77))
    alphabet = ("a", "b", "c")
    for _ in range(500):
        hyp = tuple(alphabet[i] for i in rng.integers(0, 3, size=int(rng.integers(0, 6))))
        ref = tuple(alphabet[i] for i in rng.integers(0, 3, size=int(rng.integers(1, 6))))
        result = wer(corpus(" ".join(hyp)), corpus(" ".join(ref)))
        cost = brute_force_edit_cost(hyp, ref)
        assert result.substitutions + result.deletions + result.insertions == cost
        assert result.rate == pytest.approx(100.0 * cost / len(ref), abs=1e-12)


def test_wer_per_sentence_counts_sum_to_corpus():
    hyps = corpus("a b", "c", "x y z")
    refs = corpus("a c", "c c", "x z")
    result = wer(hyps, refs)
    assert sum(s.substitutions for s in result.per_sentence) == result.substitutions
    assert sum(s.deletions for s in result.per_sentence) == result.deletions
    assert sum(s.insertions for s in result.per_sentence) == result.insertions
    assert sum(s.ref_tokens for s in result.per_sentence) == result.ref_tokens


def test_wer_error_words_keep_reference_order():
    (edits,) = wer(corpus("a x c d"), corpus("a b c")).per_sentence
    assert (edits.substitutions, edits.deletions, edits.insertions) == (1, 0, 1)
    assert edits.error_words == ("b",)
    (edits,) = wer(corpus("y"), corpus("b a c")).per_sentence
    assert edits.error_words == ("b", "a", "c")


def test_wer_empty_reference_corpus_raises():
    with pytest.raises(ValueError, match="reference"):
        wer(corpus("a"), corpus(""))


# ---------------------------------------------------------------- diagnostics


def test_top_error_words_counts_substituted_and_deleted():
    hyps = corpus("morgen x", "morgen", "regen y")
    refs = corpus("morgen und", "morgen und", "regen dann")
    result = wer(hyps, refs)
    assert top_error_words(result, 5) == [("und", 2), ("dann", 1)]


def test_top_error_words_tie_breaks_lexicographically():
    result = wer(corpus("x y"), corpus("b a"))
    assert top_error_words(result, 5) == [("a", 1), ("b", 1)]


def test_top_error_words_empty_on_perfect_corpus():
    hyps = corpus("a b")
    assert top_error_words(wer(hyps, hyps), 5) == []


def test_length_error_correlation_monotone_decreasing():
    lengths = [2, 4, 6, 8]
    rates = [80.0, 60.0, 40.0, 20.0]
    assert length_error_correlation(lengths, rates) == pytest.approx(-1.0, abs=1e-9)


def test_length_error_correlation_absent_cases():
    assert length_error_correlation([3], [50.0]) is None
    assert length_error_correlation([2, 4, 6], [30.0, 30.0, 30.0]) is None
    assert length_error_correlation([4, 4, 4], [10.0, 20.0, 30.0]) is None
    with pytest.raises(ValueError, match="differ in size"):
        length_error_correlation([2, 4], [30.0])


def test_length_error_correlation_matches_numpy():
    rng = np.random.Generator(np.random.PCG64(13))
    lengths = [int(v) for v in rng.integers(1, 20, size=12)]
    rates = [float(v) for v in rng.uniform(0, 150, size=12)]
    expected = float(np.corrcoef(lengths, rates)[0, 1])
    assert length_error_correlation(lengths, rates) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------- bundle and invariances


def test_bleu_identity_on_short_corpus_zeroes_high_orders():
    # a 3-token corpus has no 4-grams at all; without smoothing that order
    # scores 0 even for a perfect hypothesis
    hyps = corpus("a b c")
    assert bleu_corpus(hyps, hyps) == (100.0, 100.0, 100.0, 0.0)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), hyps=sentences_strategy)
def test_corpus_scores_are_order_invariant(data, hyps):
    refs = data.draw(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=5).map(" ".join),
            min_size=len(hyps),
            max_size=len(hyps),
        )
    )
    perm = data.draw(st.permutations(range(len(hyps))))
    direct = text_scores(corpus(*hyps), corpus(*refs))
    shuffled = text_scores(
        corpus(*(hyps[i] for i in perm)), corpus(*(refs[i] for i in perm))
    )
    assert direct.bleu == pytest.approx(shuffled.bleu, abs=1e-9)
    assert direct.chrf == pytest.approx(shuffled.chrf, abs=1e-9)
    assert direct.rouge == pytest.approx(shuffled.rouge, abs=1e-9)
    assert direct.wer.rate == pytest.approx(shuffled.wer.rate, abs=1e-9)


def test_mismatched_corpus_sizes_raise():
    with pytest.raises(ValueError, match="sizes"):
        wer(corpus("a"), corpus("a", "b"))


# ---------------------------------------------------------------- oracle
# The per-sentence Counter implementations of BLEU and chrF, the
# O(|a|·|b|) LCS dynamic programme and the WER alignment with its
# op-by-op backtrace, kept verbatim as the oracles that the library's
# counting must match exactly.


def _reference_ngram_counts(tokens: tuple[str, ...], n: int) -> Counter:
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def reference_bleu_corpus(
    hyps: TokenizedCorpus, refs: TokenizedCorpus, max_n: int = 4
) -> tuple[float, ...]:
    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps.sentences, refs.sentences):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = _reference_ngram_counts(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _reference_ngram_counts(ref, n)
            total[n - 1] += sum(hyp_counts.values())
            matched[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )

    precisions = [m / t if t else 0.0 for m, t in zip(matched, total)]
    brevity = 1.0 if hyp_len >= ref_len or hyp_len == 0 else math.exp(1.0 - ref_len / hyp_len)

    scores = []
    for n in range(1, max_n + 1):
        if any(p == 0.0 for p in precisions[:n]):
            scores.append(0.0)
        else:
            log_sum = 0.0
            for p in precisions[:n]:  # left to right: sum() compensates floats from Python 3.12
                log_sum += math.log(p)
            scores.append(100.0 * brevity * math.exp(log_sum / n))
    return tuple(scores)


def _reference_char_stream(sentence: str) -> str:
    return "".join(sentence.split())


def reference_chrf(hyps: TokenizedCorpus, refs: TokenizedCorpus) -> float:
    per_order = []
    for n in range(1, CHRF_MAX_ORDER + 1):
        matched = 0
        total_hyp = 0
        total_ref = 0
        for hyp, ref in zip(hyps.raw, refs.raw):
            hyp_counts = _reference_ngram_counts(tuple(_reference_char_stream(hyp)), n)
            ref_counts = _reference_ngram_counts(tuple(_reference_char_stream(ref)), n)
            total_hyp += sum(hyp_counts.values())
            total_ref += sum(ref_counts.values())
            matched += sum(min(count, ref_counts[gram]) for gram, count in hyp_counts.items())
        if total_hyp == 0 and total_ref == 0:
            continue
        precision = matched / total_hyp if total_hyp else 0.0
        recall = matched / total_ref if total_ref else 0.0
        beta_sq = CHRF_BETA * CHRF_BETA
        denom = beta_sq * precision + recall
        per_order.append((1 + beta_sq) * precision * recall / denom if denom > 0 else 0.0)
    if not per_order:
        raise ValueError("empty corpora: no character n-grams on either side")
    f_sum = 0.0
    for f in per_order:  # left to right: sum() compensates floats from Python 3.12
        f_sum += f
    return 100.0 * f_sum / len(per_order)


def reference_lcs_length(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for tok_a in a:
        cur = [0]
        for j, tok_b in enumerate(b):
            if tok_a == tok_b:
                cur.append(prev[j] + 1)
            else:
                cur.append(max(prev[j + 1], cur[-1]))
        prev = cur
    return prev[-1]


def reference_rouge_l(hyps: TokenizedCorpus, refs: TokenizedCorpus) -> float:
    f_sum = 0.0
    for hyp, ref in zip(hyps.sentences, refs.sentences):
        if not hyp and not ref:
            f_sum += 1.0
            continue
        lcs = reference_lcs_length(hyp, ref)
        precision = lcs / len(hyp) if hyp else 0.0
        recall = lcs / len(ref) if ref else 0.0
        if precision + recall > 0:
            f_sum += 2.0 * precision * recall / (precision + recall)
    return 100.0 * f_sum / len(hyps)


def reference_align_sentence(hyp: tuple[str, ...], ref: tuple[str, ...]) -> list[tuple]:
    """Every aligned token pair ``(op, ref_token, hyp_token)``, matches included.

    The full Levenshtein table, then a backtrace that on cost ties prefers
    substitution, then deletion, then insertion.
    """
    rows = len(ref) + 1
    cols = len(hyp) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        dist[i][0] = i
    for j in range(1, cols):
        dist[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            if ref[i - 1] == hyp[j - 1]:
                dist[i][j] = dist[i - 1][j - 1]
            else:
                dist[i][j] = 1 + min(dist[i - 1][j - 1], dist[i - 1][j], dist[i][j - 1])

    ops: list[tuple] = []
    i, j = len(ref), len(hyp)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and dist[i][j] == dist[i - 1][j - 1]:
            ops.append(("match", ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + 1:
            ops.append(("sub", ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append(("del", ref[i - 1], None))
            i -= 1
        else:
            ops.append(("ins", None, hyp[j - 1]))
            j -= 1
    ops.reverse()
    return ops


def reference_edits(hyp: tuple[str, ...], ref: tuple[str, ...]) -> tuple[int, int, int, int]:
    """``(substitutions, deletions, insertions, ref_tokens)`` of one sentence pair."""
    counts = Counter(op for op, _, _ in reference_align_sentence(hyp, ref))
    return counts["sub"], counts["del"], counts["ins"], len(ref)


def reference_error_words(hyp: tuple[str, ...], ref: tuple[str, ...]) -> tuple[str, ...]:
    """The substituted or deleted reference tokens of one sentence pair, in reference order."""
    return tuple(
        ref_token for op, ref_token, _ in reference_align_sentence(hyp, ref) if op in ("sub", "del")
    )


def reference_top_error_words(hyps: TokenizedCorpus, refs: TokenizedCorpus, k: int) -> list:
    """Reference tokens substituted or deleted, most often first, ties lexicographically."""
    counts: Counter[str] = Counter(
        ref_token
        for hyp, ref in zip(hyps.sentences, refs.sentences)
        for op, ref_token, _ in reference_align_sentence(hyp, ref)
        if op in ("sub", "del")
    )
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def _outcome(metric, *args) -> str:
    """``repr`` of a metric's value, or its ValueError message."""
    try:
        return repr(metric(*args))
    except ValueError as err:
        return f"ValueError: {err}"


def assert_matches_reference(hyps: list[str], refs: list[str]) -> None:
    h, r = corpus(*hyps), corpus(*refs)
    assert _outcome(bleu_corpus, h, r) == _outcome(reference_bleu_corpus, h, r)
    assert _outcome(chrf, h, r) == _outcome(reference_chrf, h, r)
    assert _outcome(rouge_l, h, r) == _outcome(reference_rouge_l, h, r)


#: repeated, cased, non-ASCII and astral units, so clipping and the
#: character ids see more than ASCII letters
_ORACLE_WORDS = ("a", "b", "ab", "aa", "ä", "Ä", "\U0001F600", "a\U0001F600", "日本")

oracle_sentence = st.one_of(
    st.lists(st.sampled_from(_ORACLE_WORDS), max_size=8).map(" ".join),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)

#: the batch size the library uses, under an id that outlives a retuning of it
DEFAULT_BATCH = pytest.param(text_metrics._BATCH_UNITS, id="default")

oracle_corpora = st.integers(1, 6).flatmap(
    lambda size: st.tuples(
        st.lists(oracle_sentence, min_size=size, max_size=size),
        st.lists(oracle_sentence, min_size=size, max_size=size),
    )
)


@pytest.mark.parametrize("batch_units", [DEFAULT_BATCH, 1, 7])
@settings(max_examples=300, deadline=None)
@given(corpora=oracle_corpora)
@example(corpora=([""], [""]))
@example(corpora=(["", "a"], ["a", ""]))
@example(corpora=(["a a a a"], ["a a"]))
@example(corpora=(["aaaaaaa"], ["aaa"]))
@example(corpora=(["\U0001F600\U0001F600 ä"], ["\U0001F600 Ä\U0001F600"]))
@example(corpora=(["a b c d e"], ["a b c d e"]))
# whitespace beyond space, tab and newline that str.split() drops
@example(corpora=(["a\u3000b\x85c d\u2028e\x1ff"], ["ab\u3000c\x85 d\u2028\x1fef"]))
# code points up to U+10FFFF in several pairs of one batch: n-gram ids are renumbered
@example(corpora=(
    ["\U0010FFFF\U0001F600a \U0001F600\U0010FFFFb", "a\U0010FFFF\U0010FFFFb", "\U0010FFFE" * 8],
    ["\U0001F600\U0010FFFF a\U0010FFFF", "\U0010FFFFa\U0010FFFFb\U0001F600", "\U0010FFFE" * 7],
))
# lone surrogates, one of them half of a pair split in two, each its own character
@example(corpora=(["a\ud800b", "\ud83d\ude00"], ["a\ud800b c", "\ud83d"]))
# one pair longer than a whole batch of characters
@example(corpora=(["abcä" * 4500 + " d", "a"], ["abäc" * 4500, "b a"]))
def test_text_metrics_match_reference_exactly(batch_units, corpora):
    # a batch never splits a sentence pair; 1 puts every pair in its own batch
    with mock.patch.object(text_metrics, "_BATCH_UNITS", batch_units):
        assert_matches_reference(*corpora)


@settings(max_examples=200, deadline=None)
@given(corpora=oracle_corpora)
@example(corpora=(["a b c d"], ["a b c d"]))
@example(corpora=(["a"], [" "]))
def test_text_scores_bundles_all_metrics(corpora):
    h, r = corpus(*corpora[0]), corpus(*corpora[1])
    # corpora of the same sentences are equal however they are built: the encoding is not compared
    assert h == corpus(*corpora[0]) == TokenizedCorpus(h.raw, h.sentences)
    assert hash(r) == hash(TokenizedCorpus(r.raw, r.sentences))
    parts = [_outcome(metric, h, r) for metric in (bleu_corpus, chrf, rouge_l, wer)]
    failed = [part for part in parts if part.startswith("ValueError")]
    if failed:  # the first metric that fails fails the bundle
        assert _outcome(text_scores, h, r) == failed[0]
        return
    score = text_scores(h, r)
    assert score.bleu == bleu_corpus(h, r)
    assert score.chrf == chrf(h, r)
    assert score.rouge == rouge_l(h, r)
    assert score.wer == wer(h, r)


lcs_tokens = st.lists(st.sampled_from("abcä\U0001F600"), max_size=130).map(" ".join)


@pytest.mark.parametrize("batch_units", [DEFAULT_BATCH, 1, 7])
@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(lcs_tokens, lcs_tokens), min_size=1, max_size=3))
# hypotheses that end just before, on and after the first and second 56-bit word boundary
@example(pairs=[(" ".join("abc"[k % 3] for k in range(n)), "c b a " * 20) for n in (55, 56, 57)])
@example(pairs=[(" ".join("ab"[k % 5 == 0] for k in range(n)), "a b " * 60) for n in (112, 113)])
# every token equal: each reference token extends the LCS until the hypothesis runs out
@example(pairs=[("a " * 113, "a " * 120), ("a " * 57, "a " * 30)])
@example(pairs=[("", "a b"), ("a b", ""), ("", "")])
@example(pairs=[("", "a " * 130), ("a " * 130, "")])
def test_lcs_length_matches_reference(batch_units, pairs):
    # ROUGE-L's F1 of each one-pair corpus, and of all of them as one corpus,
    # against the one from the quadratic LCS table
    with mock.patch.object(text_metrics, "_BATCH_UNITS", batch_units):
        for hyps, refs in [*(([h], [r]) for h, r in pairs), tuple(map(list, zip(*pairs)))]:
            h, r = corpus(*hyps), corpus(*refs)
            assert rouge_l(h, r) == reference_rouge_l(h, r)


#: sentences over three or four words, so equal-cost alignments are frequent
tie_corpora = st.sampled_from(["abc", "abcd"]).flatmap(
    lambda alphabet: st.lists(
        st.tuples(*[st.lists(st.sampled_from(alphabet), max_size=6).map(" ".join)] * 2),
        min_size=1,
        max_size=5,
    )
)


def assert_wer_matches_the_alignment_oracle(h: TokenizedCorpus, r: TokenizedCorpus) -> None:
    pairs = list(zip(h.sentences, r.sentences))
    expected = [(*reference_edits(hyp, ref), reference_error_words(hyp, ref)) for hyp, ref in pairs]
    if not sum(len(ref) for _, ref in pairs):
        with pytest.raises(ValueError, match="reference"):
            wer(h, r)
        return
    result = wer(h, r)
    assert [
        (s.substitutions, s.deletions, s.insertions, s.ref_tokens, s.error_words)
        for s in result.per_sentence
    ] == expected
    assert top_error_words(result, 50) == reference_top_error_words(h, r, 50)


@pytest.mark.parametrize("batch_units", [DEFAULT_BATCH, 1, 7])
@settings(max_examples=300, deadline=None)
@given(pairs=tie_corpora)
@example(pairs=[("a b", "b a")])
@example(pairs=[("a a b", "b a a"), ("", "c")])
def test_wer_edits_and_error_words_match_the_alignment_oracle(batch_units, pairs):
    h, r = corpus(*(hyp for hyp, _ in pairs)), corpus(*(ref for _, ref in pairs))
    with mock.patch.object(text_metrics, "_BATCH_UNITS", batch_units):
        assert_wer_matches_the_alignment_oracle(h, r)


@pytest.mark.parametrize("batch_units", [DEFAULT_BATCH, 1, 7])
def test_wer_matches_the_alignment_oracle_across_lengths(batch_units):
    # one long pair among many short ones, with empty hypotheses and empty
    # references, so pairs of very different sizes share the corpus
    rng = np.random.Generator(np.random.PCG64(15))
    words = np.array(["a", "b", "c", "d", "e"])
    pairs = [(" ".join(rng.choice(words, 60)), " ".join(rng.choice(words, 60)))]
    for _ in range(200):
        hyp, ref = (" ".join(rng.choice(words, int(rng.integers(0, 7)))) for _ in range(2))
        pairs.append((hyp, ref))
    pairs += [("", "a b c"), ("a b", ""), ("", ""), ("c " * 12, "c")]
    order = rng.permutation(len(pairs))
    h = corpus(*(pairs[k][0] for k in order))
    r = corpus(*(pairs[k][1] for k in order))
    with mock.patch.object(text_metrics, "_BATCH_UNITS", batch_units):
        assert_wer_matches_the_alignment_oracle(h, r)


def test_bleu_matches_reference_over_a_large_vocabulary():
    # 40,000 distinct tokens: order-4 n-gram ids outgrow 64 bits without renumbering
    rng = np.random.Generator(np.random.PCG64(40))
    ref = [f"w{i}" for i in range(40_000)]
    hyp = [tok if rng.random() < 0.9 else f"w{int(rng.integers(0, 40_000))}" for tok in ref]
    h, r = corpus(" ".join(hyp[:-300])), corpus(" ".join(ref))
    assert bleu_corpus(h, r) == reference_bleu_corpus(h, r)


def test_bleu_keeps_apart_four_grams_whose_ids_agree_modulo_2_to_the_64():
    # tokens w0..w39999 get ids 0..39999, so without a dense renumbering a 4-gram
    # (a, b, c, d) has id a*V**3 + b*V**2 + c*V + d and pair 4's "w0 w0 w0 w0" would
    # wrap onto pair 0's 4-gram whose id is 4 * V**4 modulo 2**63
    size = 40_000
    words = [f"w{i}" for i in range(size)]
    offset, digits = 4 * size**4 % 2**63, []
    for _ in range(4):
        offset, digit = divmod(offset, size)
        digits.insert(0, words[digit])
    hyps = [" ".join(words), "w1", "w2", "w3", "w0 w0 w0 w0"]
    refs = [" ".join(words + digits), "w1", "w2", "w3", "w1 w2"]
    h, r = corpus(*hyps), corpus(*refs)
    with mock.patch.object(text_metrics, "_BATCH_UNITS", 10**6):
        assert bleu_corpus(h, r) == reference_bleu_corpus(h, r)


def test_chrf_memory_is_bounded_by_a_batch():
    # 20,000 pairs, about 3 M characters: ids for the whole corpus would take 8 bytes a
    # character, while one batch's arrays and the per-sentence lengths stay far below that
    refs = [synth_sentence(i, 8, 16) for i in range(2000)] * 10
    hyps = [synth_sentence(i if i % 3 else 5000 + i, 8, 16) for i in range(2000)] * 10
    h, r = corpus(*hyps), corpus(*refs)
    chars = sum(map(len, hyps + refs))
    assert traced_peak(lambda: chrf(h, r)) < 8 * chars / 4


@pytest.mark.parametrize("batch_units", [DEFAULT_BATCH, 50])
def test_text_metrics_are_pinned_on_a_synth_corpus(batch_units):
    # float.hex of the per-sentence Counter / DP implementation's values, and
    # WER's counts and error words from its per-sentence Python table
    refs = [synth_sentence(i) for i in range(300)]
    hyps = [synth_sentence(i if i % 4 else 1000 + i, 2, 12) for i in range(300)]
    h, r = corpus(*hyps), corpus(*refs)
    with mock.patch.object(text_metrics, "_BATCH_UNITS", batch_units):
        assert [v.hex() for v in bleu_corpus(h, r)] == [
            "0x1.032199689fbefp+6",
            "0x1.e8d26a0461e3ap+5",
            "0x1.d571f9e47d22ep+5",
            "0x1.c1dd6c1ccc6e1p+5",
        ]
        assert chrf(h, r).hex() == "0x1.26b0002aafd69p+6"
        assert rouge_l(h, r).hex() == "0x1.15e99a70d2bd7p+6"
        result = wer(h, r)
    assert (result.substitutions, result.deletions, result.insertions) == (354, 136, 454)
    assert result.rate.hex() == "0x1.9e431fe08b4dfp+5"
    assert top_error_words(result, 10) == [
        ("osten", 30), ("schnee", 29), ("regen", 26), ("gewitter", 25), ("grad", 25),
        ("kalt", 25), ("nacht", 24), ("frisch", 23), ("stark", 23), ("teilweise", 23),
    ]


def compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12 computes it: ints exactly until the first float, then
    floats with Neumaier's compensation, added back once at the end, and ints plainly;
    anything else ends the float path and is added with ``+``."""
    total, compensation, fast = start, 0.0, True
    for item in iterable:
        if fast and type(total) is float and type(item) is float:
            t = total + item
            compensation += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
            total = t
        elif fast and type(total) is float and type(item) is int:
            total += float(item)
        else:
            if type(total) is float and compensation and math.isfinite(compensation):
                total += compensation
            fast = fast and type(total) is int and type(item) in (int, float)
            compensation = 0.0
            total = total + item
    if fast and type(total) is float and compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_text_report_does_not_depend_on_how_sum_adds_floats(sentence_writer, capsys, monkeypatch):
    # from Python 3.12 builtin sum() compensates float rounding; the report must not change
    rng = np.random.Generator(np.random.PCG64(17))
    refs = [synth_sentence(i, 2, 20).split() for i in range(400)]
    hyps = []
    for ref in refs:  # about 10% substitutions, 10% insertions and 10% deletions
        hyp = []
        for word in ref:
            edit = rng.random()
            if edit < 0.1:
                hyp.append(refs[int(rng.integers(len(refs)))][0])
            elif edit < 0.2:
                hyp.extend((word, refs[int(rng.integers(len(refs)))][-1]))
            elif edit >= 0.3:
                hyp.append(word)
        hyps.append(hyp)
    hyp_file, ref_file = (
        sentence_writer([(f"s{i}", " ".join(words)) for i, words in enumerate(sentences)], name)
        for sentences, name in ((hyps, "hyp.tsv"), (refs, "ref.tsv"))
    )
    argv = ["evaluate", "--hyp", str(hyp_file), "--ref-text", str(ref_file)]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0  # plain left-to-right adding gives 0.0
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert main(argv) == 0
    assert capsys.readouterr().out == plain
