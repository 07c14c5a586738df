from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import unicodedata
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LEADERBOARD, traced_peak
from slpeval.cli import _MATRIX_BLOCK, _matrix_rows, main
from slpeval.ranking import (
    CANONICAL_METRICS,
    ScoreVector,
    dominance_matrix,
    pareto_fronts,
)

_HIGHER = ("BLEU-1", "BLEU-2", "BLEU-3", "BLEU-4", "CHRF", "ROUGE")


def vector(entrant: str, **overrides) -> ScoreVector:
    metrics = {name: 50.0 for name in _HIGHER}
    metrics.update({"WER": 50.0, "DTW-MJE": 0.05, "Total Distance": 1.0})
    metrics.update(overrides)
    return ScoreVector.from_metrics(entrant, metrics)


# ---------------------------------------------------------------- oracle

def oracle_better(name: str, a: float, b: float) -> bool:
    """Is value ``a`` strictly better than ``b`` on the named metric?"""
    if name in _HIGHER:
        return a > b
    if name == "Total Distance":
        return abs(1.0 - a) < abs(1.0 - b)
    return a < b  # WER and DTW-MJE


def oracle_dominates(a: dict, b: dict) -> bool:
    no_worse = all(not oracle_better(name, b[name], a[name]) for name in CANONICAL_METRICS)
    somewhere_better = any(oracle_better(name, a[name], b[name]) for name in CANONICAL_METRICS)
    return no_worse and somewhere_better


def oracle_fronts(entries: list[ScoreVector]) -> list[list[str]]:
    remaining = list(entries)
    fronts = []
    while remaining:
        front = [
            e
            for e in remaining
            if not any(
                oracle_dominates(o.as_dict(), e.as_dict()) for o in remaining if o is not e
            )
        ]
        fronts.append([e.entrant for e in front])
        remaining = [e for e in remaining if e not in front]
    return fronts


# ---------------------------------------------------------------- score vectors


def test_from_metrics_requires_exact_metric_set():
    with pytest.raises(ValueError, match="missing"):
        ScoreVector.from_metrics("x", {"BLEU-1": 1.0})
    good = dict(LEADERBOARD["team1"])
    good["MYSTERY"] = 1.0
    with pytest.raises(ValueError, match="unknown"):
        ScoreVector.from_metrics("x", good)


@pytest.mark.parametrize(
    "value", [None, float("nan"), float("inf"), "nan", "1.0", True, [1.0], float("-inf")]
)
def test_from_metrics_accepts_only_finite_numbers(value):
    metrics = dict(LEADERBOARD["team1"], **{"Total Distance": value})
    with pytest.raises(ValueError, match="'x'.*'Total Distance'.*finite number"):
        ScoreVector.from_metrics("x", metrics)
    with pytest.raises(ValueError, match="'x'.*'Total Distance'.*finite number"):
        ScoreVector("x", tuple(metrics[name] for name in CANONICAL_METRICS))


def test_from_metrics_accepts_ints_as_floats():
    metrics = dict(LEADERBOARD["team1"], WER=93)
    assert ScoreVector.from_metrics("x", metrics).as_dict()["WER"] == 93.0


def test_score_vector_enforces_canonical_order():
    with pytest.raises(ValueError, match="'x'.*canonical metrics.*got 8"):
        ScoreVector(entrant="x", values=(1.0,) * 8)


def test_as_dict_round_trip():
    sv = ScoreVector.from_metrics("team1", LEADERBOARD["team1"])
    assert sv.as_dict() == LEADERBOARD["team1"]


# ---------------------------------------------------------------- dominance


def dominance(a: ScoreVector, b: ScoreVector) -> tuple[bool, bool]:
    """(a dominates b, b dominates a), read from the two-entrant matrix."""
    matrix = dominance_matrix([a, b])
    return bool(matrix[0, 1]), bool(matrix[1, 0])


def test_objectives_orientation():
    for name in _HIGHER:
        assert dominance(vector("a", **{name: 60.0}), vector("b", **{name: 40.0})) == (True, False)
    for name in ("WER", "DTW-MJE"):
        assert dominance(vector("a", **{name: 0.01}), vector("b", **{name: 0.09})) == (True, False)


def test_travel_ratio_objective_is_symmetric_about_one():
    under = vector("under", **{"Total Distance": 0.5})
    over = vector("over", **{"Total Distance": 1.5})
    ideal = vector("ideal", **{"Total Distance": 1.0})
    assert dominance(under, over) == (False, False)
    assert dominance(ideal, under) == (True, False)
    assert dominance(ideal, over) == (True, False)
    assert pareto_fronts([under, over, ideal]).fronts == (("ideal",), ("under", "over"))


def test_identical_vectors_do_not_dominate():
    assert dominance(vector("a"), vector("b")) == (False, False)
    assert pareto_fronts([vector("a"), vector("b")]).fronts == (("a", "b"),)


def test_single_improvement_dominates():
    assert dominance(vector("a", WER=40.0), vector("b")) == (True, False)
    assert pareto_fronts([vector("b"), vector("a", WER=40.0)]).fronts == (("a",), ("b",))


def test_tradeoff_is_incomparable():
    a = vector("a", WER=40.0, **{"DTW-MJE": 0.08})
    assert dominance(a, vector("b")) == (False, False)
    assert pareto_fronts([a, vector("b")]).fronts == (("a", "b"),)


def test_over_articulation_is_penalized():
    # travel ratio 1.6 is farther from 1 than 0.9: neither direction is free
    calm = vector("a", **{"Total Distance": 0.9})
    wild = vector("b", **{"Total Distance": 1.6})
    assert dominance(calm, wild) == (True, False)


#: -0.0 ties 0.0, and the "one" objective maps 0.5 and 1.5 to the same 0.5
TIE_VALUE = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1.5, 2.0])


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(*[TIE_VALUE] * len(CANONICAL_METRICS)), min_size=1, max_size=10))
@example(rows=[(0.0,) * 9, (-0.0,) * 9, (0.0,) * 8 + (0.5,), (-0.0,) * 8 + (1.5,)])
@example(rows=[(1.0,) * 9, (1.0,) * 8 + (0.5,), (1.0,) * 8 + (1.5,), (2.0,) * 8 + (1.5,)])
@example(rows=[(0.0,) * 8 + (1.0,), (-0.0,) * 8 + (1.0,), (-0.0,) + (0.0,) * 7 + (1.0,),
               (0.0,) * 7 + (-0.0, 1.0), (-0.0,) * 7 + (0.0, 1.0)])
@example(rows=[(1.0,) * 9, (np.nextafter(1.0, 2.0),) * 9, (np.nextafter(1.0, 0.0),) * 9,
               (1.0,) * 6 + (np.nextafter(1.0, 0.0),) * 3, (1.0,) * 6 + (np.nextafter(1.0, 2.0),) * 3,
               (np.nextafter(0.0, 1.0),) * 9, (0.0,) * 9])
@example(rows=[(sys.float_info.max,) * 9, (-sys.float_info.max,) * 9, (0.0,) * 9,
               (sys.float_info.max,) * 8 + (-sys.float_info.max,),
               (-sys.float_info.max,) * 8 + (sys.float_info.max,)])
@example(rows=[(5e-324,) * 9, (-5e-324,) * 9, (0.0,) * 9, (2.2250738585072014e-308,) * 9,
               (1e-310,) * 8 + (-1e-310,), (-1e-310,) * 8 + (1.0,)])
@example(rows=[(2.0,) * 8 + (0.75,), (2.0,) * 8 + (1.25,), (1.0,) * 8 + (1.25,),
               (1.0,) * 8 + (0.75,), (2.0,) * 8 + (0.5,), (2.0,) * 8 + (1.0,)])
def test_dominance_matrix_with_ties_matches_the_oracle_cell_by_cell(rows):
    entries = [ScoreVector(f"e{i}", row) for i, row in enumerate(rows)]
    matrix = dominance_matrix(entries)
    scores = [entry.as_dict() for entry in entries]
    assert matrix.dtype == bool and matrix.shape == (len(rows), len(rows))
    assert not matrix.diagonal().any()
    for i, a in enumerate(scores):
        for j, b in enumerate(scores):
            assert matrix[i, j] == oracle_dominates(a, b), (i, j)


@pytest.mark.parametrize("count", [255, 256, 257])
def test_dominance_matrix_across_the_rank_dtype_change_matches_the_oracle(count):
    # the ranks of BLEU-1's all-distinct values reach count - 1; they are uint8 below 256
    # entrants and uint16 from there; the other metrics take three values each, so that
    # many pairs compare
    rng = np.random.Generator(np.random.PCG64(count))
    rows = rng.choice([0.5, 1.0, 1.5], size=(count, len(CANONICAL_METRICS)))
    rows[:, 0] = rng.permutation(count)
    entries = [ScoreVector(f"e{i}", tuple(map(float, row))) for i, row in enumerate(rows)]
    matrix = dominance_matrix(entries)
    scores = [entry.as_dict() for entry in entries]
    assert matrix.any()
    for i, a in enumerate(scores):
        for j, b in enumerate(scores):
            assert matrix[i, j] == oracle_dominates(a, b), (i, j)


# ---------------------------------------------------------------- fronts


def test_fronts_preserve_input_order():
    entries = [vector("worst", WER=90.0), vector("best", WER=10.0), vector("mid", WER=50.0)]
    ranking = pareto_fronts(entries)
    assert ranking.fronts == (("best",), ("mid",), ("worst",))


def test_front_members_keep_submission_order():
    entries = [vector("zeta"), vector("alpha")]  # identical scores, one front
    ranking = pareto_fronts(entries)
    assert ranking.fronts == (("zeta", "alpha"),)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        pareto_fronts([])


def test_duplicate_entrants_rejected():
    with pytest.raises(ValueError, match="^duplicate entrant 'good'$"):
        pareto_fronts([vector("good"), vector("good")])
    # the first name that repeats, in input order, as rank reports it
    with pytest.raises(ValueError, match="^duplicate entrant 'a'$"):
        pareto_fronts([vector("a"), vector("b"), vector("b", WER=40.0), vector("a")])


def test_leaderboard_snapshot_structure():
    order = ["reference", "team1", "team2", "team3", "baseline"]
    entries = [ScoreVector.from_metrics(name, LEADERBOARD[name]) for name in order]
    ranking = pareto_fronts(entries)
    assert ranking.fronts == (("reference", "team1"), ("team2", "team3", "baseline"))

    matrix = dominance_matrix(entries)
    dominated_by_reference = {order[j] for j in range(5) if matrix[0][j]}
    assert dominated_by_reference == {"team2", "team3", "baseline"}
    # nobody dominates anyone else
    for i in range(1, 5):
        assert not any(matrix[i])


def test_team_rows_alone_are_one_front():
    order = ["team1", "team2", "team3", "baseline"]
    entries = [ScoreVector.from_metrics(name, LEADERBOARD[name]) for name in order]
    ranking = pareto_fronts(entries)
    assert ranking.fronts == (tuple(order),)
    assert all(not any(row) for row in dominance_matrix(entries))


def test_fronts_match_oracle_on_random_sets():
    rng = np.random.Generator(np.random.PCG64(99))
    for trial in range(101):
        # the last set is big enough for many fronts and many tied pairs
        size = 300 if trial == 100 else int(rng.integers(1, 9))
        entries = []
        for i in range(size):
            # coarse grid provokes exact ties and duplicate vectors
            metrics = {name: float(rng.integers(0, 4) * 10.0) for name in _HIGHER}
            metrics["WER"] = float(rng.integers(0, 4) * 25.0)
            metrics["DTW-MJE"] = float(rng.integers(0, 4)) / 100.0
            metrics["Total Distance"] = float(rng.integers(0, 5)) / 2.0
            entries.append(ScoreVector.from_metrics(f"e{trial}_{i}", metrics))
        ranking = pareto_fronts(entries)
        assert [list(front) for front in ranking.fronts] == oracle_fronts(entries)

        matrix = dominance_matrix(entries)
        assert matrix.shape == (size, size)
        assert np.array_equal(ranking.dominance, matrix)
        scores = [entry.as_dict() for entry in entries]
        expected = [
            [i != j and oracle_dominates(scores[i], scores[j]) for j in range(size)]
            for i in range(size)
        ]
        assert matrix.tolist() == expected


# ---------------------------------------------------------------- structured output


def oracle_rank_json(items: list[dict]) -> str:
    """``rank --format structured`` for score-file ``items``, by the plain JSON encoder.

    The whole document, the dominance matrix as nested lists of bools
    included, goes through one ``json.dumps``; fronts and matrix come from
    the oracles above.
    """
    entries = [ScoreVector.from_metrics(item["entrant"], item["metrics"]) for item in items]
    scores = [entry.as_dict() for entry in entries]
    doc = {
        "fronts": oracle_fronts(entries),
        "dominance": {
            "entrants": [entry.entrant for entry in entries],
            "matrix": [[oracle_dominates(a, b) for b in scores] for a in scores],
        },
        "scores": {entry.entrant: score for entry, score in zip(entries, scores)},
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def assert_rank_output_is_the_plain_encoders(items: list[dict]) -> None:
    """``rank --format structured`` of ``items``, to stdout and to ``--out``, is
    :func:`oracle_rank_json`'s text."""
    expected = oracle_rank_json(items)
    with tempfile.TemporaryDirectory() as tmp:
        scores, out = Path(tmp) / "scores.json", Path(tmp) / "ranking.json"
        scores.write_text(json.dumps(items), encoding="utf-8")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["rank", "--scores", str(scores)]) == 0
        assert stdout.getvalue() == expected
        assert main(["rank", "--scores", str(scores), "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode("utf-8")


#: names JSON must escape, that spell the matrix key, or that are not ASCII;
#: no character of category Cc, Zl or Zp, which entrant names may not hold
ENTRANT_NAME = st.one_of(
    st.sampled_from(['"matrix": []', '"matrix": [', "matrix", '"', "\\", "ä", "\U0001d11e"]),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1, max_size=8),
)


@st.composite
def score_items(draw):
    """Score-file entries on a small integer grid: each entrant has a level and per-metric
    steps of 0 or 1, so a higher level always dominates and equal levels often tie."""
    names = draw(st.lists(ENTRANT_NAME, min_size=1, max_size=12, unique=True))
    tie = draw(st.booleans())
    items = []
    for name in names:
        level = 0 if tie else draw(st.integers(0, 2))
        steps = [level + (0 if tie else draw(st.integers(0, 1))) for _ in CANONICAL_METRICS]
        metrics = {}
        for metric, step in zip(CANONICAL_METRICS, steps):  # a higher step is better
            if metric in _HIGHER:
                metrics[metric] = step
            elif metric == "Total Distance":
                metrics[metric] = 1 + draw(st.sampled_from([-1, 1])) * (3 - step)
            else:
                metrics[metric] = 3 - step
        items.append({"entrant": name, "metrics": metrics})
    return items


ONE_ENTRANT = [{"entrant": '"matrix": []', "metrics": dict(LEADERBOARD["team1"])}]
ALL_TIED = [{"entrant": name, "metrics": dict(LEADERBOARD["team1"])} for name in "abc"]


@settings(max_examples=150, deadline=None)
@given(items=score_items())
@example(items=ONE_ENTRANT)
@example(items=ALL_TIED)
def test_structured_rank_output_equals_the_plain_encoder(items):
    assert_rank_output_is_the_plain_encoders(items)


#: one value of each spelling ``repr`` gives a finite float: signed zero, the least
#: subnormal, an exponent, the largest float, integers (as JSON writes them) and plain decimals
SPELLINGS = [-0.0, 5e-324, 1e16, 1.7976931348623157e308, 3, -7, 0.1, -2.5e-7, 123456789.25]
#: names JSON escapes, non-ASCII and astral, in an order that sorting changes
UNSORTED_NAMES = ["\u00e4", '"', "\\", "\U0001d11e", "b", "a"]


@st.composite
def finite_score_items(draw):
    """Score-file entries with arbitrary finite values, floats or JSON integers."""
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.integers(-(10**18), 10**18))
    names = draw(st.lists(ENTRANT_NAME, min_size=1, max_size=8, unique=True))
    return [{"entrant": name, "metrics": {metric: draw(value) for metric in CANONICAL_METRICS}}
            for name in names]


@settings(max_examples=150, deadline=None)
@given(items=finite_score_items())
@example(items=[{"entrant": name, "metrics": dict(zip(CANONICAL_METRICS,
                                                       SPELLINGS[i:] + SPELLINGS[:i]))}
                for i, name in enumerate(UNSORTED_NAMES)])
@example(items=[{"entrant": name, "metrics": dict.fromkeys(CANONICAL_METRICS, value)}
                for name, value in zip(UNSORTED_NAMES, SPELLINGS)])
def test_structured_rank_output_of_any_finite_values_equals_the_plain_encoder(items):
    assert_rank_output_is_the_plain_encoders(items)


def test_one_astral_name_does_not_widen_the_ranking_output(tmp_path):
    # a str holds every character at the width of its widest, so one astral entrant name in
    # the same string as the ASCII matrix text would make that text four bytes a character
    rng = np.random.Generator(np.random.PCG64(5))
    items = [{"entrant": f"team{i}", "metrics": dict(zip(CANONICAL_METRICS, map(float, row)))}
             for i, row in enumerate(rng.uniform(1.0, 2.0, (300, len(CANONICAL_METRICS))))]
    scores = tmp_path / "scores.json"

    def rank() -> None:
        assert main(["rank", "--scores", str(scores), "--out", str(tmp_path / "out.json")]) == 0

    peaks = []
    for name in ("team0", "team\U0001d11e"):
        items[0]["entrant"] = name
        scores.write_text(json.dumps(items), encoding="utf-8")
        peaks.append(traced_peak(rank))
    assert peaks[1] <= 1.25 * peaks[0], peaks


def uniform_items(count: int, seed: int = 5) -> list[dict]:
    """``count`` entrants with metrics drawn uniformly from [1, 2)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return [{"entrant": f"team{i}", "metrics": dict(zip(CANONICAL_METRICS, map(float, row)))}
            for i, row in enumerate(rng.uniform(1.0, 2.0, (count, len(CANONICAL_METRICS))))]


@pytest.mark.parametrize("count", [_MATRIX_BLOCK - 1, _MATRIX_BLOCK, _MATRIX_BLOCK + 1,
                                   2 * _MATRIX_BLOCK + 1])
def test_rank_output_across_matrix_blocks_equals_the_plain_encoder(count, tmp_path):
    items = uniform_items(count)
    scores, out = tmp_path / "scores.json", tmp_path / "ranking.json"
    scores.write_text(json.dumps(items), encoding="utf-8")
    assert main(["rank", "--scores", str(scores), "--out", str(out)]) == 0
    assert out.read_bytes() == oracle_rank_json(items).encode("utf-8")


def test_rank_out_holds_one_block_of_the_matrix_at_a_time(tmp_path):
    scores, out = tmp_path / "scores.json", tmp_path / "ranking.json"
    scores.write_text(json.dumps(uniform_items(1000)), encoding="utf-8")

    def rank() -> None:
        assert main(["rank", "--scores", str(scores), "--out", str(out)]) == 0

    peak = traced_peak(rank)
    # the whole output is about 15 MB; the bool matrix and one block of its text take about 5
    assert peak < out.stat().st_size / 2, (peak, out.stat().st_size)


def latent_items(count: int, seed: int = 3) -> list[dict]:
    """``count`` entrants whose metrics share one latent quality, as the bench's leaderboard
    draws them but with less noise: about a third of the matrix cells are ``true``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    quality = rng.normal(size=(count, 1)) + rng.normal(scale=0.3, size=(count, 9))
    # each metric's value at average quality and its change per unit of quality
    bases = [35.0, 22.0, 16.0, 12.0, 35.0, 35.0, 85.0, 0.25, 0.7]
    slopes = [4.0, 3.0, 2.5, 2.0, 4.0, 4.0, -6.0, -0.03, 0.08]
    return [{"entrant": f"team{i}", "metrics": dict(zip(CANONICAL_METRICS, map(float, row)))}
            for i, row in enumerate(np.add(bases, quality * slopes))]


@pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 16, 17, 63, 64, 65, 72, 73])
def test_rank_output_at_every_width_remainder_equals_the_plain_encoder(count, tmp_path):
    items = latent_items(count)
    scores, out = tmp_path / "scores.json", tmp_path / "ranking.json"
    scores.write_text(json.dumps(items), encoding="utf-8")
    assert main(["rank", "--scores", str(scores), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == oracle_rank_json(items)
    if count >= 7:  # both cell texts are common
        assert text.count("true") > count * count / 5 and text.count("false") > count * count / 3


@pytest.mark.parametrize("size", [1, 2, 8, 9, 49, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 129])
def test_matrix_rows_of_random_bool_matrices_equal_the_plain_encoder(size):
    rng = np.random.Generator(np.random.PCG64(size))
    matrix = rng.random((size, size)) < 0.5
    full = (size - 1) // 8 * 8  # the cells before a row's last octet
    if size * full >= 256 * 8:  # lay every octet value into those cells, in a random order
        octets = rng.permutation(np.arange(size * full // 8) % 256).astype(np.uint8)
        matrix[:, :full] = np.unpackbits(octets).reshape(size, full)
        assert len(np.unique(np.packbits(matrix[:, :full], axis=1))) == 256
    # two levels deep in an indented document, every line of the matrix is indented four more
    expected = json.dumps(matrix.tolist(), indent=2).replace("\n", "\n    ")
    assert "".join(_matrix_rows(matrix)) == expected


# ---------------------------------------------------------------- score-vector rules


def oracle_score_values(entrant, values) -> tuple[float, ...]:
    """The stored values of ``ScoreVector(entrant, values)`` by the per-value rules alone, or
    the ValueError they raise."""
    if not isinstance(entrant, str) or not entrant:
        raise ValueError(f"entrant must be a non-empty string, got {entrant!r}")
    if not {"Cc", "Cs", "Zl", "Zp"}.isdisjoint(map(unicodedata.category, entrant)):
        raise ValueError(f"entrant {entrant!r} holds a control, line-break or surrogate")
    if len(values) != len(CANONICAL_METRICS):
        raise ValueError(
            f"score vector for {entrant!r} must carry one value for each of the "
            f"canonical metrics {list(CANONICAL_METRICS)}, got {len(values)}"
        )
    for name, value in zip(CANONICAL_METRICS, values):
        finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
        if isinstance(value, bool) or not finite:
            raise ValueError(
                f"score vector for {entrant!r}: metric {name!r} must be a finite "
                f"number, got {value!r}"
            )
    return tuple(map(float, values))


#: floats at every edge: NaN, both infinities, signed zero, subnormals and the largest float
EDGE_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072e-308,
                     sys.float_info.max, -sys.float_info.max]),
)
ANY_VALUE = st.one_of(
    EDGE_FLOATS,
    st.integers(-(10**400), 10**400),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    EDGE_FLOATS.map(np.float64),
)
ANY_ENTRANT = st.one_of(
    ENTRANT_NAME,
    st.sampled_from(["", "a\nb", "\x00", "\x85", "\u2028", "\u2029", "\ud800", "b\udfff",
                     "\u00ad", "\u200b", None, 7, b"team"]),
    st.text(st.characters(categories=["Cc", "Cs", "Zl", "Zp", "Cf", "Zs", "Ll"]), max_size=4),
)


@settings(max_examples=400, deadline=None)
@given(entrant=ANY_ENTRANT,
       values=st.one_of(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                 min_size=9, max_size=9),
                        st.lists(EDGE_FLOATS, min_size=9, max_size=9),
                        st.lists(ANY_VALUE, min_size=9, max_size=9),
                        st.lists(ANY_VALUE, max_size=11)))
@example(entrant="team", values=[1.0] * 8 + [10**400])
@example(entrant="team", values=[True] + [1.0] * 8)
@example(entrant="team", values=[np.float64(1.0)] * 9)
@example(entrant="\ud800", values=[1.0] * 9)
def test_score_vector_agrees_with_the_per_value_rules(entrant, values):
    values = tuple(values)
    try:
        expected = oracle_score_values(entrant, values)
    except ValueError as err:
        with pytest.raises(ValueError) as refused:
            ScoreVector(entrant, values)
        assert str(refused.value) == str(err)
    else:
        stored = ScoreVector(entrant, values).values
        assert set(map(type, stored)) <= {float}
        assert [value.hex() for value in stored] == [value.hex() for value in expected]


# ---------------------------------------------------------------- rank on any input


JSON_DOCUMENT = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-(10**30), 10**30) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-(10**20), 10**20))
VALID_ENTRY = st.fixed_dictionaries(
    {"entrant": ENTRANT_NAME,
     "metrics": st.fixed_dictionaries(dict.fromkeys(CANONICAL_METRICS, FINITE))})
ANY_ENTRY = st.fixed_dictionaries(
    {"entrant": ANY_ENTRANT,
     "metrics": st.one_of(st.fixed_dictionaries(dict.fromkeys(CANONICAL_METRICS, ANY_VALUE)),
                          st.dictionaries(st.text(), FINITE, max_size=10))})
#: a score file's entries: all well formed, some not, or one entry on its own
ENTRIES = st.one_of(st.lists(VALID_ENTRY, max_size=6),
                    st.lists(st.one_of(VALID_ENTRY, ANY_ENTRY), max_size=6), VALID_ENTRY)


def json_bytes(doc) -> bytes:
    """``doc`` as a score file: a lone surrogate stays (and is not UTF-8), bytes are spelled by
    ``repr``."""
    return json.dumps(doc, ensure_ascii=False, default=repr).encode("utf-8", "surrogatepass")


@settings(max_examples=250, deadline=None)
@given(data=st.one_of(JSON_DOCUMENT.map(json_bytes), ENTRIES.map(json_bytes), st.binary()),
       fmt=st.sampled_from(["structured", "table"]))
@example(data=b"[]", fmt="structured")
@example(data=b"[" * 100000, fmt="table")
@example(data=b"\xff", fmt="structured")
def test_rank_exits_0_or_2_on_any_score_file(data, fmt):
    # any JSON, entries well formed or not, any bytes: a ranking or one error line, no traceback
    with tempfile.TemporaryDirectory() as tmp:
        scores = Path(tmp) / "scores.json"
        scores.write_bytes(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["rank", "--scores", str(scores), "--format", fmt])
    assert code in (0, 2)
    if code == 2:
        assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1
        assert stdout.getvalue() == ""
    elif fmt == "structured":
        doc = json.loads(stdout.getvalue())
        entrants = doc["dominance"]["entrants"]
        members = [name for front in doc["fronts"] for name in front]
        assert sorted(members) == sorted(entrants) and len(set(entrants)) == len(entrants)
