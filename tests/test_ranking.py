from __future__ import annotations

import numpy as np
import pytest

from conftest import LEADERBOARD
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
