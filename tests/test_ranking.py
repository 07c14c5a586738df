from __future__ import annotations

import numpy as np
import pytest

from conftest import LEADERBOARD
from slpeval.ranking import (
    CANONICAL_METRICS,
    ScoreVector,
    dominance_matrix,
    dominates,
    pareto_fronts,
    to_objectives,
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


@pytest.mark.parametrize("value", [None, float("nan"), float("inf"), "nan", "1.0", True, [1.0]])
def test_from_metrics_accepts_only_finite_numbers(value):
    metrics = dict(LEADERBOARD["team1"], **{"Total Distance": value})
    with pytest.raises(ValueError, match="'x'.*'Total Distance'.*finite number"):
        ScoreVector.from_metrics("x", metrics)


def test_from_metrics_accepts_ints_as_floats():
    metrics = dict(LEADERBOARD["team1"], WER=93)
    assert ScoreVector.from_metrics("x", metrics).as_dict()["WER"] == 93.0


def test_score_vector_enforces_canonical_order():
    values = tuple(reversed([(n, 1.0) for n in CANONICAL_METRICS]))
    with pytest.raises(ValueError, match="canonical"):
        ScoreVector(entrant="x", values=values)


def test_as_dict_round_trip():
    sv = ScoreVector.from_metrics("team1", LEADERBOARD["team1"])
    assert sv.as_dict() == LEADERBOARD["team1"]


# ---------------------------------------------------------------- objectives


def test_objectives_orientation():
    better_text = to_objectives(vector("a", **{"BLEU-1": 60.0}))
    worse_text = to_objectives(vector("b", **{"BLEU-1": 40.0}))
    assert better_text.objectives[0] < worse_text.objectives[0]

    low_wer = to_objectives(vector("a", WER=10.0))
    high_wer = to_objectives(vector("b", WER=90.0))
    assert low_wer.objectives[6] < high_wer.objectives[6]


def test_travel_ratio_objective_is_symmetric_about_one():
    under = to_objectives(vector("a", **{"Total Distance": 0.7}))
    over = to_objectives(vector("b", **{"Total Distance": 1.3}))
    assert under.objectives[8] == pytest.approx(over.objectives[8])
    ideal = to_objectives(vector("c", **{"Total Distance": 1.0}))
    assert ideal.objectives[8] == 0.0


# ---------------------------------------------------------------- dominance


def test_identical_vectors_do_not_dominate():
    a = to_objectives(vector("a"))
    b = to_objectives(vector("b"))
    assert not dominates(a, b)
    assert not dominates(b, a)


def test_single_improvement_dominates():
    a = to_objectives(vector("a", WER=40.0))
    b = to_objectives(vector("b"))
    assert dominates(a, b)
    assert not dominates(b, a)


def test_tradeoff_is_incomparable():
    a = vector("a", WER=40.0, **{"DTW-MJE": 0.08})
    b = vector("b")
    assert not dominates(to_objectives(a), to_objectives(b))
    assert not dominates(to_objectives(b), to_objectives(a))


def test_over_articulation_is_penalized():
    # travel ratio 1.6 is farther from 1 than 0.9: neither direction is free
    calm = vector("a", **{"Total Distance": 0.9})
    wild = vector("b", **{"Total Distance": 1.6})
    assert dominates(to_objectives(calm), to_objectives(wild))


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
    for trial in range(100):
        size = int(rng.integers(1, 9))
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
        assert ranking.dominance == matrix
        for i in range(size):
            for j in range(size):
                expected = i != j and oracle_dominates(
                    entries[i].as_dict(), entries[j].as_dict()
                )
                assert matrix[i][j] == expected
