"""Leaderboard ranking via Pareto dominance over the nine-metric score vectors.

Every metric is first mapped to a minimization objective: text metrics and
the higher-is-better pose metric are negated, error rates pass through, and
the hand-travel ratio becomes distance from its optimum of 1, so over- and
under-articulation are penalized symmetrically. One entrant dominates another
if it is at least as good in every objective and strictly better in at least
one; fronts are peeled iteratively and never favour a single metric.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass

__all__ = [
    "CANONICAL_METRICS",
    "METRICS",
    "Metric",
    "ObjectiveVector",
    "Ranking",
    "ScoreVector",
    "dominance_matrix",
    "dominates",
    "pareto_fronts",
    "to_objectives",
]


@dataclass(frozen=True)
class Metric:
    """A leaderboard metric as the ranker, the report and its tables see it.

    ``objective`` is "max", "min" or "one" (closeness to 1); ``value`` reads
    the metric from the report's ``family`` score.
    """

    name: str
    key: str
    objective: str
    fmt: str
    family: str
    value: Callable


#: the one metric table, in leaderboard column order
METRICS = (
    Metric("BLEU-1", "bleu1", "max", "{:.2f}", "text", lambda text: text.bleu[0]),
    Metric("BLEU-2", "bleu2", "max", "{:.2f}", "text", lambda text: text.bleu[1]),
    Metric("BLEU-3", "bleu3", "max", "{:.2f}", "text", lambda text: text.bleu[2]),
    Metric("BLEU-4", "bleu4", "max", "{:.2f}", "text", lambda text: text.bleu[3]),
    Metric("CHRF", "chrf", "max", "{:.2f}", "text", lambda text: text.chrf),
    Metric("ROUGE", "rouge", "max", "{:.2f}", "text", lambda text: text.rouge),
    Metric("WER", "wer", "min", "{:.2f}", "text", lambda text: text.wer.rate),
    Metric("DTW-MJE", "dtw_mje", "min", "{:.4f}", "pose", lambda pose: pose.dtw_mje),
    Metric("Total Distance", "total_distance", "one", "{:.3f}", "pose",
           lambda pose: pose.total_distance_ratio),
)
CANONICAL_METRICS = tuple(metric.name for metric in METRICS)


@dataclass(frozen=True)
class ScoreVector:
    """One entrant's values for the canonical metric set, in canonical order."""

    entrant: str
    values: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        names = tuple(name for name, _ in self.values)
        if names != CANONICAL_METRICS:
            got = set(names)
            want = set(CANONICAL_METRICS)
            missing = sorted(want - got)
            extra = sorted(got - want)
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"unknown {extra}")
            raise ValueError(
                f"score vector for {self.entrant!r} must carry exactly the canonical "
                f"metrics {list(CANONICAL_METRICS)}" + (": " + ", ".join(detail) if detail else "")
            )

    @classmethod
    def from_metrics(cls, entrant: str, metrics: dict[str, float]) -> "ScoreVector":
        """Build from a name→value mapping, normalizing to canonical order."""
        missing = [name for name in CANONICAL_METRICS if name not in metrics]
        extra = [name for name in metrics if name not in CANONICAL_METRICS]
        if missing or extra:
            raise ValueError(
                f"score vector for {entrant!r}: missing {missing}, unknown {extra}"
            )
        values = []
        for name in CANONICAL_METRICS:
            value = metrics[name]
            # bool is an int, and NaN would tie with every value
            finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
            if isinstance(value, bool) or not finite:
                raise ValueError(
                    f"score vector for {entrant!r}: metric {name!r} must be a finite "
                    f"number, got {value!r}"
                )
            values.append((name, float(value)))
        return cls(entrant=entrant, values=tuple(values))

    def as_dict(self) -> dict[str, float]:
        return dict(self.values)


@dataclass(frozen=True)
class ObjectiveVector:
    """Canonical metrics recast so that lower is better in every component."""

    objectives: tuple[float, ...]


@dataclass(frozen=True)
class Ranking:
    """Pareto fronts; front 0 is non-dominated, entrants keep input order.

    ``dominance`` is the matrix the fronts were peeled from (see
    :func:`dominance_matrix`).
    """

    fronts: tuple[tuple[str, ...], ...]
    dominance: tuple[tuple[bool, ...], ...]


def to_objectives(score: ScoreVector) -> ObjectiveVector:
    objectives = []
    for metric, (_, value) in zip(METRICS, score.values):
        if metric.objective == "max":
            objectives.append(-value)
        elif metric.objective == "min":
            objectives.append(value)
        else:  # hand-travel ratio: optimum is 1
            objectives.append(abs(1.0 - value))
    return ObjectiveVector(objectives=tuple(objectives))


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """True iff ``a`` is no worse everywhere and strictly better somewhere."""
    if len(a.objectives) != len(b.objectives):
        raise ValueError(
            f"objective lengths differ: {len(a.objectives)} vs {len(b.objectives)}"
        )
    strictly_better = False
    for x, y in zip(a.objectives, b.objectives):
        if x > y:
            return False
        if x < y:
            strictly_better = True
    return strictly_better


def pareto_fronts(entries: list[ScoreVector]) -> Ranking:
    """Partition entrants into fronts by non-dominated sorting (Deb et al., 2002).

    The dominance matrix is built once; each entrant counts how many others
    dominate it and joins the front after the last of them is peeled.
    """
    if not entries:
        raise ValueError("at least one score vector is required")
    matrix = dominance_matrix(entries)
    dominators = [sum(column) for column in zip(*matrix)]
    front = [i for i, count in enumerate(dominators) if count == 0]
    fronts: list[tuple[str, ...]] = []
    while front:
        fronts.append(tuple(entries[i].entrant for i in front))
        next_front = []
        for i in front:
            for j, flag in enumerate(matrix[i]):
                if flag:
                    dominators[j] -= 1
                    if dominators[j] == 0:
                        next_front.append(j)
        front = sorted(next_front)
    return Ranking(fronts=tuple(fronts), dominance=matrix)


def dominance_matrix(entries: list[ScoreVector]) -> tuple[tuple[bool, ...], ...]:
    """Pairwise matrix in input order: cell [i][j] means i dominates j."""
    objectives = [to_objectives(entry) for entry in entries]
    return tuple(
        tuple(i != j and dominates(objectives[i], objectives[j]) for j in range(len(entries)))
        for i in range(len(entries))
    )
