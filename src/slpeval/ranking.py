"""Leaderboard ranking via Pareto dominance over the nine-metric score vectors.

Every metric is first mapped to a minimization objective: BLEU, chrF and
ROUGE-L are negated, the error rates WER and DTW-MJE pass through, and the
hand-travel ratio becomes distance from its optimum of 1, so over- and
under-articulation are penalized symmetrically. One entrant dominates another
if it is at least as good in every objective and strictly better in at least
one; fronts are peeled iteratively and never favour a single metric.
"""

from __future__ import annotations

import math
import sys
import unicodedata
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CANONICAL_METRICS",
    "METRICS",
    "Metric",
    "Ranking",
    "ScoreVector",
    "dominance_matrix",
    "pareto_fronts",
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
_CANONICAL_SET = frozenset(CANONICAL_METRICS)
#: line boundaries (Cc, Zl, Zp) would forge table lines; a lone surrogate (Cs) has no UTF-8
_REFUSED_CATEGORIES = frozenset({"Cc", "Cs", "Zl", "Zp"})


@dataclass(frozen=True)
class ScoreVector:
    """One entrant's nine metric values, stored as floats in ``METRICS`` order. Nine finite
    ``float`` values pass in one pass; any others go value by value: ints pass, the rest fail."""

    entrant: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.entrant, str) or not self.entrant:
            raise ValueError(f"entrant must be a non-empty string, got {self.entrant!r}")
        categories = () if self.entrant.isprintable() else map(unicodedata.category, self.entrant)
        if not _REFUSED_CATEGORIES.isdisjoint(categories):  # none of them is printable
            raise ValueError(f"entrant {self.entrant!r} holds a control, line-break or surrogate")
        if len(self.values) != len(CANONICAL_METRICS):
            raise ValueError(
                f"score vector for {self.entrant!r} must carry one value for each of the "
                f"canonical metrics {list(CANONICAL_METRICS)}, got {len(self.values)}"
            )
        if not (set(map(type, self.values)) <= {float} and all(map(math.isfinite, self.values))):
            for name, value in zip(CANONICAL_METRICS, self.values):
                # bool is an int, and NaN would tie with every value
                finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
                if isinstance(value, bool) or not finite:
                    raise ValueError(
                        f"score vector for {self.entrant!r}: metric {name!r} must be a finite "
                        f"number, got {value!r}"
                    )
        object.__setattr__(self, "values", tuple(map(float, self.values)))

    @classmethod
    def from_metrics(cls, entrant: str, metrics: dict[str, float]) -> "ScoreVector":
        """Build from a name→value mapping, normalizing to canonical order."""
        if metrics.keys() != _CANONICAL_SET:
            missing = [name for name in CANONICAL_METRICS if name not in metrics]
            extra = [name for name in metrics if name not in CANONICAL_METRICS]
            raise ValueError(
                f"score vector for {entrant!r}: missing {missing}, unknown {extra}"
            )
        return cls(entrant, tuple(map(metrics.__getitem__, CANONICAL_METRICS)))

    def as_dict(self) -> dict[str, float]:
        return dict(zip(CANONICAL_METRICS, self.values))


@dataclass(frozen=True, eq=False)
class Ranking:
    """Pareto fronts; front 0 is non-dominated, entrants keep input order.

    ``dominance`` is the (N, N) bool array the fronts were peeled from (see
    :func:`dominance_matrix`).
    """

    fronts: tuple[tuple[str, ...], ...]
    dominance: np.ndarray


def pareto_fronts(entries: list[ScoreVector]) -> Ranking:
    """Partition entrants into fronts by non-dominated sorting (Deb et al., 2002).

    The dominance matrix is built once; each entrant counts how many others
    dominate it and joins the front after the last of them is peeled. An
    empty list or an entrant named twice is refused.
    """
    if not entries:
        raise ValueError("no score entries given")
    counts = Counter(entry.entrant for entry in entries)
    for name, count in counts.items():  # in order of first appearance
        if count > 1:
            raise ValueError(f"duplicate entrant {name!r}")
    matrix = dominance_matrix(entries)
    dominators = matrix.sum(axis=0)
    left = np.ones(len(entries), dtype=bool)
    fronts: list[tuple[str, ...]] = []
    while left.any():
        front = np.flatnonzero(left & (dominators == 0))
        fronts.append(tuple(entries[i].entrant for i in front))
        left[front] = False
        dominators -= matrix[front].sum(axis=0)
    return Ranking(fronts=tuple(fronts), dominance=matrix)


def dominance_matrix(entries: list[ScoreVector]) -> np.ndarray:
    """Pairwise (N, N) bool array in input order: cell [i, j] means i dominates j, that is
    ``no_worse[i, j] and not no_worse[j, i]``, each objective compared by its dense integer
    ranks: finite values are totally ordered and ``np.unique`` groups equal ones, -0.0 and 0.0."""
    values = np.array([entry.values for entry in entries])
    no_worse = np.ones((len(entries), len(entries)), dtype=bool)
    scratch = np.empty_like(no_worse)
    for metric, column in zip(METRICS, values.T):
        if metric.objective == "max":
            column = -column
        elif metric.objective == "one":  # hand-travel ratio: optimum is 1
            column = np.abs(1.0 - column)
        ranks = np.unique(column, return_inverse=True)[1].astype(np.min_scalar_type(len(entries)))
        no_worse &= np.less_equal(ranks[:, None], ranks, out=scratch)
    return np.logical_and(no_worse, np.logical_not(no_worse.T, out=scratch), out=scratch)
