"""Pose-based evaluation metrics.

Two corpus-level numbers summarize a system's pose output: the mean joint
error under dynamic-time-warping alignment (lower is better, 0 for a perfect
prediction) and the hand-travel ratio against the reference (1 is optimal;
values below 1 indicate under-articulated, "regressed to the mean" motion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pose import PoseSequence

__all__ = [
    "PairScore",
    "PoseScore",
    "ZeroReferenceTravelError",
    "aggregate_pairs",
    "dtw_align",
    "dtw_mje",
    "hand_travel",
    "score_pair",
    "total_distance_ratio",
]

#: reference hand travel below this is treated as "static" and excluded
ZERO_TRAVEL_EPSILON = 1e-9
#: DTW cost rows computed per numpy call
_CHUNK = 128


class ZeroReferenceTravelError(ValueError):
    """Reference hands never move, so the travel ratio is undefined."""


@dataclass(frozen=True)
class PoseScore:
    """Corpus pose metrics; ``total_distance_ratio`` is None when every
    reference was excluded for having (near-)zero hand travel."""

    dtw_mje: float
    total_distance_ratio: float | None
    excluded_ids: tuple[str, ...]


def dtw_align(pred: PoseSequence, ref: PoseSequence) -> tuple[float, int]:
    """Cost and cell count of the minimum-cost monotone alignment of two sequences.

    A path runs from frame pair (0, 0) to (P-1, R-1); each step advances the
    prediction, the reference or both. Its cost is the frame-distance sum over the
    visited cells; among equal-cost paths the shortest wins. Cells are filled one
    anti-diagonal ``i + j`` at a time, and only three diagonals are kept. A cell holds
    its accumulated cost and path length as one complex number, cost the real part and
    length the imaginary: numpy orders complex numbers by real part, then imaginary, so
    ``np.minimum`` of two predecessors is the cheaper one, and of equal costs the shorter.
    """
    if pred.num_keypoints != ref.num_keypoints:
        raise ValueError(f"keypoint counts differ: {pred.num_keypoints} vs {ref.num_keypoints}")
    p, r = len(pred.frames), len(ref.frames)
    # x, y, z as contiguous (T, K) planes, so each diagonal's squares stay contiguous;
    # the reference is stored back to front, so its frames of a diagonal read forward
    pred_xyz = np.ascontiguousarray(np.moveaxis(pred.frames, 2, 0))
    ref_xyz = np.ascontiguousarray(np.moveaxis(ref.frames[::-1], 2, 0))
    squares = np.empty((3, _CHUNK, pred.num_keypoints))
    # one diagonal's steps: frame distance + 1j, each adding its cell's cost and one cell
    steps = np.full(min(p, r), 1j)
    costs = steps.real
    # diagonal d at row d % 3, cell i at slot i + 1; slot 0 (i = -1) and slots past a
    # diagonal's end are never written, so a missing predecessor reads (inf, p + r)
    acc = np.full((3, p + 1), complex(np.inf, p + r))
    for d in range(p + r - 1):
        lo, hi = max(0, d - r + 1), min(d, p - 1)
        # cells (i, d - i) for a <= i < b, in row chunks so the squares stay in cache
        for a in range(lo, hi + 1, _CHUNK):
            b = min(a + _CHUNK, hi + 1)
            sq = squares[:, : b - a]
            np.subtract(pred_xyz[:, a:b], ref_xyz[:, r - 1 - d + a : r - 1 - d + b], out=sq)
            sq *= sq
            # summed as dx*dx + dy*dy + dz*dz, the order np.linalg.norm uses: bit-identical
            sq[0] += sq[1]
            sq[0] += sq[2]
            np.add.reduce(np.sqrt(sq[0], out=sq[0]), axis=1, out=costs[a - lo : b - lo])
        n = hi - lo + 1
        costs[:n] /= pred.num_keypoints  # means as ndarray.mean: sum, then divide
        row = acc[d % 3, lo + 1 : hi + 2]
        if d == 0:
            row[:] = steps[:1]
            continue
        # cell i's diagonal and pred-advance predecessors sit at slot i of diagonals
        # d - 2 and d - 1, its ref-advance predecessor at slot i + 1
        np.minimum(acc[(d - 2) % 3, lo : hi + 1], acc[(d - 1) % 3, lo : hi + 1], out=row)
        np.minimum(row, acc[(d - 1) % 3, lo + 1 : hi + 2], out=row)
        row += steps[:n]
    last = acc[(p + r - 2) % 3, p]
    return float(last.real), int(last.imag)


def dtw_mje(pred: PoseSequence, ref: PoseSequence) -> float:
    """Alignment cost divided by the number of aligned frame pairs."""
    cost, length = dtw_align(pred, ref)
    return cost / length


def hand_travel(seq: PoseSequence) -> float:
    """Total 3D distance travelled by the hand keypoints across the sequence."""
    hands = seq.frames[:, seq.layout.hand_indices, :]
    return float(np.linalg.norm(np.diff(hands, axis=0), axis=2).sum())


def total_distance_ratio(pred: PoseSequence, ref: PoseSequence) -> float:
    """Predicted hand travel normalized by reference hand travel (1 is optimal)."""
    ref_travel = hand_travel(ref)
    if ref_travel < ZERO_TRAVEL_EPSILON:
        raise ZeroReferenceTravelError(
            f"reference {ref.id!r} hand travel {ref_travel:g} is below {ZERO_TRAVEL_EPSILON:g}"
        )
    return hand_travel(pred) / ref_travel


@dataclass(frozen=True)
class PairScore:
    """One id's pose numbers; ``travel_ratio`` is None when its reference hands stay still."""

    id: str
    dtw_mje: float
    travel_ratio: float | None
    frame_ratio: float


def score_pair(pred: PoseSequence, ref: PoseSequence) -> PairScore:
    """DTW-MJE, hand-travel ratio and frame-count ratio of one prediction and its reference."""
    if pred.id != ref.id:
        raise ValueError(f"id mismatch: prediction {pred.id!r} paired with reference {ref.id!r}")
    try:
        travel = total_distance_ratio(pred, ref)
    except ZeroReferenceTravelError:
        travel = None
    return PairScore(ref.id, dtw_mje(pred, ref), travel, pred.num_frames / ref.num_frames)


def aggregate_pairs(pairs: list[PairScore]) -> tuple[PoseScore, float]:
    """Corpus pose score and duration ratio, each summed over ``pairs`` in their order.

    A pair whose reference hands stay still is left out of the travel ratio and excluded.
    """
    if not pairs:
        raise ValueError("empty corpus")
    mje_sum = ratio_sum = frame_sum = 0.0
    excluded: list[str] = []
    for pair in pairs:
        mje_sum += pair.dtw_mje
        if pair.travel_ratio is None:
            excluded.append(pair.id)
        else:
            ratio_sum += pair.travel_ratio
        frame_sum += pair.frame_ratio
    moving = len(pairs) - len(excluded)
    score = PoseScore(mje_sum / len(pairs), ratio_sum / moving if moving else None, tuple(excluded))
    return score, frame_sum / len(pairs)
