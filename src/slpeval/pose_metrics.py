"""Pose-based evaluation metrics.

Two corpus-level numbers summarize a system's pose output: the mean joint
error under dynamic-time-warping alignment (lower is better, 0 for a perfect
prediction) and the hand-travel ratio against the reference (1 is optimal;
values below 1 indicate under-articulated, "regressed to the mean" motion).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pose import PoseSequence

__all__ = [
    "AlignmentPath",
    "PoseScore",
    "ZeroReferenceTravelError",
    "corpus_pose_metrics",
    "dtw_align",
    "dtw_mje",
    "hand_travel",
    "total_distance_ratio",
]

#: reference hand travel below this is treated as "static" and excluded
ZERO_TRAVEL_EPSILON = 1e-9
#: DTW cost rows computed per numpy call
_CHUNK = 128


class ZeroReferenceTravelError(ValueError):
    """Reference hands never move, so the travel ratio is undefined."""


@dataclass(frozen=True)
class AlignmentPath:
    """A monotone warping path over (prediction frame, reference frame) cells.

    The path starts at ``(0, 0)``, ends at ``(P-1, R-1)``, and each step
    advances one index or both. ``total_cost`` is the frame-distance sum over
    the visited cells.
    """

    steps: tuple[tuple[int, int], ...]
    total_cost: float


@dataclass(frozen=True)
class PoseScore:
    """Corpus pose metrics; ``total_distance_ratio`` is None when every
    reference was excluded for having (near-)zero hand travel."""

    dtw_mje: float
    total_distance_ratio: float | None
    excluded_ids: tuple[str, ...] = field(default=())


def dtw_align(pred: PoseSequence, ref: PoseSequence) -> AlignmentPath:
    """Minimum-cost monotone alignment between two sequences.

    Steps are {advance prediction, advance reference, advance both}. Among
    equal-cost paths the shortest wins, with ties broken deterministically:
    diagonal first, then prediction-advance, then reference-advance. Cells are
    filled one anti-diagonal ``i + j`` at a time; only three diagonals of
    accumulated cost and length are kept, plus one byte of back-pointer per cell.
    """
    if pred.num_keypoints != ref.num_keypoints:
        raise ValueError(f"keypoint counts differ: {pred.num_keypoints} vs {ref.num_keypoints}")
    p, r = len(pred.frames), len(ref.frames)
    # x, y, z as contiguous (T, K) planes, so each diagonal's squares stay contiguous;
    # the reference is stored back to front, so its frames of a diagonal read forward
    pred_xyz = np.ascontiguousarray(np.moveaxis(pred.frames, 2, 0))
    ref_xyz = np.ascontiguousarray(np.moveaxis(ref.frames[::-1], 2, 0))
    w = min(p, r)  # cells on the longest diagonal
    squares = np.empty((3, _CHUNK, pred.num_keypoints))
    costs = np.empty(w)
    # acc/length of diagonal d at row d % 3, slot i + 1; slot 0 (i = -1) and slots
    # past a diagonal's end are never written, so a missing predecessor reads (inf, p + r)
    acc = np.full((3, p + w + 1), np.inf)
    length = np.full((3, p + w + 1), p + r, dtype=np.intp)
    back = np.zeros((p, r), dtype=np.int8)  # 0 diagonal, 1 pred-advance, 2 ref-advance
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
            np.sqrt(sq[0], out=sq[0]).mean(axis=1, out=costs[a - lo : b - lo])
        if d == 0:
            acc[0, 1], length[0, 1] = costs[0], 1
            continue
        # cell i's diagonal and pred-advance predecessors sit at slot i of diagonals
        # d - 2 and d - 1, its ref-advance predecessor at slot i + 1. The w cells from
        # lo are compared and those past hi dropped: temporaries of one length per
        # pair, not one per diagonal, keep numpy's small-block cache from pinning the heap
        best_acc, best_len = acc[(d - 2) % 3, lo : lo + w], length[(d - 2) % 3, lo : lo + w]
        move = np.zeros(w, dtype=np.int8)
        for m in (1, 2):
            cand_acc = acc[(d - 1) % 3, lo + m - 1 : lo + m - 1 + w]
            cand_len = length[(d - 1) % 3, lo + m - 1 : lo + m - 1 + w]
            better = (cand_acc < best_acc) | ((cand_acc == best_acc) & (cand_len < best_len))
            best_acc = np.where(better, cand_acc, best_acc)
            best_len = np.where(better, cand_len, best_len)
            np.copyto(move, m, where=better)
        n = hi - lo + 1
        np.add(best_acc[:n], costs[:n], out=acc[d % 3, lo + 1 : hi + 2])
        np.add(best_len[:n], 1, out=length[d % 3, lo + 1 : hi + 2])
        # cell (i, d - i) is flat index i * (r - 1) + d
        back.reshape(-1)[lo * (r - 1) + d : hi * (r - 1) + d + 1 : max(r - 1, 1)] = move[:n]

    steps = [(p - 1, r - 1)]
    i, j = p - 1, r - 1
    while (i, j) != (0, 0):
        move = back[i, j]
        if move == 0:
            i, j = i - 1, j - 1
        elif move == 1:
            i -= 1
        else:
            j -= 1
        steps.append((i, j))
    steps.reverse()
    return AlignmentPath(steps=tuple(steps), total_cost=float(acc[(p + r - 2) % 3, p]))


def dtw_mje(pred: PoseSequence, ref: PoseSequence) -> float:
    """Alignment cost divided by the number of aligned frame pairs."""
    path = dtw_align(pred, ref)
    return path.total_cost / len(path.steps)


def hand_travel(seq: PoseSequence) -> float:
    """Total 3D distance travelled by the hand keypoints across the sequence."""
    hands = seq.frames[:, seq.layout.hand_indices, :]
    if hands.shape[0] < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(hands, axis=0), axis=2).sum())


def total_distance_ratio(pred: PoseSequence, ref: PoseSequence) -> float:
    """Predicted hand travel normalized by reference hand travel (1 is optimal)."""
    ref_travel = hand_travel(ref)
    if ref_travel < ZERO_TRAVEL_EPSILON:
        raise ZeroReferenceTravelError(
            f"reference {ref.id!r} hand travel {ref_travel:g} is below {ZERO_TRAVEL_EPSILON:g}"
        )
    return hand_travel(pred) / ref_travel


def corpus_pose_metrics(preds: list[PoseSequence], refs: list[PoseSequence]) -> PoseScore:
    """Aggregate per-sequence metrics over an id-paired corpus.

    DTW-MJE averages over all sequences; the travel ratio averages over the
    sequences whose reference actually moves, the rest are reported excluded.
    """
    if len(preds) != len(refs):
        raise ValueError(f"corpus sizes differ: {len(preds)} predictions vs {len(refs)} references")
    if not refs:
        raise ValueError("empty corpus")
    for pred, ref in zip(preds, refs):
        if pred.id != ref.id:
            raise ValueError(f"id mismatch: prediction {pred.id!r} paired with reference {ref.id!r}")

    mje_sum = 0.0
    ratio_sum = 0.0
    ratio_count = 0
    excluded: list[str] = []
    for pred, ref in zip(preds, refs):
        mje_sum += dtw_mje(pred, ref)
        try:
            ratio_sum += total_distance_ratio(pred, ref)
            ratio_count += 1
        except ZeroReferenceTravelError:
            excluded.append(ref.id)

    ratio = ratio_sum / ratio_count if ratio_count else None
    return PoseScore(
        dtw_mje=mje_sum / len(preds),
        total_distance_ratio=ratio,
        excluded_ids=tuple(excluded),
    )
