from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TINY_LAYOUT, flat_layout
from slpeval import pose_metrics
from slpeval.pose import DEFAULT_LAYOUT, PoseSequence
from slpeval.pose_metrics import (
    ZeroReferenceTravelError,
    aggregate_pairs,
    dtw_align,
    dtw_mje,
    hand_travel,
    score_pair,
    total_distance_ratio,
)
from slpeval.synth import SynthSpec, synth_sequence


def seq_of(values, layout=None, id="s") -> PoseSequence:
    frames = np.asarray(values, dtype=np.float64)
    layout = layout if layout is not None else flat_layout(frames.shape[1])
    return PoseSequence(id=id, frames=frames, layout=layout)


# ---------------------------------------------------------------- oracles


def frame_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean Euclidean distance between corresponding keypoints of two frames."""
    return float(np.linalg.norm(a - b, axis=-1).mean())


def enumerate_paths(p: int, r: int):
    """Every monotone path from (0, 0) to (p-1, r-1)."""
    paths = []

    def extend(path):
        i, j = path[-1]
        if i == p - 1 and j == r - 1:
            paths.append(tuple(path))
            return
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            ni, nj = i + di, j + dj
            if ni < p and nj < r:
                path.append((ni, nj))
                extend(path)
                path.pop()

    extend([(0, 0)])
    return paths


def oracle_dtw(pred: np.ndarray, ref: np.ndarray):
    """Exhaustive best path by (cost, cell count), accumulated front to back."""
    best = None
    for path in enumerate_paths(len(pred), len(ref)):
        total = 0.0
        for i, j in path:
            total += frame_distance(pred[i], ref[j])
        key = (total, len(path))
        if best is None or key < best:
            best = key
    return best


def _cost_matrix(pred: np.ndarray, ref: np.ndarray) -> np.ndarray:
    # row-wise to keep the (R, K, 3) temporary small for long sequences
    p, r = pred.shape[0], ref.shape[0]
    cost = np.empty((p, r), dtype=np.float64)
    for i in range(p):
        cost[i] = np.linalg.norm(pred[i][None, :, :] - ref, axis=2).mean(axis=1)
    return cost


def reference_dtw_align(pred: PoseSequence, ref: PoseSequence) -> tuple[float, int]:
    """The original per-cell DTW: full cost matrix, then one Python step per cell.

    Returns the lexicographic minimum (cost, cell count) over the paths to the last cell.
    """
    cost = _cost_matrix(pred.frames, ref.frames)
    p, r = cost.shape

    acc = np.full((p, r), np.inf)
    length = np.zeros((p, r), dtype=np.intp)
    acc[0, 0] = cost[0, 0]
    length[0, 0] = 1
    for i in range(p):
        for j in range(r):
            if i == 0 and j == 0:
                continue
            best_key = None
            for pi, pj in ((i - 1, j - 1), (i - 1, j), (i, j - 1)):
                if pi < 0 or pj < 0:
                    continue
                key = (acc[pi, pj], length[pi, pj])
                if best_key is None or key < best_key:
                    best_key = key
            acc[i, j] = best_key[0] + cost[i, j]
            length[i, j] = best_key[1] + 1
    return float(acc[p - 1, r - 1]), int(length[p - 1, r - 1])


@st.composite
def sequence_pairs(draw):
    """Two sequences of 1..40 frames and 1..6 keypoints.

    ``pool`` draws every frame from 2-3 distinct frames and ``integer`` uses
    small whole coordinates; both make many equal-cost paths, so they test
    the shortest-path rule, not just the minimum cost.
    """
    p, r = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    k = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("normal", "pool", "integer")))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    if kind == "pool":
        pool = rng.normal(size=(draw(st.integers(2, 3)), k, 3))
        pred, ref = pool[rng.integers(0, len(pool), p)], pool[rng.integers(0, len(pool), r)]
    elif kind == "integer":
        pred = rng.integers(-1, 2, size=(p, k, 3)).astype(np.float64)
        ref = rng.integers(-1, 2, size=(r, k, 3)).astype(np.float64)
    else:
        pred, ref = rng.normal(size=(p, k, 3)), rng.normal(size=(r, k, 3))
    layout = flat_layout(k)
    return seq_of(pred, layout), seq_of(ref, layout)


# ---------------------------------------------------------------- frame distance


def test_frame_distance_matches_direct_mean():
    rng = np.random.Generator(np.random.PCG64(1))
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    expected = sum(float(np.linalg.norm(a[k] - b[k])) for k in range(3)) / 3.0
    assert frame_distance(a, b) == pytest.approx(expected, abs=1e-12)


def test_frame_distance_zero_on_identical():
    a = np.ones((4, 3))
    assert frame_distance(a, a) == 0.0


# ---------------------------------------------------------------- dtw


def test_identity_alignment_is_diagonal_and_free():
    seq = synth_sequence(SynthSpec(frame_count=6, seed=2))
    assert dtw_align(seq, seq) == (0.0, 6)
    assert dtw_mje(seq, seq) == 0.0


def test_single_frame_against_two():
    pred = seq_of([[[0.0, 0.0, 0.0]]])
    ref = seq_of([[[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]])
    assert dtw_align(pred, ref) == (1.0, 2)
    # cost averaged over visited cells, not reference frames
    assert dtw_mje(pred, ref) == pytest.approx(0.5)


def test_dtw_refuses_different_keypoint_counts():
    with pytest.raises(ValueError, match="^keypoint counts differ: 2 vs 3$"):
        dtw_align(seq_of(np.zeros((2, 2, 3))), seq_of(np.zeros((2, 3, 3))))


def test_path_is_monotone_and_anchored():
    # a monotone path from (0, 0) to (4, 6) visits between max(p, r) and p + r - 1 cells
    rng = np.random.Generator(np.random.PCG64(3))
    pred = seq_of(rng.normal(size=(5, 4, 3)))
    ref = seq_of(rng.normal(size=(7, 4, 3)))
    _, length = dtw_align(pred, ref)
    assert max(5, 7) <= length <= 5 + 7 - 1


def test_dtw_matches_exhaustive_oracle():
    rng = np.random.Generator(np.random.PCG64(44))
    for _ in range(200):
        p = int(rng.integers(1, 7))
        r = int(rng.integers(1, 7))
        k = int(rng.integers(1, 6))
        layout = flat_layout(k)
        pred = seq_of(rng.normal(size=(p, k, 3)), layout)
        ref = seq_of(rng.normal(size=(r, k, 3)), layout)
        cost, cells = oracle_dtw(pred.frames, ref.frames)
        total, length = dtw_align(pred, ref)
        assert total == pytest.approx(cost, abs=1e-9)
        assert length == cells
        assert dtw_mje(pred, ref) == pytest.approx(cost / cells, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(sequence_pairs())
@example((seq_of(np.zeros((1, 1, 3))), seq_of(np.ones((1, 1, 3)))))
@example((seq_of(np.zeros((1, 2, 3))), seq_of(np.arange(30.0).reshape(5, 2, 3))))
@example((seq_of(np.arange(24.0).reshape(4, 2, 3)), seq_of(np.zeros((1, 2, 3)))))
@example((seq_of(np.zeros((3, 2, 3))), seq_of(np.zeros((4, 2, 3)))))
@example((seq_of(np.full((3, 1, 3), 1e200)), seq_of(np.full((4, 1, 3), -1e200))))  # inf costs
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_dtw_matches_reference_loop_exactly(pair):
    pred, ref = pair
    expected = reference_dtw_align(pred, ref)
    # a 3-row chunk splits these short diagonals the way long ones are split
    for chunk in (pose_metrics._CHUNK, 3):
        with mock.patch.object(pose_metrics, "_CHUNK", chunk):
            assert dtw_align(pred, ref) == expected


@pytest.mark.parametrize("p", range(1, 5))
@pytest.mark.parametrize("r", range(1, 5))
def test_dtw_matches_reference_loop_on_every_two_frame_pattern(p, r):
    # frames 0 and 1 on the x axis: every cost is 0 or 1, so equal sums are exact
    # and the shortest-path rule alone picks the length (x = 010 against 101 ties
    # pred- and ref-advance)
    for bits in itertools.product((0.0, 1.0), repeat=p + r):
        frames = np.zeros((p + r, 1, 3))
        frames[:, 0, 0] = bits
        pred, ref = seq_of(frames[:p]), seq_of(frames[p:])
        assert dtw_align(pred, ref) == reference_dtw_align(pred, ref), bits


def test_complex_minimum_orders_by_cost_then_length():
    # dtw_align keeps a cell's (cost, length) as cost + length*1j and takes the cheapest,
    # then shortest, predecessor with np.minimum: pin that numpy orders complex numbers so,
    # inf costs and the (inf, p + r) sentinel of a missing predecessor included
    p_plus_r = 9
    keys = [(0.0, 1), (0.0, 2), (0.5, 1), (1.0, 3), (1e308, 2), (np.inf, 1), (np.inf, 8),
            (np.inf, p_plus_r)]
    pairs = list(itertools.product(keys, repeat=2))
    a = np.array([complex(*x) for x, _ in pairs])
    b = np.array([complex(*y) for _, y in pairs])
    expected = np.array([complex(*min(x, y)) for x, y in pairs])
    for first, second in ((a, b), (b, a)):
        out = first.copy()
        np.minimum(out, second, out=out)  # in place, as each diagonal is filled
        assert out.tolist() == expected.tolist()


def test_dtw_mje_is_pinned_on_a_long_pair():
    # bit pattern from the per-cell implementation, above the sizes the loop oracle covers
    pred = synth_sequence(SynthSpec(frame_count=150, seed=1), id="a")
    ref = synth_sequence(SynthSpec(frame_count=120, seed=2), id="a")
    for chunk in (pose_metrics._CHUNK, 50):
        with mock.patch.object(pose_metrics, "_CHUNK", chunk):
            assert float.hex(dtw_mje(pred, ref)) == "0x1.5a70a065be63cp-6"


def test_dtw_is_symmetric_in_cost():
    rng = np.random.Generator(np.random.PCG64(5))
    a = seq_of(rng.normal(size=(4, 2, 3)))
    b = seq_of(rng.normal(size=(6, 2, 3)))
    assert dtw_mje(a, b) == pytest.approx(dtw_mje(b, a), abs=1e-12)


# ---------------------------------------------------------------- hand travel


def test_hand_travel_counts_both_hands():
    frames = np.zeros((2, 6, 3))
    frames[1, 4] = [0.0, 1.0, 0.0]  # left hand point
    frames[1, 5] = [0.0, 1.0, 0.0]  # right hand point
    seq = seq_of(frames, TINY_LAYOUT)
    assert hand_travel(seq) == pytest.approx(2.0)


def test_hand_travel_default_layout_unit_step():
    frames = np.zeros((2, 178, 3))
    frames[1, DEFAULT_LAYOUT.hand_indices] = [0.0, 1.0, 0.0]
    seq = PoseSequence(id="s", frames=frames)
    assert hand_travel(seq) == pytest.approx(42.0)


def test_hand_travel_ignores_body_and_face():
    frames = np.zeros((3, 6, 3))
    frames[:, 0] = np.arange(3)[:, None] * [1.0, 0.0, 0.0]  # neck walks away
    frames[:, 3] = np.arange(3)[:, None] * [0.0, 2.0, 0.0]  # face point too
    seq = seq_of(frames, TINY_LAYOUT)
    assert hand_travel(seq) == 0.0


def test_total_distance_doubles_with_displacement():
    frames = np.zeros((4, 6, 3))
    frames[:, 4, 0] = [0.0, 1.0, 2.0, 3.0]
    ref = seq_of(frames, TINY_LAYOUT, id="r")
    doubled = frames.copy()
    doubled[:, 4, 0] *= 2.0
    pred = seq_of(doubled, TINY_LAYOUT, id="r")
    assert total_distance_ratio(pred, ref) == pytest.approx(2.0)
    assert total_distance_ratio(ref, ref) == 1.0


def test_zero_reference_travel_raises():
    static = seq_of(np.zeros((3, 6, 3)), TINY_LAYOUT)
    moving = seq_of(np.ones((3, 6, 3)), TINY_LAYOUT)
    with pytest.raises(ZeroReferenceTravelError):
        total_distance_ratio(moving, static)


# ---------------------------------------------------------------- corpus


def make_pair(seed: int, frame_count: int = 5):
    ref = synth_sequence(SynthSpec(frame_count=frame_count, seed=seed), id=f"id{seed}")
    return ref, ref


def test_corpus_self_evaluation():
    refs = [synth_sequence(SynthSpec(frame_count=5, seed=s), id=f"id{s}") for s in range(4)]
    score, _ = aggregate_pairs([score_pair(ref, ref) for ref in refs])
    assert score.dtw_mje == 0.0
    assert score.total_distance_ratio == pytest.approx(1.0, abs=1e-12)
    assert score.excluded_ids == ()


def test_corpus_excludes_static_references():
    layout = TINY_LAYOUT
    moving = np.zeros((3, 6, 3))
    moving[:, 4, 0] = [0.0, 1.0, 2.0]
    a_ref = seq_of(moving, layout, id="a")
    b_ref = seq_of(np.zeros((3, 6, 3)), layout, id="b")  # static hands
    preds = [
        seq_of(moving, layout, id="a"),
        seq_of(np.ones((3, 6, 3)), layout, id="b"),
    ]
    score, _ = aggregate_pairs([score_pair(preds[0], a_ref), score_pair(preds[1], b_ref)])
    assert score.excluded_ids == ("b",)
    assert score.total_distance_ratio == pytest.approx(1.0)


def test_corpus_all_static_references_yfield_no_ratio():
    layout = TINY_LAYOUT
    static = seq_of(np.zeros((2, 6, 3)), layout, id="a")
    score, _ = aggregate_pairs([score_pair(static, static)])
    assert score.total_distance_ratio is None
    assert score.excluded_ids == ("a",)


def test_corpus_rejects_id_mismatch():
    a = seq_of(np.zeros((2, 6, 3)), TINY_LAYOUT, id="a")
    b = seq_of(np.zeros((2, 6, 3)), TINY_LAYOUT, id="b")
    with pytest.raises(ValueError, match="^id mismatch: prediction 'a' paired with reference 'b'$"):
        score_pair(a, b)


def test_aggregate_rejects_empty_corpus():
    with pytest.raises(ValueError, match="^empty corpus$"):
        aggregate_pairs([])


def test_corpus_mje_is_mean_of_sequence_mjes():
    rng = np.random.Generator(np.random.PCG64(9))
    layout = TINY_LAYOUT
    refs, preds = [], []
    for i in range(3):
        ref = seq_of(rng.normal(size=(4, 6, 3)), layout, id=f"s{i}")
        pred = seq_of(rng.normal(size=(5, 6, 3)), layout, id=f"s{i}")
        refs.append(ref)
        preds.append(pred)
    score, _ = aggregate_pairs([score_pair(p, r) for p, r in zip(preds, refs)])
    expected = np.mean([dtw_mje(p, r) for p, r in zip(preds, refs)])
    assert score.dtw_mje == pytest.approx(expected, abs=1e-12)
