from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from conftest import TINY_LAYOUT
from slpeval.cli import main
from slpeval.pose import (
    DEFAULT_LAYOUT,
    MAX_COORDINATE,
    normalize_sequence,
    validate_sequence,
    write_pose_file,
)
from slpeval.pose_metrics import hand_travel, total_distance_ratio
from slpeval.synth import (
    SynthSpec,
    mean_pose_baseline,
    perturb,
    rest_pose,
    synth_corpus,
    synth_sentence,
    synth_sequence,
)


def test_rest_pose_shape_and_anchors():
    pose = rest_pose()
    assert pose.shape == (178, 3)
    assert np.array_equal(pose[DEFAULT_LAYOUT.neck], [0.0, 0.0, 0.0])
    left = pose[DEFAULT_LAYOUT.left_shoulder]
    right = pose[DEFAULT_LAYOUT.right_shoulder]
    assert left[0] > 0.0 > right[0]


def test_rest_pose_torso_is_not_degenerate():
    seq = synth_sequence(SynthSpec(frame_count=2, seed=0))
    normalize_sequence(seq)  # must not raise


def test_sequences_are_reproducible():
    spec = SynthSpec(frame_count=8, amplitude=0.2, seed=42)
    a = synth_sequence(spec)
    b = synth_sequence(spec)
    assert a == b
    assert write_pose_file(a) == write_pose_file(b)


def test_different_seeds_differ():
    a = synth_sequence(SynthSpec(frame_count=8, seed=1))
    b = synth_sequence(SynthSpec(frame_count=8, seed=2))
    assert not np.array_equal(a.frames, b.frames)


def test_only_hands_move():
    seq = synth_sequence(SynthSpec(frame_count=6, seed=3))
    still = np.setdiff1d(np.arange(178), DEFAULT_LAYOUT.hand_indices)
    assert np.array_equal(seq.frames[0, still], seq.frames[-1, still])
    assert hand_travel(seq) > 0.0


def test_amplitude_scales_travel_linearly():
    base = SynthSpec(frame_count=10, amplitude=0.1, seed=5)
    doubled = SynthSpec(frame_count=10, amplitude=0.2, seed=5)
    travel_1 = hand_travel(synth_sequence(base))
    travel_2 = hand_travel(synth_sequence(doubled))
    assert travel_2 == pytest.approx(2.0 * travel_1, rel=1e-12)


def test_amplitude_ratio_shows_in_metric():
    ref = synth_sequence(SynthSpec(frame_count=10, amplitude=0.1, seed=5), id="x")
    pred = synth_sequence(SynthSpec(frame_count=10, amplitude=0.2, seed=5), id="x")
    assert total_distance_ratio(pred, ref) == pytest.approx(2.0, rel=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError, match="frame_count"):
        SynthSpec(frame_count=0)
    with pytest.raises(ValueError, match="amplitude"):
        SynthSpec(frame_count=2, amplitude=-0.1)


@pytest.mark.parametrize(
    "value, field", [(value, "amplitude") for value in (math.nan, math.inf, -math.inf)]
)
def test_spec_rejects_non_finite_parameters(value, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SynthSpec(frame_count=2, **{field: value})


def test_spec_keeps_coordinates_in_range():
    seq = synth_sequence(SynthSpec(frame_count=8, amplitude=MAX_COORDINATE, seed=4))
    assert validate_sequence(seq) is None
    for amplitude in (np.nextafter(MAX_COORDINATE, np.inf), 1e200):
        with pytest.raises(ValueError, match="amplitude must be at most 1e\\+75"):
            SynthSpec(frame_count=2, amplitude=amplitude)


def test_perturb_zero_sigma_is_identity():
    seq = synth_sequence(SynthSpec(frame_count=4, seed=6))
    assert perturb(seq, 0.0, seed=9) == seq


def test_perturb_is_reproducible_and_bounded():
    seq = synth_sequence(SynthSpec(frame_count=4, seed=6))
    a = perturb(seq, 0.02, seed=9)
    b = perturb(seq, 0.02, seed=9)
    assert a == b
    assert np.abs(a.frames - seq.frames).max() <= 0.02


def test_perturb_deviation_grows_with_sigma():
    seq = synth_sequence(SynthSpec(frame_count=4, seed=6))
    small = perturb(seq, 0.01, seed=9)
    large = perturb(seq, 0.05, seed=9)
    assert np.abs(large.frames - seq.frames).max() > np.abs(small.frames - seq.frames).max()


def test_synth_sequence_and_perturb_build_one_frames_array():
    # a 1000-frame default-layout sequence; numpy's first-call allocations are made beforehand
    perturb(synth_sequence(SynthSpec(frame_count=2)), 0.1, seed=0)
    tracemalloc.start()
    try:
        seq = synth_sequence(SynthSpec(frame_count=1000, seed=6))
        _, made = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        noisy = perturb(seq, 0.02, seed=9)
        _, perturbed = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert made < 1.5 * seq.frames.nbytes
    assert perturbed - held < 1.5 * seq.frames.nbytes
    # the noise is added in place, in the other order: IEEE addition commutes
    unit_noise = np.random.Generator(np.random.PCG64(9)).uniform(-1.0, 1.0, seq.frames.shape)
    assert np.array_equal(noisy.frames, seq.frames + 0.02 * unit_noise)


def test_perturb_rejects_negative_sigma():
    seq = synth_sequence(SynthSpec(frame_count=2, seed=0))
    with pytest.raises(ValueError, match="sigma"):
        perturb(seq, -1.0, seed=0)


def test_static_baseline_never_moves():
    refs = [synth_sequence(SynthSpec(frame_count=6, seed=s), id=f"r{s}") for s in range(4)]
    preds = mean_pose_baseline(refs)
    assert [p.id for p in preds] == [r.id for r in refs]
    assert [p.num_frames for p in preds] == [r.num_frames for r in refs]
    for pred in preds:
        assert hand_travel(pred) == 0.0


def test_per_frame_baseline_moves_but_less():
    refs = [synth_sequence(SynthSpec(frame_count=12, seed=s), id=f"r{s}") for s in range(6)]
    preds = mean_pose_baseline(refs, per_frame_index=True)
    for pred, ref in zip(preds, refs):
        travel = hand_travel(pred)
        assert 0.0 < travel < hand_travel(ref)


def test_per_frame_baseline_handles_ragged_lengths():
    refs = [
        synth_sequence(SynthSpec(frame_count=n, seed=n), id=f"r{n}") for n in (4, 7, 10)
    ]
    preds = mean_pose_baseline(refs, per_frame_index=True)
    assert [p.num_frames for p in preds] == [4, 7, 10]


def test_baseline_rejects_mixed_layouts():
    a = synth_sequence(SynthSpec(frame_count=3, seed=1))
    b_small = synth_sequence(SynthSpec(frame_count=3, seed=1), layout=TINY_LAYOUT)
    with pytest.raises(ValueError, match="layout|keypoint"):
        mean_pose_baseline([a, b_small])
    with pytest.raises(ValueError, match="empty"):
        mean_pose_baseline([])


def test_synth_sentence_is_deterministic_and_bounded():
    a = synth_sentence(31)
    assert a == synth_sentence(31)
    assert 4 <= len(a.split()) <= 8
    assert a == a.lower()


def test_synth_corpus_shape_and_determinism():
    corpus = synth_corpus(count=5, frame_count=7, seed=11)
    again = synth_corpus(count=5, frame_count=7, seed=11)
    assert [s.id for s, _ in corpus] == [f"seq{i:04d}" for i in range(5)]
    assert all(s.num_frames == 7 for s, _ in corpus)
    assert [(s, t) for s, t in corpus] == [(s, t) for s, t in again]
    # sequences vary within the corpus
    assert not np.array_equal(corpus[0][0].frames, corpus[1][0].frames)


def test_synth_corpus_rejects_bad_count():
    with pytest.raises(ValueError, match="count"):
        synth_corpus(count=0, frame_count=3)


#: sha256 of every file ``slpeval synth corpus --count 3 --frames 40 --seed 0`` writes,
#: as the per-value writer spelt them before the vectorized writer replaced it
SYNTH_CORPUS_DIGESTS = {
    "manifest.tsv": "3fc319b22137058d28eb373fde69008f3c67d4f48d9b911447aa73e6db9ffece",
    "poses/seq0000.pose": "c861327e9840f62a2e0be5271fb309505ea1f30a19a9152f92af4c0114de1914",
    "poses/seq0001.pose": "4014a0856f4c68efd34958796cd147743b5c5b68973ad5c3751e1b7a8ddc8221",
    "poses/seq0002.pose": "d47abd08b1e93ca71622d88ba459e0240727a621f87eae8d77aea7de5203f2f6",
}


def test_cli_synth_corpus_bytes_are_pinned(tmp_path, capsys):
    argv = ["synth", "corpus", "--count", "3", "--frames", "40", "--seed", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    written = {path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.rglob("*") if path.is_file()}
    assert written == SYNTH_CORPUS_DIGESTS
