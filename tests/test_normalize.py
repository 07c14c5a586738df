from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import TINY_LAYOUT
from slpeval.pose import DegenerateTorsoError, PoseSequence, normalize_sequence
from slpeval.synth import SynthSpec, synth_sequence


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rigid_transform(seq: PoseSequence, rot: np.ndarray, shift: np.ndarray) -> PoseSequence:
    return PoseSequence(id=seq.id, frames=seq.frames @ rot.T + shift, layout=seq.layout)


def test_neck_sits_at_origin_every_frame():
    seq = synth_sequence(SynthSpec(frame_count=9, seed=3))
    out = normalize_sequence(seq)
    necks = out.frames[:, seq.layout.neck, :]
    assert np.all(necks == 0.0)


def test_shoulder_line_maps_to_x_axis():
    seq = synth_sequence(SynthSpec(frame_count=5, seed=4))
    rng = np.random.Generator(np.random.PCG64(11))
    moved = rigid_transform(seq, random_rotation(rng), rng.normal(size=3))
    out = normalize_sequence(moved)
    frame0 = out.frames[0]
    shoulder = frame0[seq.layout.left_shoulder] - frame0[seq.layout.right_shoulder]
    width = np.linalg.norm(shoulder)
    assert shoulder[0] == pytest.approx(width, abs=1e-9)
    assert abs(shoulder[1]) < 1e-9 and abs(shoulder[2]) < 1e-9


def test_rigid_transform_invariance():
    rng = np.random.Generator(np.random.PCG64(2026))
    for i in range(20):
        seq = synth_sequence(SynthSpec(frame_count=7, seed=100 + i))
        moved = rigid_transform(seq, random_rotation(rng), rng.normal(scale=5.0, size=3))
        base = normalize_sequence(seq)
        via_transform = normalize_sequence(moved)
        np.testing.assert_allclose(via_transform.frames, base.frames, atol=1e-6)


def test_idempotence():
    for i in range(10):
        seq = synth_sequence(SynthSpec(frame_count=6, seed=200 + i))
        once = normalize_sequence(seq)
        twice = normalize_sequence(once)
        np.testing.assert_allclose(twice.frames, once.frames, atol=1e-9)


def test_bone_lengths_preserved():
    seq = synth_sequence(SynthSpec(frame_count=4, seed=5))
    out = normalize_sequence(seq)
    for before, after in zip(seq.frames, out.frames):
        # all pairwise point distances within the frame must survive
        d_before = np.linalg.norm(before[:, None, :] - before[None, :, :], axis=2)
        d_after = np.linalg.norm(after[:, None, :] - after[None, :, :], axis=2)
        np.testing.assert_allclose(d_after, d_before, atol=1e-9)


def test_collinear_torso_raises():
    frames = np.zeros((2, 6, 3))
    frames[:, 1] = [1.0, 0.0, 0.0]  # left shoulder
    frames[:, 2] = [2.0, 0.0, 0.0]  # right shoulder, collinear with neck at origin
    seq = PoseSequence(id="bad", frames=frames, layout=TINY_LAYOUT)
    with pytest.raises(DegenerateTorsoError, match="collinear") as err:
        normalize_sequence(seq)
    assert str(err.value).startswith("frame 0: neck 0, lshoulder 1, rshoulder 2 are collinear")


def test_non_finite_torso_names_frame_and_indices():
    layout = replace(TINY_LAYOUT, neck=2, left_shoulder=0, right_shoulder=1)
    frames = synth_sequence(SynthSpec(frame_count=2, seed=1), layout=TINY_LAYOUT).frames.copy()
    frames[0, 1, 2] = np.nan
    seq = PoseSequence(id="bad", frames=frames, layout=layout)
    with pytest.raises(ValueError, match=r"^frame 0: neck 2, lshoulder 0, rshoulder 1 are not all"):
        normalize_sequence(seq)


def test_coincident_shoulders_raise():
    frames = np.zeros((1, 6, 3))
    frames[:, 1] = [0.3, 0.1, 0.0]
    frames[:, 2] = [0.3, 0.1, 0.0]
    seq = PoseSequence(id="bad", frames=frames, layout=TINY_LAYOUT)
    with pytest.raises(DegenerateTorsoError):
        normalize_sequence(seq)


def test_only_frame_zero_sets_the_rotation():
    # a sequence whose torso twists after frame 0 keeps that twist
    seq = synth_sequence(SynthSpec(frame_count=3, seed=6))
    rng = np.random.Generator(np.random.PCG64(7))
    rot = random_rotation(rng)
    frames = seq.frames.copy()
    frames[2] = frames[2] @ rot.T
    twisted = PoseSequence(id=seq.id, frames=frames, layout=seq.layout)
    out = normalize_sequence(twisted)
    ref = normalize_sequence(seq)
    np.testing.assert_allclose(out.frames[0], ref.frames[0], atol=1e-9)
    assert not np.allclose(out.frames[2], ref.frames[2], atol=1e-6)


def test_identity_and_layout_survive():
    seq = synth_sequence(SynthSpec(frame_count=3, seed=8))
    out = normalize_sequence(seq)
    assert out.id == seq.id
    assert out.layout == seq.layout
    assert out.num_frames == seq.num_frames
