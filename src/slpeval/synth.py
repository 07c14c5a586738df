"""Deterministic synthetic fixtures: pose corpora and mean-pose baselines.

Generated sequences keep the body and face static around a plausible rest
pose (neck at the origin) while the hand keypoints follow seeded sinusoidal
3D trajectories. Everything is a pure function of its arguments including the
seed; randomness comes from numpy's PCG64 bit generator, whose bit-stream is
stable across platforms and numpy releases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pose import DEFAULT_LAYOUT, KeypointLayout, PoseSequence

__all__ = [
    "SynthSpec",
    "mean_pose_baseline",
    "perturb",
    "rest_pose",
    "synth_corpus",
    "synth_sentence",
    "synth_sequence",
]

#: small weather-domain vocabulary for deterministic reference sentences
_VOCABULARY = (
    "und", "regen", "schnee", "wind", "sonne", "wolken", "morgen", "heute",
    "abend", "nacht", "norden", "sueden", "osten", "westen", "grad",
    "gewitter", "nebel", "frisch", "kalt", "warm", "teilweise", "stark",
)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic sequence."""

    frame_count: int
    amplitude: float = 0.1
    frequency: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.frame_count < 1:
            raise ValueError(f"frame_count must be >= 1, got {self.frame_count}")
        if not math.isfinite(self.amplitude) or self.amplitude < 0:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        # a huge finite frequency still overflows the phase to inf, and sin(inf) is nan
        if not math.isfinite(2.0 * math.pi * self.frequency * self.frame_count):
            raise ValueError(
                f"frequency must be finite, with 2*pi*frequency*frame_count finite too, "
                f"got {self.frequency}"
            )


def rest_pose(layout: KeypointLayout = DEFAULT_LAYOUT) -> np.ndarray:
    """Static rest pose for a layout, shape (total, 3).

    Neck at the origin, shoulders split along x slightly above it (so the
    torso plane is well defined), remaining body points down the spine, face
    points on a small ellipsoid above the neck, hands resting in front of the
    lower torso.
    """
    pose = np.zeros((layout.total, 3))
    body = list(layout.body)
    pose[layout.neck] = (0.0, 0.0, 0.0)
    pose[layout.left_shoulder] = (0.25, 0.05, 0.0)
    pose[layout.right_shoulder] = (-0.25, 0.05, 0.0)
    spine = [i for i in body if i not in (layout.neck, layout.left_shoulder, layout.right_shoulder)]
    for rank, idx in enumerate(spine, start=1):
        pose[idx] = (0.02 * (rank % 2), -0.15 * rank, 0.0)

    golden = np.pi * (3.0 - np.sqrt(5.0))
    for rank, idx in enumerate(layout.face):
        n = max(len(layout.face), 1)
        z = 1.0 - 2.0 * (rank + 0.5) / n
        radius = np.sqrt(max(1.0 - z * z, 0.0))
        theta = golden * rank
        pose[idx] = (
            0.09 * radius * np.cos(theta),
            0.30 + 0.11 * z,
            0.02 + 0.07 * radius * np.sin(theta),
        )

    for hand, base_x in ((layout.left_hand, 0.35), (layout.right_hand, -0.35)):
        for rank, idx in enumerate(hand):
            pose[idx] = (
                base_x + 0.012 * (rank % 5) * np.sign(base_x),
                -0.25 - 0.015 * (rank // 5),
                0.15 + 0.008 * (rank % 3),
            )
    return pose


def synth_sequence(
    spec: SynthSpec,
    layout: KeypointLayout = DEFAULT_LAYOUT,
    id: str | None = None,
) -> PoseSequence:
    """Generate one sequence; identical (spec, layout) always yields identical output.

    Hand keypoints oscillate along per-keypoint random unit directions with
    random phases; displacement is linear in the amplitude.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    base = rest_pose(layout)
    hand_idx = layout.hand_indices
    directions = rng.normal(size=(len(hand_idx), 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(hand_idx))

    t = np.arange(spec.frame_count)[:, None]
    angle = 2.0 * np.pi * spec.frequency * t / spec.frame_count + phases[None, :]
    swing = spec.amplitude * np.sin(angle)  # (T, n_hand)

    frames = np.broadcast_to(base, (spec.frame_count, *base.shape)).copy()
    frames[:, hand_idx, :] += swing[:, :, None] * directions[None, :, :]
    seq_id = id if id is not None else f"synth-{spec.seed}"
    return PoseSequence(id=seq_id, frames=frames, layout=layout)


def perturb(seq: PoseSequence, sigma: float, seed: int) -> PoseSequence:
    """Add seeded uniform noise in [-sigma, sigma] to every coordinate."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = np.random.Generator(np.random.PCG64(seed))
    unit_noise = rng.uniform(-1.0, 1.0, size=seq.frames.shape)
    return PoseSequence(id=seq.id, frames=seq.frames + sigma * unit_noise, layout=seq.layout)


def _check_same_shape(refs: list[PoseSequence]) -> None:
    if not refs:
        raise ValueError("reference set is empty")
    first = refs[0]
    for ref in refs[1:]:
        if ref.num_keypoints != first.num_keypoints or ref.layout != first.layout:
            raise ValueError("baseline references must share keypoint count and layout")


def mean_pose_baseline(
    refs: list[PoseSequence], per_frame_index: bool = False
) -> list[PoseSequence]:
    """Regression-to-the-mean caricature baselines.

    The default repeats the corpus-mean pose (mean over every frame of every
    reference), producing completely static predictions. With
    ``per_frame_index`` the prediction's frame ``t`` is the mean over the
    references long enough to have a frame ``t``, which moves, but with
    shrunken articulation.
    """
    _check_same_shape(refs)
    if not per_frame_index:
        stacked = np.concatenate([ref.frames for ref in refs], axis=0)
        mean_pose = stacked.mean(axis=0)
        return [
            PoseSequence(
                id=ref.id,
                frames=np.broadcast_to(mean_pose, (ref.num_frames, *mean_pose.shape)),
                layout=ref.layout,
            )
            for ref in refs
        ]

    max_frames = max(ref.num_frames for ref in refs)
    means = np.empty((max_frames, refs[0].num_keypoints, 3))
    for t in range(max_frames):
        at_t = [ref.frames[t] for ref in refs if ref.num_frames > t]
        means[t] = np.mean(at_t, axis=0)
    return [
        PoseSequence(id=ref.id, frames=means[: ref.num_frames], layout=ref.layout)
        for ref in refs
    ]


def synth_sentence(seed: int, min_words: int = 4, max_words: int = 8) -> str:
    """Deterministic weather-flavoured reference sentence."""
    rng = np.random.Generator(np.random.PCG64(seed))
    count = int(rng.integers(min_words, max_words + 1))
    words = rng.choice(len(_VOCABULARY), size=count)
    return " ".join(_VOCABULARY[i] for i in words)


def synth_corpus(
    count: int,
    frame_count: int,
    amplitude: float = 0.1,
    frequency: float = 1.0,
    seed: int = 0,
    layout: KeypointLayout = DEFAULT_LAYOUT,
) -> list[tuple[PoseSequence, str]]:
    """A corpus of (sequence, reference sentence) pairs, derived from one seed."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    state = np.random.SeedSequence(seed).generate_state(2 * count, np.uint64)
    corpus = []
    for i in range(count):
        spec = SynthSpec(
            frame_count=frame_count,
            amplitude=amplitude,
            frequency=frequency,
            seed=int(state[2 * i]),
        )
        seq = synth_sequence(spec, layout, id=f"seq{i:04d}")
        sentence = synth_sentence(int(state[2 * i + 1]))
        corpus.append((seq, sentence))
    return corpus
