"""Skeleton pose data model: layouts, sequences, file I/O, and normalization.

Coordinates live in a unitless canonical-skeleton space. A pose file is a
plain-text format: a header line ``POSE v1 <num_frames> <num_keypoints> <dims>``
followed by one whitespace-separated line of ``num_keypoints * dims`` decimal
floats per frame, keypoint-major (``k0.x k0.y k0.z k1.x ...``). Scientific
notation is accepted on read; writing always uses plain fixed notation chosen
so that parsing a written file reproduces the exact same float values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_LAYOUT",
    "DegenerateTorsoError",
    "KeypointLayout",
    "LayoutError",
    "PoseFormatError",
    "PoseSequence",
    "parse_layout",
    "parse_pose_file",
    "normalize_sequence",
    "validate_sequence",
    "write_pose_file",
]


class PoseFormatError(ValueError):
    """Raised when a pose file does not follow the POSE v1 format."""


class LayoutError(ValueError):
    """Raised for malformed layout descriptors or inconsistent layouts."""


class DegenerateTorsoError(ValueError):
    """Raised when neck and shoulders are collinear and no torso plane exists."""


@dataclass(frozen=True)
class KeypointLayout:
    """Named index ranges over the keypoints of a skeleton.

    The four ranges must be disjoint and together cover exactly
    ``[0, total)``. The neck and shoulder indices must lie in the body range.
    """

    body: range
    face: range
    left_hand: range
    right_hand: range
    neck: int
    left_shoulder: int
    right_shoulder: int

    def __post_init__(self) -> None:
        ranges = (self.body, self.face, self.left_hand, self.right_hand)
        covered: set[int] = set()
        count = 0
        for r in ranges:
            covered.update(r)
            count += len(r)
        total = count
        if covered != set(range(total)) or count != len(covered):
            raise LayoutError(
                "layout ranges must be disjoint and cover exactly "
                f"[0, {total}): body={self.body} face={self.face} "
                f"left_hand={self.left_hand} right_hand={self.right_hand}"
            )
        for name, idx in (
            ("neck", self.neck),
            ("lshoulder", self.left_shoulder),
            ("rshoulder", self.right_shoulder),
        ):
            if idx not in self.body:
                raise LayoutError(f"{name} index {idx} outside body range {self.body}")

    @property
    def total(self) -> int:
        return len(self.body) + len(self.face) + len(self.left_hand) + len(self.right_hand)

    @property
    def hand_indices(self) -> np.ndarray:
        """Indices of both hands, left then right."""
        return np.fromiter(
            (*self.left_hand, *self.right_hand), dtype=np.intp,
            count=len(self.left_hand) + len(self.right_hand),
        )


#: 178-keypoint convention: 8 body points first (0 neck, 1 left shoulder,
#: 2 right shoulder), then 128 face points, then 21 points per hand.
DEFAULT_LAYOUT = KeypointLayout(
    body=range(0, 8),
    face=range(8, 136),
    left_hand=range(136, 157),
    right_hand=range(157, 178),
    neck=0,
    left_shoulder=1,
    right_shoulder=2,
)

_LAYOUT_RANGE_KEYS = {"body": "body", "face": "face", "lhand": "left_hand", "rhand": "right_hand"}
_LAYOUT_INDEX_KEYS = {"neck": "neck", "lshoulder": "left_shoulder", "rshoulder": "right_shoulder"}


def parse_layout(text: str) -> KeypointLayout:
    """Parse a layout descriptor.

    One entry per line: ``body <start> <len>``, ``face <start> <len>``,
    ``lhand <start> <len>``, ``rhand <start> <len>``, ``neck <idx>``,
    ``lshoulder <idx>``, ``rshoulder <idx>``. Blank lines and ``#`` comment
    lines are ignored.
    """
    fields: dict[str, object] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        key = parts[0]
        try:
            if key in _LAYOUT_RANGE_KEYS:
                if len(parts) != 3:
                    raise ValueError
                start, length = int(parts[1]), int(parts[2])
                fields[_LAYOUT_RANGE_KEYS[key]] = range(start, start + length)
            elif key in _LAYOUT_INDEX_KEYS:
                if len(parts) != 2:
                    raise ValueError
                fields[_LAYOUT_INDEX_KEYS[key]] = int(parts[1])
            else:
                raise ValueError
        except ValueError:
            raise LayoutError(f"layout descriptor line {lineno}: malformed entry {stripped!r}") from None
    missing = ({*_LAYOUT_RANGE_KEYS.values(), *_LAYOUT_INDEX_KEYS.values()}) - fields.keys()
    if missing:
        raise LayoutError(f"layout descriptor missing entries: {', '.join(sorted(missing))}")
    return KeypointLayout(**fields)  # type: ignore[arg-type]


@dataclass(frozen=True, eq=False)
class PoseSequence:
    """An ordered sequence of skeleton frames.

    ``frames`` has shape ``(num_frames, num_keypoints, 3)`` and is stored
    read-only; sequences are immutable values after construction.
    """

    id: str
    frames: np.ndarray
    layout: KeypointLayout = DEFAULT_LAYOUT

    def __post_init__(self) -> None:
        frames = np.array(self.frames, dtype=np.float64, copy=True)
        if frames.ndim != 3 or frames.shape[2] != 3:
            raise ValueError(f"frames must have shape (T, K, 3), got {frames.shape}")
        if frames.shape[0] < 1:
            raise ValueError("a pose sequence needs at least one frame")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def num_keypoints(self) -> int:
        return self.frames.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PoseSequence):
            return NotImplemented
        return (
            self.id == other.id
            and self.layout == other.layout
            and self.frames.shape == other.frames.shape
            and np.array_equal(self.frames, other.frames)
        )

    def __repr__(self) -> str:  # keep large arrays out of test failure output
        return f"PoseSequence(id={self.id!r}, frames={self.num_frames}x{self.num_keypoints})"


def _format_value(x: float) -> str:
    # repr gives the shortest round-tripping decimal but may switch to
    # scientific notation; fall back to positional rendering in that case.
    s = repr(x)
    if "e" in s:
        s = np.format_float_positional(x, unique=True, trim="0")
    return s


def parse_pose_file(text: str, id: str, layout: KeypointLayout = DEFAULT_LAYOUT) -> PoseSequence:
    """Parse POSE v1 file contents into a :class:`PoseSequence`.

    Raises :class:`PoseFormatError` naming the offending line (and token
    column where applicable) on any deviation from the declared header.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise PoseFormatError("empty file: expected 'POSE v1 <frames> <keypoints> <dims>' header")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "POSE" or header[1] != "v1":
        raise PoseFormatError(
            f"line 1: expected header 'POSE v1 <frames> <keypoints> <dims>', got {lines[0]!r}"
        )
    try:
        num_frames, num_keypoints, dims = (int(tok) for tok in header[2:])
    except ValueError:
        raise PoseFormatError(f"line 1: non-integer header field in {lines[0]!r}") from None
    if num_frames < 1 or num_keypoints < 1:
        raise PoseFormatError(f"line 1: frame and keypoint counts must be positive, got {lines[0]!r}")
    if dims != 3:
        raise PoseFormatError(f"line 1: only 3-dimensional poses are supported, header declares {dims}")

    data_lines = lines[1:]
    if len(data_lines) != num_frames:
        raise PoseFormatError(
            f"frame count mismatch: header declares {num_frames} frames, file has {len(data_lines)}"
        )

    expected = num_keypoints * dims
    frames = np.empty((num_frames, expected), dtype=np.float64)
    for i, line in enumerate(data_lines):
        lineno = i + 2
        tokens = line.split()
        if len(tokens) != expected:
            raise PoseFormatError(f"line {lineno}: expected {expected} values, found {len(tokens)}")
        try:
            row = np.array(tokens, dtype=np.float64)
        except ValueError:
            for col, tok in enumerate(tokens, start=1):
                try:
                    float(tok)
                except ValueError:
                    raise PoseFormatError(
                        f"line {lineno}, column {col}: unparseable value {tok!r}"
                    ) from None
            raise  # pragma: no cover - every token parsed individually
        if not np.isfinite(row).all():
            col = int(np.flatnonzero(~np.isfinite(row))[0]) + 1
            raise PoseFormatError(f"line {lineno}, column {col}: non-finite value {tokens[col - 1]!r}")
        frames[i] = row

    return PoseSequence(id=id, frames=frames.reshape(num_frames, num_keypoints, dims), layout=layout)


def write_pose_file(seq: PoseSequence) -> str:
    """Serialize a sequence canonically; ``parse_pose_file`` inverts this exactly."""
    t, k = seq.num_frames, seq.num_keypoints
    out = [f"POSE v1 {t} {k} 3"]
    flat = seq.frames.reshape(t, k * 3)
    for row in flat:
        out.append(" ".join(_format_value(v) for v in row.tolist()))
    out.append("")
    return "\n".join(out)


def validate_sequence(seq: PoseSequence, layout: KeypointLayout | None = None) -> list[str]:
    """Check a sequence against a layout; returns violations (empty = valid)."""
    layout = layout if layout is not None else seq.layout
    violations: list[str] = []
    if seq.num_keypoints != layout.total:
        violations.append(f"point count {seq.num_keypoints} ≠ {layout.total}")
        return violations
    bad = ~np.isfinite(seq.frames)
    if bad.any():
        for frame_idx, point_idx in zip(*np.nonzero(bad.any(axis=2))):
            violations.append(f"non-finite coordinate at frame {frame_idx}, keypoint {point_idx}")
    return violations


def _torso_rotation(frame: np.ndarray, layout: KeypointLayout) -> np.ndarray:
    """Rotation matrix mapping the torso of ``frame`` onto the canonical axes.

    The shoulder line (right shoulder to left shoulder) maps to +x and the
    torso-plane normal to +z; rows of the returned matrix are the new basis.
    """
    neck = frame[layout.neck]
    left = frame[layout.left_shoulder]
    right = frame[layout.right_shoulder]
    points = (
        f"frame 0: neck {layout.neck}, lshoulder {layout.left_shoulder}, "
        f"rshoulder {layout.right_shoulder}"
    )
    if not np.isfinite([neck, left, right]).all():
        raise ValueError(f"{points} are not all finite")
    shoulder = left - right
    width = float(np.linalg.norm(shoulder))
    normal = np.cross(left - neck, right - neck)
    normal_len = float(np.linalg.norm(normal))
    # collinearity threshold is scale-relative to the shoulder width
    if width == 0.0 or normal_len < 1e-9 * width:
        raise DegenerateTorsoError(f"{points} are collinear")
    z = normal / normal_len
    x = shoulder - np.dot(shoulder, z) * z
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    return np.stack([x, y, z])


def normalize_sequence(seq: PoseSequence) -> PoseSequence:
    """Place the neck at the origin in every frame and fix the torso orientation.

    Translation is per frame; the rotation is computed once from frame 0 and
    applied rigidly to the whole sequence, so relative inter-keypoint
    distances are preserved and within-sequence torso motion is kept.
    """
    rot = _torso_rotation(seq.frames[0], seq.layout)
    necks = seq.frames[:, seq.layout.neck, :]
    frames = (seq.frames - necks[:, None, :]) @ rot.T
    return PoseSequence(id=seq.id, frames=frames, layout=seq.layout)
