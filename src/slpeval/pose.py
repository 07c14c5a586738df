"""Skeleton pose data model: layouts, sequences, file I/O, and normalization.

Coordinates live in a unitless canonical-skeleton space. A pose file is a
plain-text format: a header line ``POSE v1 <num_frames> <num_keypoints> <dims>``
followed by one whitespace-separated line of ``num_keypoints * dims`` decimal
floats per frame, keypoint-major (``k0.x k0.y k0.z k1.x ...``). A value may be
anything ``float()`` reads, scientific notation included; writing always uses
plain fixed notation chosen so that parsing a written file reproduces the
exact same float values. Files in that written spelling take an exact
vectorized reader; any other file is read line by line.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_LAYOUT",
    "MAX_COORDINATE",
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
        # each non-empty range as (lowest index, length, highest - lowest + 1): sorted,
        # they tile [0, total) when each is contiguous and starts where the last ended
        end = 0
        for low, length, span in sorted(
            (min(r[0], r[-1]), len(r), abs(r[-1] - r[0]) + 1) for r in ranges if r
        ):
            if low != end or span != length:
                raise LayoutError(
                    "layout ranges must be disjoint and cover exactly "
                    f"[0, {self.total}): body={self.body} face={self.face} "
                    f"left_hand={self.left_hand} right_hand={self.right_hand}"
                )
            end += length
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

#: largest coordinate magnitude a valid sequence may hold. Normalization
#: squares the torso normal, whose components grow with the square of the
#: coordinates, so that sum overflows float64 near 1e77.
MAX_COORDINATE = 1e75

#: the exact reader takes the data section in blocks of whole lines of at most
#: this many bytes (a longer line is a block of its own), bounding its scratch
_BLOCK = 256 * 1024


def _midpoint_bits() -> tuple[int, int, int] | None:
    """How to tell a long double that lies halfway between two float64 numbers.

    Returns ``(word, mask, half)``: viewed as uint64 pairs, a long double
    keeps the low bits of its significand in column ``word``, and it is a
    float64 midpoint when those of them below float64 precision (``mask``)
    equal ``half``. None unless the long double holds every integer below
    10**18 and every 10**f for f <= 27 exactly in 16 bytes, which x87
    extended (63 stored mantissa bits) and binary128 (112) do.
    """
    info = np.finfo(np.longdouble)
    if info.nmant not in (63, 112) or info.dtype.itemsize != 16:
        return None
    probe = np.zeros(2, dtype=np.longdouble)
    probe[0] = 1
    probe[1] = np.nextafter(probe[0], probe[0] + 1)
    words = probe.view(np.uint64).reshape(2, 2)
    below = info.nmant - 52
    return int(np.flatnonzero(words[0] != words[1])[0]), (1 << below) - 1, 1 << (below - 1)


#: None where the exact reader cannot run; every file is then read line by line
_MIDPOINT = _midpoint_bits()
#: 10**0 .. 10**27, each exact in a long double that passes ``_midpoint_bits``
_POW10 = np.concatenate(([1], np.cumprod(np.full(27, 10, dtype=np.longdouble))))
#: a mantissa this far from zero may be a saturated int64 and is read by float()
_MANTISSA_LIMIT = 10**18
_NEWLINE, _SPACE, _MINUS, _DOT, _DIGIT_0, _DIGIT_9 = b"\n -.09"

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
                if length > sys.maxsize:  # no range that long has a len()
                    raise ValueError
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


def _read_exact(text: str, start: int, rows: int, width: int) -> np.ndarray | None:
    """The data section ``text[start:]`` as a flat float64 array, or None.

    Returns values only when the section is exactly ``rows`` lines of
    ``width`` tokens matching ``-?[0-9]+[.][0-9]+``, one space apart, the last
    newline optional, and every value is finite; each value then has the
    bits ``float()`` gives. A token with ``f`` fraction digits is the integer
    mantissa ``M`` of its digits over ``10**f``: both are exact in a long
    double, whose one correctly rounded division is then rounded to float64.
    That second rounding can differ from ``float()`` only when the long
    double lies on a float64 midpoint; such tokens, and those with
    ``|M| >= 10**18`` or ``f > 27``, are read by ``float()`` instead.
    """
    word, mask, half = _MIDPOINT
    end = len(text)
    # a value takes at least three characters and a separator
    if 4 * rows * width - 1 > end - start:
        return None
    out = np.empty(rows * width, dtype=np.float64)
    done = 0
    while start < end:
        stop = end
        if end - start > _BLOCK:
            newline = text.rfind("\n", start, start + _BLOCK)
            if newline < 0:
                newline = text.find("\n", start + _BLOCK)
            stop = end if newline < 0 else newline + 1
        block = text[start:stop].encode("ascii")
        start = stop
        chars = np.frombuffer(block, dtype=np.uint8)
        if chars.max() > _DIGIT_9:
            return None
        # the characters that are not digits, between a newline before the
        # block and one after it that the last line of the file may lack
        marks = np.flatnonzero(chars < _DIGIT_0)
        if chars[-1] != _NEWLINE:
            marks = np.append(marks, len(chars))
        marks = np.insert(marks, 0, -1)
        kinds = np.append(chars, np.uint8(_NEWLINE))[marks]  # -1 and len(chars) read it
        # two marks touch only as a separator then a minus, as every minus must
        touching = np.flatnonzero(marks[1:] == marks[:-1] + 1)
        minus = kinds == _MINUS
        if (
            len(touching) != np.count_nonzero(minus)
            or (kinds[touching] > _SPACE).any()
            or (kinds[touching + 1] != _MINUS).any()
        ):
            return None
        # the rest alternate separator, dot, separator: one dot a token
        marks, kinds = marks[~minus], kinds[~minus]
        seps, dots = marks[0::2], marks[1::2]
        tokens = len(dots)
        if (
            len(seps) != tokens + 1
            or tokens % width
            or done + tokens > len(out)
            or (kinds[1::2] != _DOT).any()
        ):
            return None
        lines = kinds[2::2].reshape(-1, width)
        if (lines[:, :-1] != _SPACE).any() or (lines[:, -1] != _NEWLINE).any():
            return None

        mantissas = np.fromstring(block.replace(b".", b""), dtype=np.int64, sep=" ")
        fraction_digits = seps[1:] - dots - 1
        slow = (
            (mantissas >= _MANTISSA_LIMIT)  # an int64 overflow saturates, to either extreme
            | (mantissas <= -_MANTISSA_LIMIT)
            | (fraction_digits >= len(_POW10))
        )
        np.minimum(fraction_digits, len(_POW10) - 1, out=fraction_digits)
        # the sign rides along: rounding to nearest is symmetric about zero
        quotients = mantissas.astype(np.longdouble) / _POW10[fraction_digits]
        values = quotients.astype(np.float64)
        slow |= (quotients.view(np.uint64)[word::2] & mask) == half
        # -0.0 has mantissa 0; its sign is the token's first character
        zeros = np.flatnonzero(mantissas == 0)
        values[zeros[chars[seps[zeros] + 1] == _MINUS]] = -0.0
        for k in np.flatnonzero(slow).tolist():
            value = float(block[seps[k] + 1 : seps[k + 1]])
            if not math.isfinite(value):
                return None
            values[k] = value
        out[done : done + len(values)] = values
        done += len(values)
    return out if done == len(out) else None


def _read_lines(text: str, num_frames: int, expected: int) -> np.ndarray:
    """The data lines of ``text`` parsed one by one; names the first format error."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    data_lines = lines[1:]
    if len(data_lines) != num_frames:
        raise PoseFormatError(
            f"frame count mismatch: header declares {num_frames} frames, file has {len(data_lines)}"
        )

    rows = []
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
        rows.append(row)
    # stacked only once every line has its values, so a header that declares
    # more keypoints than the file holds allocates nothing
    return np.stack(rows)


def parse_pose_file(text: str, id: str, layout: KeypointLayout = DEFAULT_LAYOUT) -> PoseSequence:
    """Parse POSE v1 file contents into a :class:`PoseSequence`.

    Raises :class:`PoseFormatError` naming the offending line (and token
    column where applicable) on any deviation from the declared header.
    """
    if not text:
        raise PoseFormatError("empty file: expected 'POSE v1 <frames> <keypoints> <dims>' header")
    header_end = text.find("\n")
    header_line = text if header_end < 0 else text[:header_end]
    header = header_line.split()
    if len(header) != 5 or header[0] != "POSE" or header[1] != "v1":
        raise PoseFormatError(
            f"line 1: expected header 'POSE v1 <frames> <keypoints> <dims>', got {header_line!r}"
        )
    try:
        num_frames, num_keypoints, dims = (int(tok) for tok in header[2:])
    except ValueError:
        raise PoseFormatError(f"line 1: non-integer header field in {header_line!r}") from None
    if num_frames < 1 or num_keypoints < 1:
        raise PoseFormatError(f"line 1: frame and keypoint counts must be positive, got {header_line!r}")
    if dims != 3:
        raise PoseFormatError(f"line 1: only 3-dimensional poses are supported, header declares {dims}")

    expected = num_keypoints * dims
    frames = None
    if _MIDPOINT is not None and header_end >= 0 and text.isascii():
        frames = _read_exact(text, header_end + 1, num_frames, expected)
    if frames is None:
        frames = _read_lines(text, num_frames, expected)
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


def validate_sequence(seq: PoseSequence) -> list[str]:
    """Check a sequence against its layout; returns violations (empty = valid)."""
    violations: list[str] = []
    if seq.num_keypoints != seq.layout.total:
        violations.append(f"point count {seq.num_keypoints} ≠ {seq.layout.total}")
        return violations
    # one comparison: nan fails it as well as inf and huge finite values
    bad = ~(np.abs(seq.frames) <= MAX_COORDINATE)
    if bad.any():  # the per-keypoint reduction costs ten times the comparison
        for frame_idx, point_idx in zip(*np.nonzero(bad.any(axis=2))):
            where = f"coordinate at frame {frame_idx}, keypoint {point_idx}"
            if np.isfinite(seq.frames[frame_idx, point_idx]).all():
                violations.append(f"out-of-range {where} (|x| > {MAX_COORDINATE:g})")
            else:
                violations.append(f"non-finite {where}")
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
