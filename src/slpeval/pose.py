"""Skeleton pose data model: layouts, sequences, file I/O, and normalization.

Coordinates live in a unitless canonical-skeleton space. A pose file is a
plain-text format: a header line ``POSE v1 <num_frames> <num_keypoints> <dims>``
followed by one whitespace-separated line of ``num_keypoints * dims`` decimal
floats per frame, keypoint-major (``k0.x k0.y k0.z k1.x ...``). A value may be
anything ``float()`` reads, scientific notation included. Writing spells each value as
``repr`` does, in fixed notation: the fewest fraction digits whose ``long double`` quotient
by a power of ten rounds back to it, off float64 midpoints, as the exact reader divides, so
a written file reads back exactly. Files in another spelling are read line by line.
"""

from __future__ import annotations

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
    "torso_rotation",
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

    The four ranges must each count up by one, be disjoint and together cover
    exactly ``[0, total)``. The neck and shoulder indices must lie in the body range.
    """

    body: range
    face: range
    left_hand: range
    right_hand: range
    neck: int
    left_shoulder: int
    right_shoulder: int

    def __post_init__(self) -> None:
        ranges = {name: r for name, r in vars(self).items() if isinstance(r, range)}
        for name, r in ranges.items():
            if r != range(r.start, r.start + len(r)):  # compared in O(1), as sequences
                raise LayoutError(f"layout range {name}={r} must count up by one")
        # their lengths sum to total, so they tile [0, total) when, in start order,
        # each starts where the one before it (or 0) stops
        blocks = sorted((r.start, r.start + len(r)) for r in ranges.values() if r)
        if [start for start, _ in blocks] != [0, *(stop for _, stop in blocks)][: len(blocks)]:
            raise LayoutError(
                f"layout ranges must be disjoint and cover exactly [0, {self.total}): "
                + " ".join(f"{name}={r}" for name, r in ranges.items())
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

#: largest coordinate magnitude a valid sequence may hold. Normalization
#: squares the torso normal, whose components grow with the square of the
#: coordinates, so that sum overflows float64 near 1e77.
MAX_COORDINATE = 1e75

#: the exact reader takes the data section in blocks of whole lines of at most
#: this many bytes (a longer line is a block of its own), bounding its scratch
_BLOCK = 256 * 1024
#: normalization translates and rotates this many frames at a time, bounding its scratch
_NORMALIZE_FRAMES = 64


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
#: the exact reader takes a token with at most this many characters before its
#: point, sign included: it is below 10**75, so its float is at most MAX_COORDINATE
_BOUNDED_DIGITS = 75
_NEWLINE, _SPACE, _MINUS, _DOT, _DIGIT_0, _DIGIT_9 = b"\n -.09"

#: descriptor key: (layout field, how many integers follow: a start and a length, or an index)
_LAYOUT_KEYS = {"body": ("body", 2), "face": ("face", 2), "lhand": ("left_hand", 2),
                "rhand": ("right_hand", 2), "neck": ("neck", 1), "lshoulder": ("left_shoulder", 1),
                "rshoulder": ("right_shoulder", 1)}


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
        name, count = _LAYOUT_KEYS.get(key, (None, 0))
        if name in fields:
            raise LayoutError(f"layout descriptor line {lineno}: duplicate entry {key!r}")
        try:
            if name is None or len(parts) != count + 1:
                raise ValueError
            start, *length = map(int, parts[1:])
            if length and length[0] > sys.maxsize:  # no range that long has a len()
                raise ValueError
            fields[name] = range(start, start + length[0]) if length else start
        except ValueError:
            raise LayoutError(f"layout descriptor line {lineno}: malformed entry {stripped!r}") from None
    missing = {name for name, _ in _LAYOUT_KEYS.values()} - fields.keys()
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
        if frames.shape[0] < 1 or frames.shape[1] < 1:
            raise ValueError(f"a pose sequence needs at least one frame and keypoint, got {frames.shape}")
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


def _adopt(id: str, frames: np.ndarray, layout: KeypointLayout) -> PoseSequence:
    """A sequence that keeps ``frames``, a float64 array made here and held nowhere else."""
    # only the first frame is copied, to run the constructor's shape checks
    seq = PoseSequence(id=id, frames=frames[:1], layout=layout)
    frames.setflags(write=False)
    object.__setattr__(seq, "frames", frames)
    return seq


def _format_value(x: float) -> str:
    # repr's shortest round-tripping decimal, rendered positionally where repr goes scientific
    s = repr(x)
    return np.format_float_positional(x, unique=True, trim="0") if "e" in s else s


def _line_blocks(data: bytes, start: int):
    """``data[start:]`` in slices of whole lines of at most ``_BLOCK`` bytes.

    A line longer than ``_BLOCK`` is a slice of its own; the last line may lack its newline.
    """
    end = len(data)
    while start < end:
        stop = end
        if end - start > _BLOCK:
            cut = data.rfind(b"\n", start, start + _BLOCK)
            if cut < 0:
                cut = data.find(b"\n", start + _BLOCK)
            stop = end if cut < 0 else cut + 1
        yield data[start:stop]
        start = stop


def _read_exact(
    data: bytes, start: int, rows: int, width: int, first: int | None = None
) -> np.ndarray | None:
    """The data section ``data[start:]`` as a flat float64 array, or None.

    Returns values only when the section is exactly ``rows`` lines of
    ``width`` tokens matching ``-?[0-9]+[.][0-9]+``, one space apart, the last
    newline optional, and no token has more than ``_BOUNDED_DIGITS`` characters
    before its point; each value then has the bits ``float()`` gives. The scan
    marks each block's dots and separators, which must alternate, and checks the
    minus signs token by token: as many tokens start with one as the block holds,
    and each token has a digit after its sign and one after its point. A token
    with ``f`` fraction digits is the integer mantissa ``M`` of its digits over
    ``10**f``: both are exact in a long double, whose one correctly rounded
    division is then rounded to float64. That second rounding can differ from
    ``float()`` only when the long double lies on a float64 midpoint; such
    tokens, and those with ``|M| >= 10**18`` or ``f > 27``, are read by
    ``float()`` instead.

    With ``first``, every line is still checked but only the first ``first``
    rows are converted and returned.
    """
    word, mask, half = _MIDPOINT
    # a value takes at least three characters and a separator
    if 4 * rows * width - 1 > len(data) - start:
        return None
    out = np.empty(min(rows, first or rows) * width, dtype=np.float64)
    view, seen = np.frombuffer(data, dtype=np.uint8), 0
    for block in _line_blocks(data, start):
        # the newline before the block, then the block: token k is block[seps[k] : seps[k + 1] - 1]
        chars, start = view[start - 1 : start + len(block)], start + len(block)
        if chars.max() > _DIGIT_9:
            return None
        # the dots and separators, every character below "0" but the minus, and a newline
        # after the block where the last line of the file lacks it
        marked, signs = chars < _DIGIT_0, np.count_nonzero(chars == _MINUS)
        marked ^= chars == _MINUS
        marks = np.flatnonzero(marked)
        del marked  # no block-sized scratch is held while the block converts
        kinds = chars[marks]
        if chars[-1] != _NEWLINE:
            marks, kinds = np.append(marks, len(chars)), np.append(kinds, np.uint8(_NEWLINE))
        # they alternate separator, dot, separator: one dot a token, its sign and digits between
        seps, dots, lines = marks[0::2], marks[1::2], kinds[2::2]
        tokens, signed = len(dots), chars[1:][seps[:-1]] == _MINUS
        if (
            len(seps) != tokens + 1
            or tokens % width
            or seen + tokens > rows * width
            or (kinds[1::2] != _DOT).any()
            or (lines.reshape(-1, width)[:, :-1] != _SPACE).any()
            or (lines[width - 1 :: width] != _NEWLINE).any()
            or np.count_nonzero(signed) != signs  # a minus starts a token, and none is elsewhere
            or (dots - seps[:-1]).max() > _BOUNDED_DIGITS + 1
            or (dots - seps[:-1] - signed).min() < 2  # a digit after the sign, before the point
            or (seps[1:] - dots).min() < 2  # and one after it
        ):
            return None
        # the block's tokens that ``out`` still lacks, a prefix of whole lines
        convert = min(tokens, len(out) - seen)
        seen += tokens
        if convert <= 0:
            continue
        # up to the separator after the last converted token: the whole block, uncopied, if all
        mantissas = np.fromstring(block[: seps[convert]].replace(b".", b""), dtype=np.int64, sep=" ")
        seps = seps[: convert + 1]
        fraction_digits = seps[1:] - dots[:convert] - 1
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
        values[zeros[signed[zeros]]] = -0.0
        for k in np.flatnonzero(slow).tolist():
            values[k] = float(block[seps[k] : seps[k + 1] - 1])
        out[seen - tokens : seen - tokens + convert] = values
        del mantissas, fraction_digits, quotients, values, slow, zeros  # not held into the next block
    return out if seen == rows * width else None


def _read_lines(data: bytes, start: int, rows: int, width: int) -> np.ndarray:
    """The data section ``data[start:]``, valid UTF-8, parsed line by line.

    Lines are decoded and split a block of whole lines at a time, so the
    scratch is one block's strings; names the first format error. A block
    ends at a newline, which is never inside a UTF-8 sequence.
    """
    found = data.count(b"\n", start) + (start < len(data) and not data.endswith(b"\n"))
    if found != rows:
        raise PoseFormatError(f"frame count mismatch: header declares {rows} frames, file has {found}")
    # every value takes a character and a separator, so a shorter section fails
    # some line's count; it is read into nothing, and a header that declares
    # more keypoints than the file holds allocates nothing
    out = np.empty((rows, width)) if len(data) - start >= 2 * rows * width - 1 else None
    lineno = 1
    for block in _line_blocks(data, start):
        lines = block.decode("utf-8").split("\n")
        if lines[-1] == "":
            lines.pop()
        for line in lines:
            lineno += 1
            tokens = line.split()
            if len(tokens) != width:
                raise PoseFormatError(f"line {lineno}: expected {width} values, found {len(tokens)}")
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
            if out is not None:
                out[lineno - 2] = row
    return out


def parse_pose_file(
    data: bytes, id: str, layout: KeypointLayout = DEFAULT_LAYOUT, *, first: int | None = None
) -> PoseSequence:
    """Parse a POSE v1 file's bytes into a :class:`PoseSequence`.

    The bytes must be strict UTF-8, checked one block of whole lines at a time; a
    :class:`UnicodeDecodeError`, placed in the whole file, is the first error reported, and
    escapes. Raises :class:`PoseFormatError` naming the offending line (and token column
    where applicable) on any deviation from the declared header.

    With ``first`` (at least 1), every line is still checked, and the file is
    accepted or refused with the same message as without it, but the sequence
    may hold only its first ``first`` frames: it does when the exact reader
    takes the file, whose values are all finite and within ``MAX_COORDINATE``,
    so that :func:`validate_sequence` gives the same answer as on every frame.
    Otherwise it holds every frame.
    """
    if not data.isascii():  # only a check; each line is decoded as it is read
        offset = 0
        for block in _line_blocks(data, 0):
            try:
                block.decode("utf-8")
            except UnicodeDecodeError as err:  # placed in the whole file, as its decode does
                raise UnicodeDecodeError(
                    "utf-8", data, offset + err.start, offset + err.end, err.reason) from None
            offset += len(block)
    if not data:
        raise PoseFormatError("empty file: expected 'POSE v1 <frames> <keypoints> <dims>' header")
    header_end = data.find(b"\n")
    header_line = (data if header_end < 0 else data[:header_end]).decode("utf-8")
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

    expected, start = num_keypoints * dims, len(data) if header_end < 0 else header_end + 1
    frames = None
    if _MIDPOINT is not None and header_end >= 0:
        frames = _read_exact(data, start, num_frames, expected, first)
    if frames is None:
        frames = _read_lines(data, start, num_frames, expected)
    return _adopt(id, frames.reshape(-1, num_keypoints, dims), layout)


def _nearest(a: np.ndarray, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a``'s nearest mantissas at ``digits`` fraction digits, whether they read back, doubt."""
    word, mask, half = _MIDPOINT
    scaled = a * _POW10[digits]  # correctly rounded, so rint errs only if this is a half
    mantissas = np.rint(scaled)
    quotients = mantissas / _POW10[digits]
    doubt = (abs(scaled - mantissas) == 0.5) | ((quotients.view(np.uint64)[word::2] & mask) == half)
    return mantissas.astype(np.int64), quotients.astype(np.float64) == a, doubt


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest read-back fraction digits (0: ask ``_format_value``) and mantissas of ``a``."""
    digits = 15 - np.floor(np.log10(a)).astype(np.intp)  # 16 significant, or 15 or 17 by log10
    mantissas, ok, doubt = _nearest(a, digits)
    down, up = np.flatnonzero(ok & ~doubt), np.flatnonzero(~ok)
    digits[up] += 1  # one more digit reads back, as 17 significant digits always do
    mantissas[up], ok[up], unsure = _nearest(a[up], digits[up])
    doubt[up] |= unsure | ~ok[up]
    # reading back is monotone in the digit count: the first shorter decimal that fails ends it
    while len(down):
        # an accepted mantissa's trailing zeros drop at once: the value lies within half a unit
        # of its last digit, so it already is the nearest, read-back decimal at that count
        end = down
        while len(end := end[mantissas[end] % 10 == 0]):
            mantissas[end] //= 10
            digits[end] -= 1
        shorter, ok, unsure = _nearest(a[down], digits[down] - 1)
        doubt[down] |= unsure
        down, shorter = down[ok & ~unsure], shorter[ok & ~unsure]
        mantissas[down], digits[down] = shorter, digits[down] - 1
    digits[doubt] = 0
    return digits, mantissas


#: one value's bytes: "%s" for _format_value, sign, "0.", a digit per _POW10 power, separator;
#: _KEEP[digits, negative] picks those of a value with so many fraction digits (0: the "%s")
_TEMPLATE = np.frombuffer(b"%s-0." + b"0" * len(_POW10) + b" ", dtype=np.uint8)
_GRID = len(_TEMPLATE)
_KEEP = np.repeat(np.arange(_GRID) >= _GRID - 1 - np.arange(len(_POW10))[:, None, None], 2, 1)
_KEEP[1:, :, 3:5] = _KEEP[1:, 1, 2] = _KEEP[0, :, :2] = True


def _write_block(rows: np.ndarray) -> str:
    """Frames of flat values as lines, each value spelt as ``_format_value`` does."""
    if _MIDPOINT is None:
        return "".join([" ".join(map(_format_value, row)) + "\n" for row in rows.tolist()])
    values = rows.reshape(-1)
    a = np.abs(values)
    found = np.flatnonzero((a >= 1e-10) & (a < 1))
    digits, mantissas = (a == 0).astype(np.intp), np.zeros(len(values), np.int64)  # 0.0
    digits[found], mantissas[found] = _shortest(a[found])
    grid = np.tile(_TEMPLATE, (len(values), 1))
    # nine digit columns from each half of the mantissa, divided unsigned: numpy's fastest
    halves = np.stack(np.divmod(mantissas, 10**9), axis=1).astype(np.uint32)
    for column in range(_GRID - 2, _GRID - 11, -1):
        grid[:, [column - 9, column]] = halves - (halves := halves // 10) * 10 + _DIGIT_0
    grid.reshape(*rows.shape, _GRID)[:, -1, -1] = _NEWLINE
    text = grid[_KEEP[digits, np.signbit(values).view(np.int8)]].tobytes().decode("ascii")
    return text % tuple(map(_format_value, values[digits == 0].tolist()))


def write_pose_file(seq: PoseSequence) -> str:
    """Serialize a sequence canonically; ``parse_pose_file`` of its UTF-8 bytes inverts this exactly."""
    t, k = seq.num_frames, seq.num_keypoints
    rows, step = seq.frames.reshape(t, k * 3), max(1, _BLOCK // 16 // (k * 3))
    blocks = [_write_block(rows[i : i + step]) for i in range(0, t, step)]
    return "".join([f"POSE v1 {t} {k} 3\n", *blocks])


def validate_sequence(seq: PoseSequence) -> str | None:
    """None for a sequence that fits its layout, else one line: its first problem, how many more."""
    if seq.num_keypoints != seq.layout.total:
        return f"point count {seq.num_keypoints} ≠ {seq.layout.total}"
    # one comparison: nan fails it as well as inf and huge finite values
    bad = ~(np.abs(seq.frames) <= MAX_COORDINATE)
    if not bad.any():  # the per-keypoint reduction costs ten times the comparison
        return None
    points = bad.any(axis=2)
    frame_idx, point_idx = divmod(int(points.argmax()), seq.num_keypoints)
    where = f"coordinate at frame {frame_idx}, keypoint {point_idx}"
    if np.isfinite(seq.frames[frame_idx, point_idx]).all():
        problem = f"out-of-range {where} (|x| > {MAX_COORDINATE:g})"
    else:
        problem = f"non-finite {where}"
    more = np.count_nonzero(points) - 1
    return f"{problem}, and {more} more" if more else problem


def torso_rotation(frame: np.ndarray, layout: KeypointLayout) -> np.ndarray:
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
    rot, neck = torso_rotation(seq.frames[0], seq.layout), seq.layout.neck
    out = np.empty_like(seq.frames)
    for s in range(0, seq.num_frames, _NORMALIZE_FRAMES):  # scratch: one chunk's difference
        chunk = seq.frames[s : s + _NORMALIZE_FRAMES]
        np.matmul(chunk - chunk[:, neck, None], rot.T, out=out[s : s + len(chunk)])
    return _adopt(seq.id, out, seq.layout)
