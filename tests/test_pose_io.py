from __future__ import annotations

import math
import re
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import TINY_LAYOUT, flat_layout, traced_peak
from slpeval import pose
from slpeval.pose import (
    DEFAULT_LAYOUT,
    MAX_COORDINATE,
    KeypointLayout,
    LayoutError,
    PoseFormatError,
    PoseSequence,
    normalize_sequence,
    parse_layout,
    parse_pose_file,
    torso_rotation,
    validate_sequence,
    write_pose_file,
)
from slpeval.synth import SynthSpec, perturb, synth_sequence


def test_default_layout_shape():
    assert DEFAULT_LAYOUT.total == 178
    assert len(DEFAULT_LAYOUT.body) == 8
    assert len(DEFAULT_LAYOUT.face) == 128
    assert len(DEFAULT_LAYOUT.left_hand) == 21
    assert len(DEFAULT_LAYOUT.right_hand) == 21
    assert DEFAULT_LAYOUT.hand_indices.shape == (42,)
    assert DEFAULT_LAYOUT.neck == 0


def test_layout_rejects_overlap():
    with pytest.raises(LayoutError):
        KeypointLayout(
            body=range(0, 4),
            face=range(3, 6),
            left_hand=range(6, 7),
            right_hand=range(7, 8),
            neck=0,
            left_shoulder=1,
            right_shoulder=2,
        )


def test_layout_rejects_gap():
    with pytest.raises(LayoutError):
        KeypointLayout(
            body=range(0, 3),
            face=range(4, 6),
            left_hand=range(6, 7),
            right_hand=range(7, 8),
            neck=0,
            left_shoulder=1,
            right_shoulder=2,
        )


def test_layout_rejects_neck_outside_body():
    with pytest.raises(LayoutError, match="neck"):
        KeypointLayout(
            body=range(0, 3),
            face=range(3, 6),
            left_hand=range(6, 7),
            right_hand=range(7, 8),
            neck=5,
            left_shoulder=1,
            right_shoulder=2,
        )


def tiles_exactly(ranges) -> bool:
    """Oracle of the layout's range check: a set of every index the ranges hold."""
    covered: set[int] = set()
    count = 0
    for r in ranges:
        covered.update(r)
        count += len(r)
    return covered == set(range(count)) and count == len(covered)


def counts_up_by_one(r: range) -> bool:
    return all(b == a + 1 for a, b in zip(r, r[1:]))


SMALL_RANGE = st.builds(range, st.integers(-3, 12), st.integers(-3, 12),
                        st.sampled_from([1, 1, 2, -1, -2]))
#: four ranges that do tile [0, total), each possibly reversed, in any order
TILING = st.tuples(st.lists(st.integers(0, 5), min_size=4, max_size=4),
                   st.lists(st.booleans(), min_size=4, max_size=4)).map(
    lambda drawn: [range(sum(drawn[0][:i]), sum(drawn[0][: i + 1]))[:: -1 if flip else 1]
                   for i, flip in enumerate(drawn[1])]
).flatmap(st.permutations)


@settings(max_examples=300, deadline=None)
@given(ranges=st.tuples(SMALL_RANGE, SMALL_RANGE, SMALL_RANGE, SMALL_RANGE) | TILING)
@example(ranges=(range(0, 0), range(0, 0), range(0, 3, 2), range(1, 2)))  # interleaved: refused
@example(ranges=(range(0, 0), range(0, 0), range(0, 4, 2), range(1, 6, 2)))  # stepped, 4 left out
@example(ranges=(range(0, 1), range(1, 0, -1), range(2, 2), range(2, 3)))  # one index, stop 0
def test_layout_range_check_agrees_with_set_oracle(ranges):
    anchor = ranges[0][0] if ranges[0] else 0
    try:
        KeypointLayout(*ranges, neck=anchor, left_shoulder=anchor, right_shoulder=anchor)
        accepted = True
    except LayoutError as err:
        # a body with no indices fails only the neck check, which follows the range checks
        accepted = "outside body range" in str(err)
    assert accepted == (tiles_exactly(ranges) and all(map(counts_up_by_one, ranges)))


@pytest.mark.parametrize("face", [range(5, 2, -1), range(3, 8, 2)], ids=["reversed", "stepped"])
def test_layout_refuses_a_range_that_does_not_count_up_by_one(face):
    ranges = dict(body=range(0, 3), face=face, left_hand=range(0, 0), right_hand=range(0, 0))
    with pytest.raises(LayoutError, match=re.escape(f"layout range face={face} must count up")):
        KeypointLayout(**ranges, neck=0, left_shoulder=1, right_shoulder=2)


def test_layout_of_a_trillion_keypoints_constructs_at_once():
    layout = parse_layout("body 0 8\nface 8 1000000000000\nlhand 1000000000008 21\n"
                          "rhand 1000000000029 21\nneck 0\nlshoulder 1\nrshoulder 2\n")
    assert layout.total == 10**12 + 50


def test_parse_layout_round_trip():
    text = """
    # comment line
    body 0 3
    face 3 1

    lhand 4 1
    rhand 5 1
    neck 0
    lshoulder 1
    rshoulder 2
    """
    assert parse_layout(text) == TINY_LAYOUT
    assert parse_layout(text.replace("\n", "\r\n")) == TINY_LAYOUT


def test_parse_layout_missing_entry():
    with pytest.raises(LayoutError, match="missing"):
        parse_layout("body 0 3\nface 3 1\nlhand 4 1\nrhand 5 1\nneck 0\nlshoulder 1")


def test_parse_layout_malformed_line():
    with pytest.raises(LayoutError, match="line 1"):
        parse_layout("body zero 3")
    with pytest.raises(LayoutError, match="line 1"):  # longer than len() can measure
        parse_layout("body 0 " + "9" * 30)
    with pytest.raises(LayoutError, match="^layout descriptor line 2: malformed entry 'neck 0 1'$"):
        parse_layout("body 0 3\nneck 0 1")


TINY_LAYOUT_LINES = ["body 0 3", "face 3 1", "lhand 4 1", "rhand 5 1", "neck 0", "lshoulder 1",
                     "rshoulder 2"]


@pytest.mark.parametrize("same", [True, False], ids=["same", "other"])
@pytest.mark.parametrize("line", TINY_LAYOUT_LINES)
def test_parse_layout_refuses_a_repeated_entry(line, same):
    key, *values = line.split()
    again = line if same else " ".join([key] + ["5"] * len(values))
    text = "\n".join(TINY_LAYOUT_LINES + ["# the same key again", again]) + "\n"
    with pytest.raises(LayoutError, match=f"^layout descriptor line 9: duplicate entry '{key}'$"):
        parse_layout(text)


def test_sequence_frames_are_read_only(tiny_layout):
    seq = PoseSequence(id="s", frames=np.zeros((2, 6, 3)), layout=tiny_layout)
    with pytest.raises(ValueError):
        seq.frames[0, 0, 0] = 1.0


def test_sequence_copies_input(tiny_layout):
    buf = np.zeros((1, 6, 3))
    seq = PoseSequence(id="s", frames=buf, layout=tiny_layout)
    buf[0, 0, 0] = 99.0
    assert seq.frames[0, 0, 0] == 0.0


def test_parsed_and_normalized_frames_are_allocated_once():
    # 4000 equal lines of the default layout: 17 MB of frames, far above the
    # exact reader's per-block scratch, so a second copy would show in the peak
    line = " ".join(f"{k * k % 1000 / 1000:.3f}" for k in range(178 * 3))
    data = ("POSE v1 4000 178 3\n" + f"{line}\n" * 4000).encode()
    parsed = []
    peak = traced_peak(lambda: parsed.append(parse_pose_file(data, "s")))
    seq = parsed[0]
    assert peak < 1.5 * seq.frames.nbytes
    for frames in (seq.frames, normalize_sequence(seq).frames):
        assert not frames.flags.writeable


def test_exact_reader_holds_no_block_scratch_past_its_block():
    # 120 frames, about 1.17 MB in blocks of 256 KiB: beyond the frames (0.5 MB) only one
    # block's scan and conversion arrays are alive; a block's arrays held while the next
    # one is scanned took the peak to 1.94 times the file's bytes
    seq = synth_sequence(SynthSpec(frame_count=120, seed=1), id="s")
    data = write_pose_file(seq).encode()
    parsed = []
    peak = traced_peak(lambda: parsed.append(parse_pose_file(data, "s")))
    assert parsed[0] == seq
    assert peak <= 1.8 * len(data), (peak, len(data))


def test_line_reader_holds_one_block_of_lines():
    # CRLF line ends send a written file to the line reader, which decodes, splits and
    # parses it a block at a time: beyond the bytes it holds the frames and one block's strings
    seq = synth_sequence(SynthSpec(frame_count=1500, seed=1), id="s")
    data = write_pose_file(seq).replace("\n", "\r\n").encode()
    parsed = []
    peak = traced_peak(lambda: parsed.append(parse_pose_file(data, "s")))
    assert parsed[0] == seq
    assert peak < 2.5 * seq.frames.nbytes, (peak, seq.frames.nbytes)


def non_ascii_pose_file(frame_count: int) -> tuple[PoseSequence, bytes]:
    """A written sequence whose first frame separator is U+3000, which ``str.split`` takes as
    whitespace: the file is valid UTF-8 that only the line reader reads."""
    seq = synth_sequence(SynthSpec(frame_count=frame_count, seed=1), id="s")
    data = write_pose_file(seq).encode()
    at = data.index(b" ", data.index(b"\n"))
    return seq, data[:at] + "\u3000".encode() + data[at + 1 :]


def test_non_ascii_file_is_checked_as_utf8_one_block_at_a_time():
    # 1500 frames, about 14.6 MB: a whole-file decode to check it peaked at about three
    # times its bytes; one block at a time, the frames and one block's text stay below them
    seq, data = non_ascii_pose_file(1500)
    parsed = []
    peak = traced_peak(lambda: parsed.append(parse_pose_file(data, "s")))
    assert parsed[0] == seq
    assert peak < len(data), (peak, len(data))


@pytest.mark.parametrize("block", [pose._BLOCK, 64])
@pytest.mark.parametrize("at, inserted, reason", [
    (5000, b"\xff", "invalid start byte"),
    (300000, b"\xe3\x81", "invalid continuation byte"),  # past the first block of either size
    (None, b"\xe3\x81", "unexpected end of data"),  # the end of the file
])
def test_utf8_error_reads_as_a_whole_file_decode(monkeypatch, block, at, inserted, reason):
    # each error gives the text, position and bytes of data.decode("utf-8")
    _, data = non_ascii_pose_file(80)
    at = len(data) if at is None else at
    data = data[:at] + inserted + data[at:]
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    monkeypatch.setattr(pose, "_BLOCK", block)
    with pytest.raises(UnicodeDecodeError) as blocks:
        parse_pose_file(data, "s")
    assert whole.value.reason == reason
    assert str(blocks.value) == str(whole.value)
    assert (blocks.value.start, blocks.value.end) == (whole.value.start, whole.value.end)
    assert blocks.value.object == data


def test_normalization_writes_one_output_a_chunk_at_a_time(rng):
    # many chunks and a part of one: the bits are the whole-sequence formula's, and the
    # translated frames are held one chunk at a time beside the output, never whole
    seq = PoseSequence(id="s", frames=rng.normal(size=(1000, 178, 3)) * 1e3)
    whole = (seq.frames - seq.frames[:, seq.layout.neck, None]) @ torso_rotation(
        seq.frames[0], seq.layout).T
    assert normalize_sequence(seq).frames.tobytes() == whole.tobytes()
    assert traced_peak(lambda: normalize_sequence(seq)) < 1.5 * seq.frames.nbytes


def test_sequence_rejects_bad_shape(tiny_layout):
    with pytest.raises(ValueError, match="shape"):
        PoseSequence(id="s", frames=np.zeros((2, 6, 2)), layout=tiny_layout)
    with pytest.raises(ValueError, match="at least one frame"):
        PoseSequence(id="s", frames=np.zeros((0, 6, 3)), layout=tiny_layout)


def test_sequence_needs_a_keypoint():
    with pytest.raises(ValueError, match="at least one frame and keypoint"):
        PoseSequence(id="x", frames=np.zeros((2, 0, 3)))


@settings(max_examples=60, deadline=None)
@given(
    frames=arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 5)).map(lambda tk: (tk[0], tk[1], 3)),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
)
def test_write_parse_round_trip_is_exact(frames):
    layout = flat_layout(frames.shape[1])
    seq = PoseSequence(id="rt", frames=frames, layout=layout)
    again = parse_pose_file(write_pose_file(seq).encode(), id="rt", layout=layout)
    assert np.array_equal(again.frames, seq.frames)
    assert again == seq


def test_written_values_are_plain_decimal():
    values = np.array([[[1e-12, 2.5e17, -3.141592653589793]]])
    text = write_pose_file(PoseSequence(id="s", frames=values, layout=flat_layout(1)))
    body = text.split("\n", 1)[1]
    assert "e" not in body and "E" not in body
    again = parse_pose_file(text.encode(), id="s", layout=flat_layout(1))
    assert np.array_equal(again.frames, values)


def test_parse_rejects_bad_header():
    with pytest.raises(PoseFormatError, match="header"):
        parse_pose_file(b"JUNK v1 1 1 3\n0 0 0\n", id="x")
    with pytest.raises(PoseFormatError, match="3-dimensional"):
        parse_pose_file(b"POSE v1 1 1 2\n0 0\n", id="x")
    with pytest.raises(PoseFormatError, match="non-integer"):
        parse_pose_file(b"POSE v1 one 1 3\n0 0 0\n", id="x")
    with pytest.raises(PoseFormatError, match="positive"):
        parse_pose_file(b"POSE v1 0 1 3\n", id="x")
    with pytest.raises(PoseFormatError, match="empty file"):
        parse_pose_file(b"", id="x")


def test_parse_rejects_frame_count_mismatch():
    with pytest.raises(PoseFormatError, match="declares 2 frames, file has 1"):
        parse_pose_file(b"POSE v1 2 1 3\n0 0 0\n", id="x")


def test_parse_rejects_wrong_value_count():
    with pytest.raises(PoseFormatError, match="line 2: expected 6 values, found 5"):
        parse_pose_file(b"POSE v1 1 2 3\n0 0 0 0 0\n", id="x")


def test_parse_names_bad_token_position():
    with pytest.raises(PoseFormatError, match="line 3, column 2: unparseable"):
        parse_pose_file(b"POSE v1 2 1 3\n0 0 0\n0 oops 0\n", id="x")


def test_parse_rejects_non_finite():
    with pytest.raises(PoseFormatError, match="non-finite"):
        parse_pose_file(b"POSE v1 1 1 3\n0 nan 0\n", id="x")
    with pytest.raises(PoseFormatError, match="non-finite"):
        parse_pose_file(b"POSE v1 1 1 3\n0 inf 0\n", id="x")


def test_validate_sequence_checks_point_count(tiny_layout):
    seq = PoseSequence(id="s", frames=np.zeros((1, 5, 3)), layout=tiny_layout)
    assert validate_sequence(seq) == "point count 5 ≠ 6"


@pytest.mark.parametrize("first, problem", [
    ("non-finite", "non-finite coordinate at frame 0, keypoint 5, and 2 more"),
    ("out-of-range", "out-of-range coordinate at frame 0, keypoint 5 (|x| > 1e+75), and 2 more"),
])
def test_validate_sequence_bounds_coordinates(tiny_layout, first, problem):
    # the first bad keypoint in frame order names the problem; the bound itself is valid
    frames = np.zeros((2, 6, 3))
    frames[0, 1] = [MAX_COORDINATE, -MAX_COORDINATE, 0.0]
    frames[0, 5, 0] = -np.inf if first == "non-finite" else -np.nextafter(MAX_COORDINATE, np.inf)
    frames[1, 2, 1] = np.nextafter(MAX_COORDINATE, np.inf)
    frames[1, 4, 2] = np.nan
    assert validate_sequence(PoseSequence(id="s", frames=frames, layout=tiny_layout)) == problem
    frames[1] = 0.0  # one bad keypoint is named alone
    assert validate_sequence(PoseSequence(id="s", frames=frames, layout=tiny_layout)) == (
        problem.removesuffix(", and 2 more"))


def test_validate_sequence_accepts_good_sequence(tiny_layout):
    seq = PoseSequence(id="s", frames=np.zeros((2, 6, 3)), layout=tiny_layout)
    assert validate_sequence(seq) is None


def test_validate_sequence_holds_one_line_however_many_coordinates_are_bad():
    # one string for the sequence, not one per bad keypoint: the scratch is about
    # one comparison's copy of the frames
    seq = PoseSequence(id="s", frames=np.full((1000, 178, 3), 2e75))
    found = []
    assert traced_peak(lambda: found.append(validate_sequence(seq))) < 1.5 * seq.frames.nbytes
    assert found == [
        "out-of-range coordinate at frame 0, keypoint 0 (|x| > 1e+75), and 177999 more"]


# ------------------------------------------------- the exact reader against float()

#: the ways a file is read: the exact reader as shipped, the exact reader with
#: 64-byte blocks (so lines outrun a block), and the line-by-line reader alone
READERS = {
    "exact": {"_BLOCK": pose._BLOCK},
    "small-blocks": {"_BLOCK": 64},
    "lines": {"_MIDPOINT": None},
}


def read(data: bytes, reader: str) -> np.ndarray | str:
    """``parse_pose_file``'s values of ``data``, flat, or the message of the error it raises.

    A ``PoseFormatError`` or a ``UnicodeDecodeError`` is an outcome; any other
    exception escapes. A read of the first frame only must give the same
    message, or frame 0 alone or every frame, bit for bit; it may leave frames
    out only when every value is within ``MAX_COORDINATE``.
    """
    outcomes = []
    with mock.patch.multiple(pose, **READERS[reader]):
        for first in (None, 1):
            try:
                outcomes.append(parse_pose_file(data, id="x", first=first).frames)
            except (PoseFormatError, UnicodeDecodeError) as err:
                outcomes.append(str(err))
    whole, head = outcomes
    if isinstance(whole, str):
        assert head == whole
        return whole
    assert isinstance(head, np.ndarray)
    assert len(head) == len(whole) or (len(head) == 1 and (np.abs(whole) <= MAX_COORDINATE).all())
    assert head.tobytes() == whole[: len(head)].tobytes()
    return whole.reshape(-1)


def float_oracle(text: str) -> np.ndarray | None:
    """``float()`` of each token of each data line; None for a file its header does not fit."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    header = lines[0].split()
    rows = [line.split() for line in lines[1:]]
    if len(rows) != int(header[2]) or any(len(row) != 3 * int(header[3]) for row in rows):
        return None
    try:
        values = np.array([float(token) for row in rows for token in row])
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def assert_reads_like_float(text: str, reader: str) -> None:
    expected, got = float_oracle(text), read(text.encode(), reader)
    if expected is None:
        assert isinstance(got, str) and got == read(text.encode(), "lines")
    else:
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def tokens_file(tokens: list[str]) -> str:
    """A POSE v1 file of one keypoint a line, padded with ``0.0`` to whole lines."""
    tokens = tokens + ["0.0"] * (-len(tokens) % 3)
    lines = [" ".join(tokens[i : i + 3]) for i in range(0, len(tokens), 3)]
    return f"POSE v1 {len(lines)} 1 3\n" + "\n".join(lines) + "\n"


SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e75, -1e75, 2.0**63, 0.1, 9007199254740993.0]
)


def digit_strings(most: int) -> st.SearchStrategy[str]:
    """Strings of 1 to ``most`` decimal digits, every length equally likely."""
    return st.integers(1, most).flatmap(lambda n: st.text("0123456789", min_size=n, max_size=n))


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=60, deadline=None)
@given(
    frames=arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 5)).map(lambda tk: (tk[0], tk[1], 3)),
        elements=st.floats(allow_nan=False, allow_infinity=False) | SPECIAL_FLOATS,
    )
)
def test_written_files_read_like_float(reader, frames):
    assert_reads_like_float(write_pose_file(PoseSequence(id="x", frames=frames)), reader)


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=100, deadline=None)
@given(
    tokens=st.lists(
        st.builds(
            "{}{}.{}".format,
            st.sampled_from(["", "-"]),
            digit_strings(25),
            digit_strings(30),
        ),
        min_size=1,
        max_size=30,
    )
)
@example(tokens=["-922337203685477580.8"])  # its mantissa is the int64 minimum
@example(tokens=["-99999999999999999999.9"])  # its mantissa saturates int64
@example(tokens=["0." + "0" * 27 + "1"])  # 10**28 is not exact in a long double
# past frame 0: the longest integer parts the exact reader takes (75 characters before the
# point, sign included), unsigned and negative; those a character longer, which it refuses:
# negative, unsigned at MAX_COORDINATE and unsigned past it; and one so long that float()
# reads inf
@example(tokens=["0.5"] * 3 + ["9" * 75 + ".9"])
@example(tokens=["0.5"] * 3 + ["-" + "9" * 74 + ".9"])
@example(tokens=["0.5"] * 3 + ["-" + "9" * 75 + ".9"])
@example(tokens=["0.5"] * 3 + ["1" + "0" * 75 + ".0"])
@example(tokens=["0.5"] * 3 + ["9" * 76 + ".0"])
@example(tokens=["0.5"] * 3 + ["9" * 400 + ".0"])
# the scan marks no minus: a minus as the first byte of a block (the file's first, and the
# first after a line that outruns a 64-byte block), and minus and plus spellings it refuses
@example(tokens=["-1.5", "2.5", "-3.5"])
@example(tokens=["1." + "0" * 30] * 3 + ["-2.5", "-0.0", "-0.5"])
@example(tokens=["-.5"])
@example(tokens=["1-2.5"])
@example(tokens=["--1.5"])
@example(tokens=["0.5-"])
@example(tokens=["+0.5"])
@example(tokens=["-1.5", "1-2.5"])
# 75 and 76 characters before the point, and 75 and 76 digits, at the start of a block
@example(tokens=["9" * 75 + ".9"])
@example(tokens=["9" * 76 + ".9"])
@example(tokens=["-" + "9" * 74 + ".9"])
@example(tokens=["-" + "9" * 75 + ".9"])
@example(tokens=["-" + "9" * 76 + ".9"])
def test_decimal_tokens_read_like_float(reader, tokens):
    assert_reads_like_float(tokens_file(tokens), reader)


@pytest.mark.skipif(pose._MIDPOINT is None, reason="no exact reader on this platform")
@pytest.mark.parametrize("block", [pose._BLOCK, 64])
@pytest.mark.parametrize("before", [[], ["1." + "0" * 30] * 3], ids=["first-token", "after-a-block"])
@pytest.mark.parametrize("token", ["-.5", ".5", "5.", "-5.", "-.", ".", "-", "--1.5", "1-2.5",
                                   "0.5-", "1.-5", "+0.5", "1.5.5", "-" + "9" * 75 + ".9",
                                   "9" * 76 + ".9"])
def test_exact_reader_leaves_tokens_outside_its_grammar_to_the_line_reader(
    monkeypatch, block, before, token
):
    # several of these read right by the exact reader's arithmetic too ("-.5", "5."):
    # pin the grammar it takes, -?[0-9]+[.][0-9]+ with at most 75 characters before the point
    monkeypatch.setattr(pose, "_BLOCK", block)
    for spelling, taken in ((token, False), ("-9.5", True)):
        data = tokens_file([*before, spelling]).encode()
        rows = data.count(b"\n") - 1
        assert (pose._read_exact(data, data.index(b"\n") + 1, rows, 3) is not None) == taken


def near_midpoint(value: float, digits: int, offset: int, negative: bool) -> str:
    """The midpoint above ``value`` to ``digits`` significant digits, ``offset`` units off."""
    with localcontext() as ctx:
        ctx.prec = 1100  # exact for every float64 midpoint
        midpoint = (Decimal(value) + Decimal(math.nextafter(value, math.inf))) / 2
        ctx.prec = digits
        rounded = +midpoint
        ctx.prec = 1100
        token = rounded + offset * Decimal(1).scaleb(rounded.adjusted() - digits + 1)
    text = f"{token:f}"
    return ("-" if negative else "") + (text if "." in text else text + ".0")


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=100, deadline=None)
@given(
    tokens=st.lists(
        st.builds(
            near_midpoint,
            st.floats(min_value=1e-9, max_value=1e17),
            st.integers(17, 19),
            st.integers(-3, 3),
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    )
)
@example(tokens=["0.123456789012345678"])
def test_tokens_near_float64_midpoints_read_like_float(reader, tokens):
    assert_reads_like_float(tokens_file(tokens), reader)


SEPARATOR_FAULTS = {"tab": (" ", "\t"), "cr": ("\n", "\r\n"), "double-space": (" ", "  "),
                    "blank-line": ("\n", "\n\n")}
#: each replaces one token; most are spellings that float() reads
TOKEN_FAULTS = ["1e5", "+.5", "5.", "1_0", "١", "١.٥", "-0.0", "1__0", "nan", "-inf", "1e999",
                "--1.0", "0.5.5", "-.5", "x", ""]


def mutate(text: str, fault: str, at: int) -> str:
    """``text`` with one fault at the ``at``-th place it fits, counted round."""
    if fault == "no-final-newline":
        return text.removesuffix("\n")
    body = text.index("\n") + 1
    old, new = SEPARATOR_FAULTS.get(fault, (r"[^ \n]+", fault))
    spans = [match.span() for match in re.finditer(old, text[body:])]
    if not spans:
        return text
    start, end = spans[at % len(spans)]
    return text[: body + start] + new + text[body + end :]


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=100, deadline=None)
@given(
    frames=arrays(np.float64, st.sampled_from([(1, 1, 3), (2, 2, 3), (3, 1, 3)]),
                  elements=st.floats(-10, 10)),
    faults=st.lists(
        st.tuples(st.sampled_from([*SEPARATOR_FAULTS, *TOKEN_FAULTS, "no-final-newline"]),
                  st.integers(0, 100)),
        min_size=1,
        max_size=3,
    ),
)
def test_mutated_files_read_like_float(reader, frames, faults):
    text = write_pose_file(PoseSequence(id="x", frames=frames))
    for fault, at in faults:
        text = mutate(text, fault, at)
    assert_reads_like_float(text, reader)


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=150, deadline=None)
@given(
    data=st.binary()
    | st.binary().map(b"POSE v1 2 1 3\n".__add__)
    | (
        st.text()
        | st.builds(
            "POSE v1 {} {} 3\n{}".format,
            st.integers(-1, 3) | st.integers(0, 10**20),
            st.integers(-1, 3) | st.integers(0, 10**20),
            st.text(st.sampled_from("0123456789.- \n\t\re+_") | st.characters()),
        )
    ).map(lambda text: text.encode("utf-8", "surrogatepass"))  # a lone surrogate is not UTF-8
)
def test_parse_raises_only_pose_format_error(reader, data):
    read(data, reader)  # any other exception fails the test


# ------------------------------------------------- the exact writer against _format_value

#: the ways a file is written: the vectorized writer as shipped, the same with one frame a
#: block, and the per-value writer that runs where a long double cannot hold the reader's rule
WRITERS = {
    "exact": {"_BLOCK": pose._BLOCK},
    "frame-blocks": {"_BLOCK": 16},
    "per-value": {"_MIDPOINT": None},
}


def per_value_file(frames: np.ndarray) -> str:
    """The POSE v1 file of ``frames`` with every value spelt by ``_format_value``."""
    t, k = frames.shape[:2]
    lines = [" ".join(map(pose._format_value, row)) for row in frames.reshape(t, k * 3).tolist()]
    return "\n".join([f"POSE v1 {t} {k} 3", *lines, ""])


def assert_same_lines(text: str, expected: str, writer: str) -> None:
    """``text == expected``, line by line and value by value, so that a failure names the
    first value that differs rather than diffing whole files."""
    lines, wanted = text.split("\n"), expected.split("\n")
    assert len(lines) == len(wanted), writer
    for number, (line, want) in enumerate(zip(lines, wanted), 1):
        assert line.split(" ") == want.split(" "), (writer, number)


def assert_spelt_per_value(frames: np.ndarray) -> None:
    expected, k = per_value_file(frames), frames.shape[1]
    for writer, patch in WRITERS.items():
        with mock.patch.multiple(pose, **patch):
            text = write_pose_file(PoseSequence(id="x", frames=frames, layout=flat_layout(k)))
        assert_same_lines(text, expected, writer)


def frame_shapes(most_frames: int = 6) -> st.SearchStrategy[tuple[int, int, int]]:
    return st.tuples(st.integers(1, most_frames), st.integers(1, 4)).map(lambda tk: (*tk, 3))


#: the bit patterns of 1e-10 <= |x| < 1, the values the byte grid spells, either sign
GRID_BITS = st.tuples(
    st.integers(int(np.float64(1e-10).view(np.uint64)), int(np.float64(1.0).view(np.uint64)) - 1),
    st.booleans(),
).map(lambda bits_sign: bits_sign[0] | bits_sign[1] << 63)


@settings(max_examples=150, deadline=None)
@given(bits=arrays(np.uint64, frame_shapes(), elements=st.integers(0, 2**64 - 1) | GRID_BITS))
def test_writer_spells_any_bit_pattern_per_value(bits):
    assert_spelt_per_value(bits.view(np.float64))


@st.composite
def synth_like(draw) -> float:
    """A value below 1 in magnitude with 15 to 17 significant digits, as synth writes them."""
    digits = draw(st.integers(15, 17))
    mantissa = draw(st.integers(10 ** (digits - 1), 10**digits - 1))
    sign = draw(st.sampled_from(["", "-"]))
    return float(f"{sign}0.{'0' * draw(st.integers(0, 9))}{mantissa}")


@settings(max_examples=150, deadline=None)
@given(frames=arrays(np.float64, frame_shapes(), elements=synth_like() | st.floats(-1, 1)))
def test_writer_spells_synth_like_values_per_value(frames):
    assert_spelt_per_value(frames)


@st.composite
def short_decimal(draw) -> float:
    """A value below 1 in magnitude with 1 to 14 significant digits, such as ``0.409140625``:
    its 16-digit mantissa ends in zeros, which the writer drops before it tries fewer digits."""
    digits = draw(st.integers(1, 14))
    mantissa = draw(st.integers(10 ** (digits - 1), 10**digits - 1))
    sign = draw(st.sampled_from(["", "-"]))
    return float(f"{sign}0.{'0' * draw(st.integers(0, 9))}{mantissa}")


@settings(max_examples=150, deadline=None)
@given(frames=arrays(np.float64, frame_shapes(), elements=short_decimal()))
def test_writer_spells_short_decimals_per_value(frames):
    assert_spelt_per_value(frames)


def next_up(x: float) -> float:
    return float(np.nextafter(x, math.inf))


#: zeros, powers of two (every one in the vectorized range, whose rounding gap is narrower
#: below than above), the edges of that range, subnormals and non-finite values
EDGE_VALUES = [
    0.0, -0.0, 1.0, -1.0, 100.0, 1e15, 1e20,
    *(sign * 2.0**e for e in range(-40, 3) for sign in (1, -1)),
    *(np.nextafter(edge, toward) for edge in (1e-4, 1e-10, 1.0) for toward in (0.0, 2.0)),
    1e-4, -1e-4, 1e-10, -1e-10, 1e-11, 5e-324, -5e-324, 2.2250738585072009e-308,
    *(np.nextafter(10.0**-e, 0.0) for e in range(12)),
    # 16 and 17 significant digits, about the lower edge of the vectorized range
    *(spin(c * 10.0**-e) for c in (math.pi, math.e) for e in range(1, 14) for spin in (float, next_up)),
    math.nan, math.inf, -math.inf,
]


def test_writer_spells_edge_values_per_value():
    values = np.array(EDGE_VALUES + [0.0] * (-len(EDGE_VALUES) % 3))
    assert_spelt_per_value(values.reshape(-1, 1, 3))
    assert_spelt_per_value(values.reshape(1, -1, 3))


@pytest.mark.parametrize("writer", WRITERS)
def test_writer_spells_a_one_keypoint_sequence_as_one_triple_a_line(writer):
    # the fewest keypoints a sequence may have: each frame is a row of three values
    frames = np.array([[[0.0, 0.5, -1.0]], [[0.125, -2.5, 3.0]], [[1e-3, 0.25, -0.0]]])
    with mock.patch.multiple(pose, **WRITERS[writer]):
        text = write_pose_file(PoseSequence(id="x", frames=frames))
    assert text == "POSE v1 3 1 3\n0.0 0.5 -1.0\n0.125 -2.5 3.0\n0.001 0.25 -0.0\n"


def test_writer_spells_synth_sequences_per_value():
    for seed in range(3):
        seq = synth_sequence(SynthSpec(frame_count=40, seed=seed))
        assert_spelt_per_value(seq.frames)
        assert_spelt_per_value(perturb(seq, 0.05, seed).frames)
