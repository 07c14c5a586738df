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

from conftest import TINY_LAYOUT, flat_layout
from slpeval import pose
from slpeval.pose import (
    DEFAULT_LAYOUT,
    MAX_COORDINATE,
    KeypointLayout,
    LayoutError,
    PoseFormatError,
    PoseSequence,
    parse_layout,
    parse_pose_file,
    validate_sequence,
    write_pose_file,
)


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
def test_layout_range_check_agrees_with_set_oracle(ranges):
    anchor = ranges[0][0] if ranges[0] else 0
    try:
        KeypointLayout(*ranges, neck=anchor, left_shoulder=anchor, right_shoulder=anchor)
        tiled = True
    except LayoutError as err:
        tiled = "disjoint" not in str(err)  # a body with no indices fails only the neck check
    assert tiled == tiles_exactly(ranges)


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


def test_sequence_frames_are_read_only(tiny_layout):
    seq = PoseSequence(id="s", frames=np.zeros((2, 6, 3)), layout=tiny_layout)
    with pytest.raises(ValueError):
        seq.frames[0, 0, 0] = 1.0


def test_sequence_copies_input(tiny_layout):
    buf = np.zeros((1, 6, 3))
    seq = PoseSequence(id="s", frames=buf, layout=tiny_layout)
    buf[0, 0, 0] = 99.0
    assert seq.frames[0, 0, 0] == 0.0


def test_sequence_rejects_bad_shape(tiny_layout):
    with pytest.raises(ValueError, match="shape"):
        PoseSequence(id="s", frames=np.zeros((2, 6, 2)), layout=tiny_layout)
    with pytest.raises(ValueError, match="at least one frame"):
        PoseSequence(id="s", frames=np.zeros((0, 6, 3)), layout=tiny_layout)


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
    text = write_pose_file(seq)
    again = parse_pose_file(text, id="rt", layout=layout)
    assert np.array_equal(again.frames, seq.frames)
    assert again == seq


def test_written_values_are_plain_decimal():
    values = np.array([[[1e-12, 2.5e17, -3.141592653589793]]])
    text = write_pose_file(PoseSequence(id="s", frames=values, layout=flat_layout(1)))
    body = text.split("\n", 1)[1]
    assert "e" not in body and "E" not in body
    again = parse_pose_file(text, id="s", layout=flat_layout(1))
    assert np.array_equal(again.frames, values)


def test_parse_rejects_bad_header():
    with pytest.raises(PoseFormatError, match="header"):
        parse_pose_file("JUNK v1 1 1 3\n0 0 0\n", id="x")
    with pytest.raises(PoseFormatError, match="3-dimensional"):
        parse_pose_file("POSE v1 1 1 2\n0 0\n", id="x")
    with pytest.raises(PoseFormatError, match="non-integer"):
        parse_pose_file("POSE v1 one 1 3\n0 0 0\n", id="x")
    with pytest.raises(PoseFormatError, match="positive"):
        parse_pose_file("POSE v1 0 1 3\n", id="x")
    with pytest.raises(PoseFormatError, match="empty file"):
        parse_pose_file("", id="x")


def test_parse_rejects_frame_count_mismatch():
    with pytest.raises(PoseFormatError, match="declares 2 frames, file has 1"):
        parse_pose_file("POSE v1 2 1 3\n0 0 0\n", id="x")


def test_parse_rejects_wrong_value_count():
    with pytest.raises(PoseFormatError, match="line 2: expected 6 values, found 5"):
        parse_pose_file("POSE v1 1 2 3\n0 0 0 0 0\n", id="x")


def test_parse_names_bad_token_position():
    with pytest.raises(PoseFormatError, match="line 3, column 2: unparseable"):
        parse_pose_file("POSE v1 2 1 3\n0 0 0\n0 oops 0\n", id="x")


def test_parse_rejects_non_finite():
    with pytest.raises(PoseFormatError, match="non-finite"):
        parse_pose_file("POSE v1 1 1 3\n0 nan 0\n", id="x")
    with pytest.raises(PoseFormatError, match="non-finite"):
        parse_pose_file("POSE v1 1 1 3\n0 inf 0\n", id="x")


def test_validate_sequence_checks_point_count(tiny_layout):
    seq = PoseSequence(id="s", frames=np.zeros((1, 5, 3)), layout=tiny_layout)
    problems = validate_sequence(seq)
    assert problems and "point count" in problems[0]


def test_validate_sequence_bounds_coordinates(tiny_layout):
    frames = np.zeros((2, 6, 3))
    frames[0, 1] = [MAX_COORDINATE, -MAX_COORDINATE, 0.0]
    frames[0, 5, 0] = -np.inf
    frames[1, 2, 1] = np.nextafter(MAX_COORDINATE, np.inf)
    frames[1, 4, 2] = np.nan
    assert validate_sequence(PoseSequence(id="s", frames=frames, layout=tiny_layout)) == [
        "non-finite coordinate at frame 0, keypoint 5",
        "out-of-range coordinate at frame 1, keypoint 2 (|x| > 1e+75)",
        "non-finite coordinate at frame 1, keypoint 4",
    ]


def test_validate_sequence_accepts_good_sequence(tiny_layout):
    seq = PoseSequence(id="s", frames=np.zeros((2, 6, 3)), layout=tiny_layout)
    assert validate_sequence(seq) == []


# ------------------------------------------------- the exact reader against float()

#: the ways a file is read: the exact reader as shipped, the exact reader with
#: 64-byte blocks (so lines outrun a block), and the line-by-line reader alone
READERS = {
    "exact": {"_BLOCK": pose._BLOCK},
    "small-blocks": {"_BLOCK": 64},
    "lines": {"_MIDPOINT": None},
}


def read(text: str, reader: str) -> np.ndarray | str:
    """``parse_pose_file``'s values, flat, or the message of its ``PoseFormatError``."""
    with mock.patch.multiple(pose, **READERS[reader]):
        try:
            return parse_pose_file(text, id="x").frames.reshape(-1)
        except PoseFormatError as err:
            return str(err)


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
    expected, got = float_oracle(text), read(text, reader)
    if expected is None:
        assert isinstance(got, str) and got == read(text, "lines")
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
def test_decimal_tokens_read_like_float(reader, tokens):
    assert_reads_like_float(tokens_file(tokens), reader)


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
    text=st.text()
    | st.builds(
        "POSE v1 {} {} 3\n{}".format,
        st.integers(-1, 3) | st.integers(0, 10**20),
        st.integers(-1, 3) | st.integers(0, 10**20),
        st.text(st.sampled_from("0123456789.- \n\t\re+_") | st.characters()),
    )
)
def test_parse_raises_only_pose_format_error(reader, text):
    read(text, reader)  # any other exception fails the test
