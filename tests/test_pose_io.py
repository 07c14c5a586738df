from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import TINY_LAYOUT, flat_layout
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
    seq = PoseSequence(id="s", frames=np.zeros((1, 5, 3)), layout=flat_layout(5))
    problems = validate_sequence(seq, tiny_layout)
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
