from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SENTENCE_TEXT
from slpeval.harness import load_history
from slpeval.manifest import (
    ManifestError,
    load_manifest,
    load_sentence_file,
    read_input,
)
from slpeval.pose import LayoutError, parse_layout


def test_load_manifest_basic():
    manifest = load_manifest("a\tposes/a.pose\tmorgen regen\nb\tposes/b.pose\n")
    assert list(manifest) == ["a", "b"]
    first, second = manifest.values()
    assert first.id == "a"
    assert first.pose_path == "poses/a.pose"
    assert first.reference_sentence == "morgen regen"
    assert second.reference_sentence is None


def test_manifest_sentence_keeps_tabs_verbatim():
    manifest = load_manifest("a\ta.pose\tleft\tright part\n")
    (entry,) = manifest.values()
    assert entry.reference_sentence == "left\tright part"


def test_manifest_skips_blank_lines():
    manifest = load_manifest("\na\ta.pose\n\n")
    assert list(manifest) == ["a"]


def test_manifest_rejects_duplicate_ids():
    with pytest.raises(ManifestError, match="^duplicate id 'a' in manifest$"):
        load_manifest("a\tone.pose\na\ttwo.pose\n")


def test_manifest_reports_the_first_problem_in_line_order():
    with pytest.raises(ManifestError, match="^duplicate id 'a'"):
        load_manifest("a\tone.pose\na\ttwo.pose\nonly-an-id\n")
    with pytest.raises(ManifestError, match="^manifest line 2:"):
        load_manifest("a\tone.pose\nonly-an-id\na\ttwo.pose\n")


def test_manifest_rejects_missing_fields():
    with pytest.raises(ManifestError, match="line 1"):
        load_manifest("only-an-id\n")


def test_manifest_len_and_iteration():
    manifest = load_manifest("a\ta.pose\nb\tb.pose\n")
    assert len(manifest) == 2
    assert [e.id for e in manifest.values()] == ["a", "b"]


def test_sentence_file_round_trip():
    sentences = load_sentence_file("a\tmorgen regen\nb\tschnee im norden\n")
    assert sentences == {"a": "morgen regen", "b": "schnee im norden"}


def test_sentence_file_keeps_order():
    sentences = load_sentence_file("z\tlast first\na\tsecond\n")
    assert list(sentences) == ["z", "a"]


def test_sentence_file_rejects_duplicates_and_bad_lines():
    with pytest.raises(ManifestError, match="duplicate"):
        load_sentence_file("a\tx\na\ty\n")
    with pytest.raises(ManifestError, match="line 1"):
        load_sentence_file("no-tab-here\n")


def test_sentence_file_allows_empty_sentence():
    assert load_sentence_file("a\t\n") == {"a": ""}


#: Unicode line boundaries that str.splitlines() would also break on
INLINE_SEPARATORS = "\u2028\u2029\x85\x1c\x1d\x1e\v\f"


def test_only_newline_ends_a_line():
    sentence = "sonnig" + INLINE_SEPARATORS + "und warm"
    manifest = load_manifest(f"a\ta.pose\t{sentence}\nb\tb.pose\n")
    assert list(manifest) == ["a", "b"]
    assert manifest["a"].reference_sentence == sentence
    assert load_sentence_file(f"a\t{sentence}\nb\tx\n") == {"a": sentence, "b": "x"}


def test_crlf_files_parse_like_lf_files():
    manifest = "a\tposes/a.pose\tmorgen regen\r\nb\tposes/b.pose\r\n"
    assert load_manifest(manifest) == load_manifest(manifest.replace("\r\n", "\n"))
    assert load_sentence_file("a\tx y\r\n\r\nb\t\r\n") == {"a": "x y", "b": ""}


@pytest.mark.parametrize("text", ["", "\n", " \t \r\n\r\n\n"])
@pytest.mark.parametrize("parse, kind", [(load_manifest, "manifest"),
                                         (load_sentence_file, "sentence file")])
def test_list_file_with_no_entries_is_refused(parse, kind, text):
    with pytest.raises(ManifestError, match=f"^{kind} lists no entries$"):
        parse(text)


@settings(max_examples=200, deadline=None)
@given(sentences=st.lists(SENTENCE_TEXT, max_size=6), newline=st.sampled_from(["\n", "\r\n"]))
def test_sentence_file_round_trips_any_unicode_sentence(sentences, newline):
    text = "".join(f"s{i}\t{sentence}{newline}" for i, sentence in enumerate(sentences))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hyp.tsv"
        path.write_bytes(text.encode("utf-8"))
        if not sentences:  # a file that lists no entries is refused, naming it
            with pytest.raises(ManifestError, match=f"^{re.escape(str(path))}: sentence file "
                               "lists no entries$"):
                read_input(path, load_sentence_file)
            return
        loaded = read_input(path, load_sentence_file)
    # a line loses one trailing \r, so under LF a sentence's own final \r goes
    expected = [s if newline == "\r\n" else s.removesuffix("\r") for s in sentences]
    assert loaded == {f"s{i}": s for i, s in enumerate(expected)}


@pytest.mark.parametrize(
    "parse, data, error",
    [(load_manifest, b"only-an-id\n", ManifestError), (parse_layout, b"body zero 3\n", LayoutError),
     (json.loads, b"[1,", json.JSONDecodeError), (load_manifest, b"a\t\xff.pose\n", ValueError)],
)
def test_read_input_names_the_file_and_keeps_the_error_class(parse, data, error):
    with pytest.raises(ValueError) as caught:
        read_input(Path("in") / "put", parse, data)
    assert type(caught.value) is error
    assert str(caught.value).startswith(f"{Path('in') / 'put'}: ")


#: tokens the parsers look for, so drawn lines reach past their first check
INPUT_TOKEN = st.one_of(
    st.sampled_from(["body", "face", "lhand", "rhand", "neck", "lshoulder", "rshoulder", "#",
                     "2026-03-02T12:00:00", "2026-03-02 12:00+01:00", "test"]),
    st.integers().map(str),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
)
INPUT_LINE = st.tuples(st.lists(INPUT_TOKEN, max_size=4), st.sampled_from([" ", "\t"])).map(
    lambda drawn: drawn[1].join(drawn[0])
)
#: a layout descriptor with all seven entries, so the layout's own checks run
LAYOUT_TEXT = st.lists(st.integers(), min_size=11, max_size=11).map(
    lambda v: "body {} {}\nface {} {}\nlhand {} {}\nrhand {} {}\nneck {}\nlshoulder {}\n"
    "rshoulder {}\n".format(*v).encode()
)


@settings(max_examples=400, deadline=None)
@given(
    parse=st.sampled_from([load_manifest, load_sentence_file, load_history, parse_layout]),
    data=st.binary(max_size=64) | LAYOUT_TEXT
    | st.lists(INPUT_LINE, max_size=8).map(lambda lines: "\n".join(lines).encode()),
)
def test_read_input_raises_only_named_value_errors(parse, data):
    path = Path("inputs") / "file"
    try:
        read_input(path, parse, data)
    except ValueError as err:
        assert str(err).startswith(f"{path}: ")
