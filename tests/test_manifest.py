from __future__ import annotations

import pytest

from slpeval.manifest import (
    ManifestError,
    load_manifest,
    load_sentence_file,
)


def test_load_manifest_basic():
    manifest = load_manifest("a\tposes/a.pose\tmorgen regen\nb\tposes/b.pose\n")
    assert manifest.ids == ("a", "b")
    first, second = tuple(manifest)
    assert first.pose_path == "poses/a.pose"
    assert first.reference_sentence == "morgen regen"
    assert second.reference_sentence is None


def test_manifest_sentence_keeps_tabs_verbatim():
    manifest = load_manifest("a\ta.pose\tleft\tright part\n")
    (entry,) = tuple(manifest)
    assert entry.reference_sentence == "left\tright part"


def test_manifest_skips_blank_lines():
    manifest = load_manifest("\na\ta.pose\n\n")
    assert manifest.ids == ("a",)


def test_manifest_rejects_duplicate_ids():
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest("a\tone.pose\na\ttwo.pose\n")


def test_manifest_rejects_missing_fields():
    with pytest.raises(ManifestError, match="line 1"):
        load_manifest("only-an-id\n")


def test_manifest_len_and_iteration():
    manifest = load_manifest("a\ta.pose\nb\tb.pose\n")
    assert len(manifest) == 2
    assert [e.id for e in manifest] == ["a", "b"]


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
    assert manifest.ids == ("a", "b")
    assert next(iter(manifest)).reference_sentence == sentence
    assert load_sentence_file(f"a\t{sentence}\nb\tx\n") == {"a": sentence, "b": "x"}


def test_crlf_files_parse_like_lf_files():
    manifest = "a\tposes/a.pose\tmorgen regen\r\nb\tposes/b.pose\r\n"
    assert load_manifest(manifest) == load_manifest(manifest.replace("\r\n", "\n"))
    assert load_sentence_file("a\tx y\r\n\r\nb\t\r\n") == {"a": "x y", "b": ""}
