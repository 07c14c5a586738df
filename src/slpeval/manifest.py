"""Submission manifests and sentence files.

Manifest format (UTF-8 text): one entry per line,
``id<TAB>pose_path<TAB>reference_sentence``. The third field is optional and
taken verbatim as the remainder of the line, so sentences may contain tabs.

Sentence files (hypotheses or reference texts) use ``id<TAB>sentence`` with
the sentence again taken as the verbatim remainder of the line; pairing is by
id, never by line order.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ManifestEntry",
    "ManifestError",
    "SubmissionManifest",
    "decode_utf8",
    "load_manifest",
    "load_sentence_file",
    "split_lines",
]


class ManifestError(ValueError):
    """Raised for malformed manifest or sentence files."""


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    pose_path: str
    reference_sentence: str | None = None


@dataclass(frozen=True)
class SubmissionManifest:
    """Ordered manifest entries with unique ids; order drives aggregation."""

    entries: tuple[ManifestEntry, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for entry in self.entries:
            if entry.id in seen:
                raise ManifestError(f"duplicate id {entry.id!r} in manifest")
            seen.add(entry.id)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(entry.id for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def decode_utf8(data: bytes, path: object) -> str:
    """``data`` decoded as UTF-8; a decode error names the file it came from."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None


def split_lines(text: str) -> list[str]:
    """Lines split on ``\\n`` only, each without one trailing ``\\r``.

    Unlike ``str.splitlines`` this keeps U+2028, ``\\x85``, form feeds and
    the other Unicode line boundaries inside a line.
    """
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    if lines[-1] == "":
        lines.pop()
    return lines


def load_manifest(text: str) -> SubmissionManifest:
    """Parse manifest text; entries keep file order, duplicate ids are rejected."""
    entries: list[ManifestEntry] = []
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            continue
        parts = line.split("\t", 2)
        if len(parts) < 2 or not parts[0].strip() or not parts[1].strip():
            raise ManifestError(
                f"manifest line {lineno}: expected 'id<TAB>pose_path[<TAB>sentence]', got {line!r}"
            )
        sentence = parts[2] if len(parts) == 3 else None
        entries.append(ManifestEntry(id=parts[0].strip(), pose_path=parts[1].strip(), reference_sentence=sentence))
    return SubmissionManifest(entries=tuple(entries))


def load_sentence_file(text: str) -> dict[str, str]:
    """Parse ``id<TAB>sentence`` lines into an insertion-ordered mapping."""
    sentences: dict[str, str] = {}
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2 or not parts[0].strip():
            raise ManifestError(f"sentence file line {lineno}: expected 'id<TAB>sentence', got {line!r}")
        sid = parts[0].strip()
        if sid in sentences:
            raise ManifestError(f"sentence file line {lineno}: duplicate id {sid!r}")
        sentences[sid] = parts[1]
    return sentences
