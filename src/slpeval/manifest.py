"""Submission manifests and sentence files.

Manifest format (UTF-8 text): one entry per line,
``id<TAB>pose_path<TAB>reference_sentence``. The third field is optional and
taken verbatim as the remainder of the line, so sentences may contain tabs.

Sentence files (hypotheses or reference texts) use ``id<TAB>sentence`` with
the sentence again taken as the verbatim remainder of the line; pairing is by
id, never by line order.
"""

from __future__ import annotations

import errno
import os
import stat
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ManifestEntry",
    "ManifestError",
    "load_manifest",
    "load_sentence_file",
    "open_regular",
    "read_input",
    "read_regular",
    "split_lines",
]


class ManifestError(ValueError):
    """Raised for malformed manifest or sentence files."""


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    pose_path: str
    reference_sentence: str | None = None


def open_regular(path: Path | str, mode: str = "rb"):
    """``open(path, mode)`` without blocking, refused with an ``OSError`` unless ``fstat``
    finds a regular file: a FIFO would hang a read and ``/dev/zero`` would fill memory."""

    def opener(name, flags):
        fd = os.open(name, flags | os.O_NONBLOCK, 0o666)  # a created file: open()'s mode
        if stat.S_ISREG(os.fstat(fd).st_mode):
            return fd
        os.close(fd)
        raise OSError(errno.EINVAL, "not a regular file", str(path))

    return open(path, mode, opener=opener)


def read_regular(path: Path | str) -> bytes:
    """The bytes of the regular file at ``path`` (see :func:`open_regular`)."""
    with open_regular(path) as stream:
        return stream.read()


def read_input(path: Path | str, parse, data: bytes | None = None):
    """``parse`` of the file at ``path`` (or of its bytes ``data``) decoded as UTF-8.

    A decode error comes back as a ``ValueError``, and a ``ValueError`` from
    ``parse`` keeps its class; either way the message is led by ``path``,
    which with ``data`` given may be any label naming the input.
    """
    if data is None:
        data = read_regular(path)
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None
    except ValueError as err:
        # the same exception re-raised, so a subclass keeps its class and fields
        err.args = (f"{path}: {err}",)
        raise


def split_lines(text: str) -> list[str]:
    """Lines split on ``\\n`` only, each without one trailing ``\\r``.

    Unlike ``str.splitlines`` this keeps U+2028, ``\\x85``, form feeds and
    the other Unicode line boundaries inside a line.
    """
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    if lines[-1] == "":
        lines.pop()
    return lines


def load_manifest(text: str) -> dict[str, ManifestEntry]:
    """Parse manifest text into an id-keyed mapping in file order.

    The first problem in line order is reported: a malformed line or a repeated id.
    Text that lists no entries is refused.
    """
    entries: dict[str, ManifestEntry] = {}
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            continue
        parts = line.split("\t", 2)
        if len(parts) < 2 or not parts[0].strip() or not parts[1].strip():
            raise ManifestError(
                f"manifest line {lineno}: expected 'id<TAB>pose_path[<TAB>sentence]', got {line!r}"
            )
        entry_id = parts[0].strip()
        if entry_id in entries:
            raise ManifestError(f"duplicate id {entry_id!r} in manifest")
        sentence = parts[2] if len(parts) == 3 else None
        entries[entry_id] = ManifestEntry(entry_id, parts[1].strip(), sentence)
    if not entries:
        raise ManifestError("manifest lists no entries")
    return entries


def load_sentence_file(text: str) -> dict[str, str]:
    """Parse ``id<TAB>sentence`` lines into an insertion-ordered mapping, refusing text with none."""
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
    if not sentences:
        raise ManifestError("sentence file lists no entries")
    return sentences
