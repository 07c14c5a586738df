from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from slpeval.pose import KeypointLayout, write_pose_file

#: any Unicode text that fits on one line of a sentence file
SENTENCE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n"))

#: Small layout for metric tests: 3 body points, 1 face, 1 point per hand.
TINY_LAYOUT = KeypointLayout(
    body=range(0, 3),
    face=range(3, 4),
    left_hand=range(4, 5),
    right_hand=range(5, 6),
    neck=0,
    left_shoulder=1,
    right_shoulder=2,
)


def traced_peak(run) -> int:
    """Peak bytes ``tracemalloc`` sees while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def flat_layout(total: int) -> KeypointLayout:
    """Layout with every point in the body range; shape-only tests."""
    return KeypointLayout(
        body=range(0, total),
        face=range(total, total),
        left_hand=range(total, total),
        right_hand=range(total, total),
        neck=0,
        left_shoulder=0,
        right_shoulder=0,
    )


#: Entrant score vectors with a known dominance structure: the reference row
#: dominates team2, team3, and the baseline but not team1 (lower BLEU-1); the
#: four non-reference rows are pairwise incomparable.
LEADERBOARD = {
    "reference": {
        "BLEU-1": 34.40, "BLEU-2": 22.04, "BLEU-3": 16.09, "BLEU-4": 12.78,
        "CHRF": 34.59, "ROUGE": 35.20, "WER": 85.77,
        "DTW-MJE": 0.0000, "Total Distance": 1.000,
    },
    "team1": {
        "BLEU-1": 34.85, "BLEU-2": 21.96, "BLEU-3": 15.65, "BLEU-4": 12.06,
        "CHRF": 36.83, "ROUGE": 36.59, "WER": 93.49,
        "DTW-MJE": 0.0448, "Total Distance": 1.631,
    },
    "team2": {
        "BLEU-1": 16.96, "BLEU-2": 6.56, "BLEU-3": 3.38, "BLEU-4": 2.05,
        "CHRF": 25.88, "ROUGE": 19.77, "WER": 147.85,
        "DTW-MJE": 0.0403, "Total Distance": 2.512,
    },
    "team3": {
        "BLEU-1": 30.44, "BLEU-2": 17.75, "BLEU-3": 12.42, "BLEU-4": 9.59,
        "CHRF": 29.70, "ROUGE": 30.64, "WER": 88.88,
        "DTW-MJE": 0.0423, "Total Distance": 0.798,
    },
    "baseline": {
        "BLEU-1": 22.17, "BLEU-2": 10.71, "BLEU-3": 7.09, "BLEU-4": 5.43,
        "CHRF": 24.13, "ROUGE": 21.98, "WER": 101.45,
        "DTW-MJE": 0.0418, "Total Distance": 0.257,
    },
}


@pytest.fixture
def tiny_layout() -> KeypointLayout:
    return TINY_LAYOUT


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(20260815))


@pytest.fixture
def corpus_writer(tmp_path):
    """Write a list of (sequence, sentence) pairs; returns the manifest path."""

    def write(corpus, name: str):
        root = tmp_path / name
        (root / "poses").mkdir(parents=True)
        lines = []
        for seq, sentence in corpus:
            pose_path = root / "poses" / f"{seq.id}.pose"
            pose_path.write_text(write_pose_file(seq), encoding="utf-8")
            lines.append(f"{seq.id}\tposes/{seq.id}.pose\t{sentence}")
        manifest = root / "manifest.tsv"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return manifest

    return write


@pytest.fixture
def sentence_writer(tmp_path):
    """Write (id, sentence) pairs as a tab-separated sentence file."""

    def write(pairs, name: str):
        path = tmp_path / name
        path.write_text("".join(f"{i}\t{s}\n" for i, s in pairs), encoding="utf-8")
        return path

    return write


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion" not in nodeid:
                continue
            if outcome != "error" and report.when != "call":
                continue
            lines.append((nodeid.split("::")[-1], outcome.upper()))
    if not lines:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for name, outcome in sorted(lines):
        terminalreporter.write_line(f"  {outcome:6s} {name}")
