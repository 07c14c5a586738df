"""Golden outputs: the CLI's reports, history line and ranking, byte for byte.

The inputs are written literally here (a six-keypoint layout, three short
sequences per side, a few sentences and score vectors) so the pinned bytes,
including ``input_digest`` and the recorded submission digest, do not depend
on the synthetic-data generator. Paths are relative to the working
directory, which keeps the provenance echo stable.
"""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

from slpeval.cli import main

GOLDEN = Path(__file__).parent / "golden"

LAYOUT = "body 0 3\nface 3 1\nlhand 4 1\nrhand 5 1\nneck 0\nlshoulder 1\nrshoulder 2\n"
#: per keypoint: rest position and wobble step, in thousandths
KEYPOINTS = (
    ((0, 300, 0), 3),
    ((500, 0, 50), 3),
    ((-500, 0, -20), 3),
    ((0, 450, 30), 5),
    ((400, -300, 200), 40),
    ((-400, -300, 200), 40),
)
REF_SENTENCES = {
    "a": "morgen regnet es im norden",
    "b": "der wind weht stark aus west",
    "c": "im sueden bleibt es sonnig und warm",
}
HYP_SENTENCES = {
    "a": "morgen regnet es im sueden",
    "b": "der wind weht aus west west",
    "c": "im sueden bleibt es warm",
}
SCORES = [
    {"entrant": "alpha", "metrics": {
        "BLEU-1": 30.0, "BLEU-2": 20.0, "BLEU-3": 12.5, "BLEU-4": 9.0, "CHRF": 33.0,
        "ROUGE": 31.0, "WER": 80.0, "DTW-MJE": 0.05, "Total Distance": 0.9}},
    {"entrant": "beta", "metrics": {
        "BLEU-1": 25.0, "BLEU-2": 15.0, "BLEU-3": 10.0, "BLEU-4": 7.0, "CHRF": 30.0,
        "ROUGE": 28.0, "WER": 90.0, "DTW-MJE": 0.06, "Total Distance": 1.2}},
    {"entrant": "gamma", "metrics": {
        "BLEU-1": 35.0, "BLEU-2": 21.0, "BLEU-3": 11.0, "BLEU-4": 8.0, "CHRF": 29.0,
        "ROUGE": 30.0, "WER": 85.0, "DTW-MJE": 0.04, "Total Distance": 1.5}},
]
NOW = "2026-03-02T12:00:00+00:00"


def pose_text(seed: int, frames: int) -> str:
    lines = [f"POSE v1 {frames} {len(KEYPOINTS)} 3"]
    for t in range(frames):
        values = []
        for p, (rest, step) in enumerate(KEYPOINTS):
            for c in range(3):
                wobble = (seed * 7 + t * 3 + p * 5 + c * 11) % 13 - 6
                values.append(str((rest[c] + step * wobble) / 1000))
        lines.append(" ".join(values))
    return "\n".join(lines) + "\n"


def write(path: str, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write("layout.txt", LAYOUT)
    ref_lines, pred_lines = [], []
    for k, sid in enumerate(REF_SENTENCES):
        write(f"ref/poses/{sid}.pose", pose_text(seed=k, frames=4 + k))
        write(f"pred/poses/{sid}.pose", pose_text(seed=k + 5, frames=6 - k))
        ref_lines.append(f"{sid}\tposes/{sid}.pose\t{REF_SENTENCES[sid]}\n")
        pred_lines.append(f"{sid}\tposes/{sid}.pose\n")
    write("ref/manifest.tsv", "".join(ref_lines))
    write("pred/manifest.tsv", "".join(pred_lines))
    write("hyp.tsv", "".join(f"{i}\t{s}\n" for i, s in HYP_SENTENCES.items()))
    write("ref.tsv", "".join(f"{i}\t{s}\n" for i, s in REF_SENTENCES.items()))
    write("scores.json", json.dumps(SCORES))


def run(capsys, *argv: str) -> str:
    capsys.readouterr()
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


POSE_AND_TEXT = (
    "evaluate", "--pred", "pred/manifest.tsv", "--ref", "ref/manifest.tsv",
    "--hyp", "hyp.tsv", "--layout", "layout.txt",
)


@pytest.mark.parametrize("fmt, name", [
    ("structured", "evaluate.json"), ("table", "evaluate.txt"), ("csv", "evaluate.csv"),
])
def test_pose_and_text_report(inputs, capsys, fmt, name):
    assert run(capsys, *POSE_AND_TEXT, "--format", fmt) == golden(name)


def test_text_only_report(inputs, capsys):
    out = run(capsys, "evaluate", "--hyp", "hyp.tsv", "--ref-text", "ref.tsv")
    assert out == golden("text_only.json")


def test_recorded_history_line(inputs, capsys):
    out = run(
        capsys, "validate", "--pred", "pred/manifest.tsv", "--ref", "ref/manifest.tsv",
        "--layout", "layout.txt", "--phase", "test", "--history", "history.tsv",
        "--record", "--now", NOW,
    )
    assert out == "submission valid (recorded)\n"
    assert Path("history.tsv").read_text(encoding="utf-8") == golden("history.tsv")


def test_rank_report(inputs, capsys):
    assert run(capsys, "rank", "--scores", "scores.json") == golden("rank.json")


@pytest.mark.parametrize("module", [
    "slpeval", "slpeval.cli", "slpeval.harness", "slpeval.manifest", "slpeval.pose",
    "slpeval.pose_metrics", "slpeval.ranking", "slpeval.synth", "slpeval.text_metrics",
])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_readme_names_only_exports_that_exist():
    """Each backticked name in README's list of lower-level exports resolves on
    ``slpeval``, or as the dotted path written there."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index("Lower-level pieces are exported too")
    names = re.findall(r"`([^`]+)`", readme[start : readme.index("\n\n", start)])
    assert len(names) > 10
    missing = []
    for name in names:
        module, _, attr = name.rpartition(".")
        if not hasattr(importlib.import_module(module or "slpeval"), attr):
            missing.append(name)
    assert missing == []
