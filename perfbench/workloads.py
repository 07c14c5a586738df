"""Seeded inputs of the four benchmark workloads and the commands they run.

``build(name, seed, scale, out_dir)`` writes every input file of a workload
into ``out_dir``; ``requests(name, out_dir)`` gives the CLI argument lists of
one request. The same (name, seed, scale) always writes the same bytes.

Every seed gives the same amount of work: frame counts, sentence counts and
entrant counts are fixed per scale, and the seed decides only which id gets
which length and all of the content. Without that, the DTW cell count of
``submission`` alone would swing by about 10% from seed to seed and hide
the changes the benchmark is meant to show.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from slpeval import pose, synth

WORKLOADS = ("submission", "long_pair", "text_corpus", "leaderboard")

SIZES = {
    "full": {
        "submission": {"ids": 40, "ref_frames": (60, 160), "history": 2000, "self_ids": 8},
        "long_pair": {"pred_frames": 1000, "ref_frames": 800},
        "text_corpus": {"sentences": 2000},
        "leaderboard": {"entrants": 1000},
    },
    "tiny": {
        "submission": {"ids": 4, "ref_frames": (8, 16), "history": 20, "self_ids": 2},
        "long_pair": {"pred_frames": 30, "ref_frames": 24},
        "text_corpus": {"sentences": 20},
        "leaderboard": {"entrants": 30},
    },
}

#: the quota check uses this instant, never the wall clock
NOW = datetime(2025, 6, 30, 12, 0, 0, tzinfo=timezone.utc)
HISTORY_PER_DAY = 50
PRED_LENGTH_RATIO = (0.8, 1.25)
#: predictions move less than references (regression to the mean) and carry
#: jitter below the per-frame hand motion, so Total Distance stays near 0.7-1.5
PRED_AMPLITUDE = 0.07
PERTURB_SIGMA = 0.0002
SENTENCE_WORDS = (8, 20)
#: per reference word: deletion, substitution, then insertion after it
EDIT_RATES = (0.15, 0.15, 0.10)
#: substitutes outside the reference vocabulary, so some edits never match
EXTRA_WORDS = ("hagel", "glatteis", "boeen", "tief", "hoch", "schauer")

LEADERBOARD_METRICS = (
    # name, value at average quality, change per unit of quality
    ("BLEU-1", 35.0, 4.0),
    ("BLEU-2", 22.0, 3.0),
    ("BLEU-3", 16.0, 2.5),
    ("BLEU-4", 12.0, 2.0),
    ("CHRF", 35.0, 4.0),
    ("ROUGE", 35.0, 4.0),
    ("WER", 85.0, -6.0),
    ("DTW-MJE", 0.25, -0.03),
    ("Total Distance", 0.7, 0.08),
)
#: per-metric noise in units of quality; gives about 8 fronts at 1000 entrants,
#: where independent metrics would put nearly everyone on the first front
LEADERBOARD_NOISE = 1.0


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_pose(path: Path, seq) -> None:
    # looked up on the module at call time, so a traced set-up sees the call
    _write(path, pose.write_pose_file(seq))


def _sequence(frames: int, seed: int, seq_id: str, amplitude: float = 0.1):
    spec = synth.SynthSpec(frame_count=frames, amplitude=amplitude, seed=seed)
    return synth.synth_sequence(spec, id=seq_id)


def _prediction(frames: int, rng: np.random.Generator, seq_id: str):
    seq = _sequence(frames, _seed(rng), seq_id, PRED_AMPLITUDE)
    return synth.perturb(seq, PERTURB_SIGMA, _seed(rng))


def _edit(sentence: str, vocabulary: list[str], rng: np.random.Generator) -> str:
    deletion, substitution, insertion = EDIT_RATES
    out = []
    for word in sentence.split():
        roll = rng.random()
        if roll >= deletion:
            out.append(vocabulary[rng.integers(len(vocabulary))] if roll < deletion + substitution else word)
        if rng.random() < insertion:
            out.append(vocabulary[rng.integers(len(vocabulary))])
    return " ".join(out)


def _sentence_pairs(count: int, rng: np.random.Generator) -> list[tuple[str, str]]:
    refs = [synth.synth_sentence(_seed(rng), *SENTENCE_WORDS) for _ in range(count)]
    vocabulary = sorted({word for ref in refs for word in ref.split()} | set(EXTRA_WORDS))
    return [(ref, _edit(ref, vocabulary, rng)) for ref in refs]


def _lengths(count: int, low: int, high: int) -> list[tuple[int, int]]:
    """Fixed stratified (reference, prediction) frame counts."""
    lo_ratio, hi_ratio = PRED_LENGTH_RATIO
    pairs = []
    for i in range(count):
        ref = round(low + (high - low) * (i + 0.5) / count)
        # a fixed stride coprime with the count decorrelates ratio and length
        k = (7 * i + 3) % count
        ratio = lo_ratio + (hi_ratio - lo_ratio) * (k + 0.5) / count
        pairs.append((ref, max(1, round(ref * ratio))))
    return pairs


def _build_submission(size: dict, rng: np.random.Generator, out: Path) -> None:
    count = size["ids"]
    lengths = _lengths(count, *size["ref_frames"])
    order = rng.permutation(count)
    sentences = _sentence_pairs(count, rng)
    ref_lines, pred_lines, hyp_lines = [], [], []
    for i in range(count):
        seq_id = f"seq{i:04d}"
        ref_frames, pred_frames = lengths[order[i]]
        ref_sentence, hyp_sentence = sentences[i]
        _write_pose(out / "ref" / "poses" / f"{seq_id}.pose", _sequence(ref_frames, _seed(rng), seq_id))
        _write_pose(out / "pred" / "poses" / f"{seq_id}.pose", _prediction(pred_frames, rng, seq_id))
        ref_lines.append(f"{seq_id}\tposes/{seq_id}.pose\t{ref_sentence}\n")
        pred_lines.append(f"{seq_id}\tposes/{seq_id}.pose\n")
        hyp_lines.append(f"{seq_id}\t{hyp_sentence}\n")
    _write(out / "ref" / "manifest.tsv", "".join(ref_lines))
    _write(out / "pred" / "manifest.tsv", "".join(pred_lines))
    _write(out / "hyp.tsv", "".join(hyp_lines))
    self_lines = [f"seq{i:04d}\t../ref/poses/seq{i:04d}.pose\n" for i in range(size["self_ids"])]
    _write(out / "self" / "manifest.tsv", "".join(self_lines))

    history = []
    for i in range(size["history"]):
        stamp = NOW - timedelta(days=1 + i // HISTORY_PER_DAY, seconds=37 * i)
        history.append(f"{stamp.isoformat()}\tdevelopment\t{rng.bytes(32).hex()}\n")
    _write(out / "history.pristine.tsv", "".join(history))


def _build_long_pair(size: dict, rng: np.random.Generator, out: Path) -> None:
    seq_id = "long0000"
    _write_pose(out / "ref" / "poses" / f"{seq_id}.pose", _sequence(size["ref_frames"], _seed(rng), seq_id))
    _write_pose(out / "pred" / "poses" / f"{seq_id}.pose", _prediction(size["pred_frames"], rng, seq_id))
    for role in ("ref", "pred"):
        _write(out / role / "manifest.tsv", f"{seq_id}\tposes/{seq_id}.pose\n")


def _build_text_corpus(size: dict, rng: np.random.Generator, out: Path) -> None:
    pairs = _sentence_pairs(size["sentences"], rng)
    _write(out / "ref.tsv", "".join(f"s{i:05d}\t{ref}\n" for i, (ref, _) in enumerate(pairs)))
    _write(out / "hyp.tsv", "".join(f"s{i:05d}\t{hyp}\n" for i, (_, hyp) in enumerate(pairs)))


def _build_leaderboard(size: dict, rng: np.random.Generator, out: Path) -> None:
    count = size["entrants"]
    quality = rng.normal(size=count)
    noise = rng.normal(scale=LEADERBOARD_NOISE, size=(count, len(LEADERBOARD_METRICS)))
    entries = []
    for i in range(count):
        metrics = {
            name: base + slope * (quality[i] + noise[i, m])
            for m, (name, base, slope) in enumerate(LEADERBOARD_METRICS)
        }
        entries.append({"entrant": f"team{i:04d}", "metrics": metrics})
    _write(out / "scores.json", json.dumps(entries, indent=1) + "\n")


_GENERATORS = {
    "submission": _build_submission,
    "long_pair": _build_long_pair,
    "text_corpus": _build_text_corpus,
    "leaderboard": _build_leaderboard,
}


def build(name: str, seed: int, scale: str, out: Path) -> None:
    """Write the inputs of workload ``name`` for ``seed`` into ``out``."""
    _GENERATORS[name](SIZES[scale][name], _rng(name, seed), out)


def requests(name: str, out: Path) -> list[tuple[str, list[str]]]:
    """The (command, argv) steps of one request, in order."""
    if name == "submission":
        pred, ref = str(out / "pred" / "manifest.tsv"), str(out / "ref" / "manifest.tsv")
        return [
            ("validate", [
                "validate", "--pred", pred, "--ref", ref, "--phase", "dev",
                "--history", str(out / "history.tsv"), "--record", "--now", NOW.isoformat(),
            ]),
            ("evaluate", ["evaluate", "--pred", pred, "--ref", ref, "--hyp", str(out / "hyp.tsv")]),
        ]
    if name == "long_pair":
        return [("evaluate", [
            "evaluate", "--pred", str(out / "pred" / "manifest.tsv"),
            "--ref", str(out / "ref" / "manifest.tsv"),
        ])]
    if name == "text_corpus":
        return [("evaluate", [
            "evaluate", "--hyp", str(out / "hyp.tsv"), "--ref-text", str(out / "ref.tsv"),
        ])]
    if name == "leaderboard":
        return [("rank", ["rank", "--scores", str(out / "scores.json")])]
    raise ValueError(f"unknown workload {name!r}")


def self_evaluation(out: Path) -> list[str]:
    """Pose-only evaluation of some ``submission`` references against themselves."""
    manifest = str(out / "self" / "manifest.tsv")
    return ["evaluate", "--pred", manifest, "--ref", manifest]
