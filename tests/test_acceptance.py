"""Acceptance suite: one test per shipping criterion.

Each criterion is a single test function; the terminal summary hook in
conftest prints one line per criterion with its outcome. Tolerances are
pinned here and must not be loosened.
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import LEADERBOARD, flat_layout
from slpeval.harness import (
    DEVELOPMENT_RULES,
    TEST_RULES,
    EvaluationConfig,
    SubmissionRecord,
    evaluate,
    render_report,
    validate_submission,
)
from slpeval.pose import PoseSequence, normalize_sequence, write_pose_file
from slpeval.pose_metrics import aggregate_pairs, dtw_align, dtw_mje, score_pair
from slpeval.ranking import ScoreVector, dominance_matrix, pareto_fronts
from slpeval.synth import SynthSpec, mean_pose_baseline, synth_corpus, synth_sequence
from slpeval.text_metrics import TokenizedCorpus, bleu_corpus, chrf, rouge_l, wer
from test_normalize import random_rotation, rigid_transform
from test_pose_metrics import oracle_dtw
from test_ranking import oracle_dominates, oracle_fronts
from test_text_metrics import brute_force_edit_cost

NOW = datetime(2026, 3, 2, 12, 0, tzinfo=timezone.utc)


@pytest.fixture(scope="module")
def fifty_sequence_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    corpus = synth_corpus(count=50, frame_count=25, seed=404)
    (root / "poses").mkdir()
    lines = []
    for seq, sentence in corpus:
        (root / "poses" / f"{seq.id}.pose").write_text(write_pose_file(seq), encoding="utf-8")
        lines.append(f"{seq.id}\tposes/{seq.id}.pose\t{sentence}")
    manifest = root / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    hyp = root / "hyp.tsv"
    hyp.write_text("".join(f"{seq.id}\t{s}\n" for seq, s in corpus), encoding="utf-8")
    return manifest, hyp


def test_criterion_01_self_evaluation_is_perfect(fifty_sequence_corpus):
    manifest, hyp = fifty_sequence_corpus
    config = EvaluationConfig(
        pred_manifest=manifest, ref_manifest=manifest, hypothesis_file=hyp
    )
    started = time.perf_counter()
    report = evaluate(config)
    elapsed = time.perf_counter() - started

    assert report.pose.dtw_mje == 0.0
    assert report.pose.total_distance_ratio == pytest.approx(1.0, abs=1e-9)
    assert report.text.bleu == (100.0, 100.0, 100.0, 100.0)
    assert report.text.chrf == 100.0
    assert report.text.rouge == 100.0
    assert report.text.wer.rate == 0.0
    assert elapsed < 5.0, f"50-sequence self-evaluation took {elapsed:.2f}s"


def test_criterion_02_dtw_matches_exhaustive_oracle():
    rng = np.random.Generator(np.random.PCG64(271828))
    for _ in range(200):
        p = int(rng.integers(1, 7))
        r = int(rng.integers(1, 7))
        k = int(rng.integers(1, 6))
        layout = flat_layout(k)
        pred = PoseSequence(id="p", frames=rng.normal(size=(p, k, 3)), layout=layout)
        ref = PoseSequence(id="r", frames=rng.normal(size=(r, k, 3)), layout=layout)
        cost, cells = oracle_dtw(pred.frames, ref.frames)
        assert dtw_mje(pred, ref) == pytest.approx(cost / cells, abs=1e-9)
        total, length = dtw_align(pred, ref)
        assert total == pytest.approx(cost, abs=1e-9)
        assert length == cells


def test_criterion_03_wer_matches_brute_force_oracle():
    rng = np.random.Generator(np.random.PCG64(314159))
    alphabet = ("a", "b", "c")
    for _ in range(500):
        hyp = tuple(alphabet[i] for i in rng.integers(0, 3, size=int(rng.integers(0, 6))))
        ref = tuple(alphabet[i] for i in rng.integers(0, 3, size=int(rng.integers(1, 6))))
        result = wer(
            TokenizedCorpus.from_raw([" ".join(hyp)]),
            TokenizedCorpus.from_raw([" ".join(ref)]),
        )
        cost = brute_force_edit_cost(hyp, ref)
        total = result.substitutions + result.deletions + result.insertions
        assert total == cost
        assert result.rate == pytest.approx(100.0 * cost / len(ref), abs=1e-9)


def test_criterion_04_hand_computed_metric_values():
    one = TokenizedCorpus.from_raw
    bleu = bleu_corpus(one(["a a a"]), one(["a"]))
    assert bleu[0] == pytest.approx(100.0 / 3.0, abs=1e-6)

    chrf_expected = 100.0 * (2.0 / 3.0 + 1.0 / 2.0 + 0.0) / 3.0
    assert chrf(one(["abc"]), one(["abd"])) == pytest.approx(chrf_expected, abs=1e-6)

    assert rouge_l(one(["a b c"]), one(["a c"])) == pytest.approx(80.0, abs=1e-6)


def test_criterion_05_pareto_matches_oracle():
    rng = np.random.Generator(np.random.PCG64(161803))
    metric_names = list(LEADERBOARD["team1"])
    for trial in range(100):
        size = int(rng.integers(1, 9))
        entries = []
        for i in range(size):
            metrics = {name: float(rng.integers(0, 5) * 12.5) for name in metric_names[:6]}
            metrics["WER"] = float(rng.integers(0, 5) * 30.0)
            metrics["DTW-MJE"] = float(rng.integers(0, 4)) / 50.0
            metrics["Total Distance"] = float(rng.integers(0, 5)) / 2.0
            entries.append(ScoreVector.from_metrics(f"t{trial}_{i}", metrics))
        assert [list(f) for f in pareto_fronts(entries).fronts] == oracle_fronts(entries)

    order = ["team1", "team2", "team3", "baseline"]
    entries = [ScoreVector.from_metrics(name, LEADERBOARD[name]) for name in order]
    matrix = dominance_matrix(entries)
    for i in range(4):
        for j in range(4):
            expected = i != j and oracle_dominates(entries[i].as_dict(), entries[j].as_dict())
            assert matrix[i][j] == expected
    assert pareto_fronts(entries).fronts == (tuple(order),)


def test_criterion_06_mean_pose_baseline_direction():
    refs = [seq for seq, _ in synth_corpus(count=10, frame_count=15, seed=42)]

    static_preds = mean_pose_baseline(refs)
    static_score, _ = aggregate_pairs([score_pair(p, r) for p, r in zip(static_preds, refs)])
    assert static_score.total_distance_ratio == 0.0

    moving_preds = mean_pose_baseline(refs, per_frame_index=True)
    moving_score, _ = aggregate_pairs([score_pair(p, r) for p, r in zip(moving_preds, refs)])
    assert 0.0 < moving_score.total_distance_ratio < 1.0


def test_criterion_07_normalization_properties():
    rng = np.random.Generator(np.random.PCG64(577215))
    for i in range(100):
        seq = synth_sequence(SynthSpec(frame_count=3, seed=7000 + i))
        moved = rigid_transform(seq, random_rotation(rng), rng.normal(scale=3.0, size=3))

        base = normalize_sequence(seq)
        transformed = normalize_sequence(moved)
        np.testing.assert_allclose(transformed.frames, base.frames, atol=1e-6)

        twice = normalize_sequence(base)
        np.testing.assert_allclose(twice.frames, base.frames, atol=1e-9)

        for before, after in zip(seq.frames, base.frames):
            d_before = np.linalg.norm(before[:, None, :] - before[None, :, :], axis=2)
            d_after = np.linalg.norm(after[:, None, :] - after[None, :, :], axis=2)
            np.testing.assert_allclose(d_after, d_before, atol=1e-9)


def test_criterion_08_duration_ratio_is_exact():
    refs = [
        synth_sequence(SynthSpec(frame_count=12, seed=900 + i), id=f"d{i}") for i in range(6)
    ]
    doubled = [
        synth_sequence(SynthSpec(frame_count=24, seed=900 + i), id=f"d{i}") for i in range(6)
    ]
    assert aggregate_pairs([score_pair(r, r) for r in refs])[1] == 1.0
    assert aggregate_pairs([score_pair(d, r) for d, r in zip(doubled, refs)])[1] == 2.0


def test_criterion_09_reports_are_byte_identical(fifty_sequence_corpus):
    manifest, hyp = fifty_sequence_corpus
    config = EvaluationConfig(
        pred_manifest=manifest, ref_manifest=manifest, hypothesis_file=hyp
    )
    first = render_report(evaluate(config), "structured").encode()
    second = render_report(evaluate(config), "structured").encode()
    assert first == second
    assert json.loads(first) == json.loads(second)


def test_criterion_10_submission_quotas_enforced(corpus_writer):
    corpus = synth_corpus(count=2, frame_count=5, seed=7)
    manifest = corpus_writer(corpus, "quota")

    test_history = [
        SubmissionRecord(timestamp=NOW, phase="test", digest=f"t{i}") for i in range(3)
    ]
    fourth = validate_submission(manifest, manifest, TEST_RULES, test_history, now=NOW)
    assert not fourth.ok
    assert any("limit 3" in v for v in fourth.violations)

    dev_history = [
        SubmissionRecord(timestamp=NOW, phase="development", digest=f"d{i}") for i in range(100)
    ]
    next_dev = validate_submission(manifest, manifest, DEVELOPMENT_RULES, dev_history, now=NOW)
    assert not next_dev.ok
    assert any("daily quota" in v and "limit 100" in v for v in next_dev.violations)

    under = validate_submission(manifest, manifest, DEVELOPMENT_RULES, dev_history[:99], now=NOW)
    assert under.ok
