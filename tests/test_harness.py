from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import resource
import shlex
import stat
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slpeval
from conftest import SENTENCE_TEXT, traced_peak
from slpeval import harness, pose, pose_metrics
from slpeval.cli import main
from slpeval.harness import (
    DEVELOPMENT_RULES,
    TEST_RULES,
    EvaluationConfig,
    EvaluationError,
    SubmissionRecord,
    evaluate,
    format_record,
    load_history,
    render_report,
    run_backtranslation,
    validate_submission,
)
from slpeval.manifest import read_regular
from slpeval.pose import MAX_COORDINATE, PoseSequence, parse_pose_file, write_pose_file
from slpeval.pose_metrics import aggregate_pairs, score_pair
from slpeval.synth import SynthSpec, perturb, synth_corpus, synth_sequence

NOW = datetime(2026, 3, 2, 12, 0, tzinfo=timezone.utc)


def small_corpus(seed: int = 11, count: int = 3, frames: int = 6):
    return synth_corpus(count=count, frame_count=frames, seed=seed)


def hyp_pairs(corpus):
    return [(seq.id, sentence) for seq, sentence in corpus]


def record(days_ago: int = 0, phase: str = "development", digest: str = "d") -> SubmissionRecord:
    return SubmissionRecord(timestamp=NOW - timedelta(days=days_ago), phase=phase, digest=digest)


# ---------------------------------------------------------------- duration ratio


def test_duration_ratio_identity_and_double():
    ref = synth_sequence(SynthSpec(frame_count=10, seed=1), id="a")
    pred = synth_sequence(SynthSpec(frame_count=20, seed=1), id="a")
    assert aggregate_pairs([score_pair(ref, ref)])[1] == 1.0
    assert aggregate_pairs([score_pair(pred, ref)])[1] == 2.0


def test_duration_ratio_averages():
    refs = [
        synth_sequence(SynthSpec(frame_count=10, seed=1), id="a"),
        synth_sequence(SynthSpec(frame_count=10, seed=2), id="b"),
    ]
    preds = [
        synth_sequence(SynthSpec(frame_count=10, seed=1), id="a"),
        synth_sequence(SynthSpec(frame_count=30, seed=2), id="b"),
    ]
    _, ratio = aggregate_pairs([score_pair(p, r) for p, r in zip(preds, refs)])
    assert ratio == pytest.approx(2.0)


# ---------------------------------------------------------------- evaluate


def test_evaluate_self_is_perfect(corpus_writer, sentence_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    hyp = sentence_writer(hyp_pairs(corpus), "hyp.tsv")
    report = evaluate(
        EvaluationConfig(pred_manifest=manifest, ref_manifest=manifest, hypothesis_file=hyp)
    )
    assert report.pose.dtw_mje == 0.0
    assert report.pose.total_distance_ratio == pytest.approx(1.0, abs=1e-12)
    assert report.text.bleu == (100.0, 100.0, 100.0, 100.0)
    assert report.text.chrf == pytest.approx(100.0)
    assert report.text.rouge == pytest.approx(100.0)
    assert report.text.wer.rate == 0.0
    assert report.diagnostics.duration_ratio == 1.0
    assert report.diagnostics.top_error_words == ()


def test_evaluate_detects_degradation(corpus_writer, sentence_writer):
    corpus = small_corpus()
    ref_manifest = corpus_writer(corpus, "ref")
    noisy = [(perturb(seq, 0.01, seed=5), sentence) for seq, sentence in corpus]
    pred_manifest = corpus_writer(noisy, "pred")
    hyp = sentence_writer(
        [(seq.id, "regen " + sentence) for seq, sentence in corpus], "hyp.tsv"
    )
    report = evaluate(
        EvaluationConfig(
            pred_manifest=pred_manifest, ref_manifest=ref_manifest, hypothesis_file=hyp
        )
    )
    assert report.pose.dtw_mje > 0.0
    assert report.text.wer.rate > 0.0
    assert report.text.bleu[0] < 100.0


def test_evaluate_pose_only(corpus_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    report = evaluate(EvaluationConfig(pred_manifest=manifest, ref_manifest=manifest))
    assert report.text is None
    assert report.pose is not None
    assert report.diagnostics.length_error_correlation is None


def test_evaluate_text_only(sentence_writer):
    corpus = small_corpus()
    hyp = sentence_writer(hyp_pairs(corpus), "hyp.tsv")
    ref = sentence_writer(hyp_pairs(corpus), "ref.tsv")
    report = evaluate(EvaluationConfig(hypothesis_file=hyp, reference_text=ref))
    assert report.pose is None
    assert report.text.wer.rate == 0.0
    assert report.diagnostics.duration_ratio is None


def test_evaluate_pairs_text_by_id_not_order(sentence_writer):
    hyp = sentence_writer([("b", "x y"), ("a", "m n")], "hyp.tsv")
    ref = sentence_writer([("a", "m n"), ("b", "x y")], "ref.tsv")
    report = evaluate(EvaluationConfig(hypothesis_file=hyp, reference_text=ref))
    assert report.text.wer.rate == 0.0


def test_evaluate_ref_text_overrides_manifest_sentences(corpus_writer, sentence_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    hyp = sentence_writer([(seq.id, "etwas anderes") for seq, _ in corpus], "hyp.tsv")
    ref = sentence_writer([(seq.id, "etwas anderes") for seq, _ in corpus], "alt.tsv")
    report = evaluate(
        EvaluationConfig(
            pred_manifest=manifest,
            ref_manifest=manifest,
            hypothesis_file=hyp,
            reference_text=ref,
        )
    )
    assert report.text.wer.rate == 0.0


def test_evaluate_rejects_id_mismatch(corpus_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    renamed = [
        (PoseSequence(id=f"other-{i}", frames=seq.frames, layout=seq.layout), s)
        for i, (seq, s) in enumerate(corpus)
    ]
    pred_manifest = corpus_writer(renamed, "pred")
    with pytest.raises(EvaluationError, match="id set"):
        evaluate(EvaluationConfig(pred_manifest=pred_manifest, ref_manifest=manifest))


def test_evaluate_names_broken_pose_file(corpus_writer, tmp_path):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    victim = manifest.parent / "poses" / f"{corpus[0][0].id}.pose"
    victim.write_text("POSE v1 1 1 3\n0 nan 0\n", encoding="utf-8")
    with pytest.raises(EvaluationError, match=str(victim)):
        evaluate(EvaluationConfig(pred_manifest=manifest, ref_manifest=manifest))


def test_evaluate_requires_reference_sentences(corpus_writer, sentence_writer, tmp_path):
    corpus = small_corpus()
    bare = [(seq, "") for seq, _ in corpus]
    manifest_path = tmp_path / "bare" / "manifest.tsv"
    manifest_path.parent.mkdir()
    (manifest_path.parent / "poses").mkdir()
    lines = []
    for seq, _ in bare:
        from slpeval.pose import write_pose_file

        (manifest_path.parent / "poses" / f"{seq.id}.pose").write_text(
            write_pose_file(seq), encoding="utf-8"
        )
        lines.append(f"{seq.id}\tposes/{seq.id}.pose")  # no sentence column
    manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    hyp = sentence_writer(hyp_pairs(corpus), "hyp.tsv")
    with pytest.raises(EvaluationError, match="reference sentences"):
        evaluate(
            EvaluationConfig(
                pred_manifest=manifest_path, ref_manifest=manifest_path, hypothesis_file=hyp
            )
        )
    with pytest.raises(EvaluationError, match=f"{hyp}: no reference sentences available"):
        evaluate(EvaluationConfig(hypothesis_file=hyp))


def test_evaluate_hypothesis_ids_must_match(corpus_writer, sentence_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    hyp = sentence_writer([("strange", "x")], "hyp.tsv")
    with pytest.raises(EvaluationError, match="hypothesis ids"):
        evaluate(
            EvaluationConfig(
                pred_manifest=manifest, ref_manifest=manifest, hypothesis_file=hyp
            )
        )


def test_config_requires_some_input():
    with pytest.raises(ValueError, match="pose inputs"):
        EvaluationConfig()


def test_evaluate_without_normalization(corpus_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    report = evaluate(
        EvaluationConfig(pred_manifest=manifest, ref_manifest=manifest, normalize=False)
    )
    assert report.pose.dtw_mje == 0.0
    assert report.provenance["config"]["normalize"] is False


# ---------------------------------------------------------------- back-translation hook


ECHO_ID_HOOK = (
    "import sys, pathlib\n"
    "for line in sys.stdin:\n"
    "    print('sign language pose ' + pathlib.Path(line.strip()).stem)\n"
)


def hook_command(body: str = ECHO_ID_HOOK) -> str:
    return f"{sys.executable} -c {shlex.quote(body)}"


def hook_references(corpus, sentence_writer, name="ref.tsv"):
    return sentence_writer(
        [(seq.id, f"sign language pose {seq.id}") for seq, _ in corpus], name
    )


def test_evaluate_with_backtranslation_hook(corpus_writer, sentence_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    command = hook_command()
    report = evaluate(
        EvaluationConfig(
            pred_manifest=manifest,
            ref_manifest=manifest,
            backtranslate_command=command,
            reference_text=hook_references(corpus, sentence_writer),
        )
    )
    assert report.pose.dtw_mje == 0.0
    assert report.text.bleu == (100.0, 100.0, 100.0, 100.0)
    assert report.text.wer.rate == 0.0
    assert report.provenance["config"]["backtranslate_command"] == command


def test_backtranslation_needs_only_prediction_poses(corpus_writer, sentence_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "pred")
    report = evaluate(
        EvaluationConfig(
            pred_manifest=manifest,
            backtranslate_command=hook_command(),
            reference_text=hook_references(corpus, sentence_writer),
        )
    )
    assert report.pose is None
    assert report.text.wer.rate == 0.0


def test_backtranslation_sentence_count_must_match(corpus_writer, sentence_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "pred")
    config = EvaluationConfig(
        pred_manifest=manifest,
        backtranslate_command=hook_command("pass"),
        reference_text=hook_references(corpus, sentence_writer),
    )
    with pytest.raises(EvaluationError, match="produced 0 sentences"):
        evaluate(config)


def test_backtranslation_failure_names_exit_status(corpus_writer, sentence_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "pred")
    config = EvaluationConfig(
        pred_manifest=manifest,
        backtranslate_command=hook_command("import sys; sys.exit(3)"),
        reference_text=hook_references(corpus, sentence_writer),
    )
    with pytest.raises(EvaluationError, match="status 3"):
        evaluate(config)


def test_backtranslation_config_rules(corpus_writer, sentence_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "pred")
    hyp = sentence_writer(hyp_pairs(corpus), "hyp.tsv")
    with pytest.raises(ValueError, match="not both"):
        EvaluationConfig(
            pred_manifest=manifest, hypothesis_file=hyp, backtranslate_command="cat"
        )
    with pytest.raises(ValueError, match="prediction manifest"):
        EvaluationConfig(backtranslate_command="cat")


def test_cli_names_backtranslation_output_that_is_not_utf8(
    corpus_writer, sentence_writer, capsys
):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "pred")
    ref_text = hook_references(corpus, sentence_writer)
    hook = hook_command("import sys; sys.stdout.buffer.write(b'\\xff\\n')")
    assert run_cli("evaluate", "--pred", str(manifest), "--backtranslate", hook,
                   "--ref-text", str(ref_text)) == 2
    assert capsys.readouterr().err.startswith(
        "error: back-translation output: 'utf-8' codec can't decode byte 0xff"
    )


def test_cli_names_backtranslation_command_that_cannot_start(
    corpus_writer, sentence_writer, tmp_path, capsys
):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "pred")
    ref_text = hook_references(corpus, sentence_writer)
    assert run_cli("evaluate", "--pred", str(manifest), "--backtranslate", str(tmp_path / "absent"),
                   "--ref-text", str(ref_text)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: back-translation command failed to start: ")
    assert err.count("\n") == 1


def test_cli_stops_a_backtranslation_command_that_runs_past_its_timeout(
    corpus_writer, sentence_writer, capsys, monkeypatch
):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "pred")
    ref_text = hook_references(corpus, sentence_writer)
    started = []

    class RecordedPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(harness, "BACKTRANSLATION_TIMEOUT_S", 0.5)
    monkeypatch.setattr(subprocess, "Popen", RecordedPopen)
    hook = hook_command("import time; time.sleep(30)")
    assert run_cli("evaluate", "--pred", str(manifest), "--backtranslate", hook,
                   "--ref-text", str(ref_text)) == 2
    assert capsys.readouterr().err == "error: back-translation command timed out after 0.5 s\n"
    # the command was killed and reaped, not left running for its 30 s
    assert len(started) == 1 and started[0].poll() is not None


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        return "\nState:\tZ" not in Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads process states in /proc")
def test_backtranslation_timeout_stops_what_the_command_started(
    corpus_writer, sentence_writer, tmp_path, capsys, monkeypatch
):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "pred")
    ref_text = hook_references(corpus, sentence_writer)
    pid_file = tmp_path / "sleep.pid"
    monkeypatch.setattr(harness, "BACKTRANSLATION_TIMEOUT_S", 0.5)
    hook = f"sh -c {shlex.quote(f'sleep 30 & echo $! > {pid_file}; wait')}"
    assert run_cli("evaluate", "--pred", str(manifest), "--backtranslate", hook,
                   "--ref-text", str(ref_text)) == 2
    assert capsys.readouterr().err == "error: back-translation command timed out after 0.5 s\n"
    # the shell's background sleep went with it: gone, or a zombie left for its new parent
    pid = int(pid_file.read_text())
    for _ in range(500):  # SIGKILL is delivered asynchronously
        if not _running(pid):
            break
        time.sleep(0.01)
    assert not _running(pid)


def test_run_backtranslation_rejects_empty_command():
    with pytest.raises(EvaluationError, match="empty"):
        run_backtranslation("", [])


# ---------------------------------------------------------------- reports


def test_structured_report_round_trips(corpus_writer, sentence_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    hyp = sentence_writer(hyp_pairs(corpus), "hyp.tsv")
    config = EvaluationConfig(
        pred_manifest=manifest, ref_manifest=manifest, hypothesis_file=hyp
    )
    report = evaluate(config)
    rendered = render_report(report, "structured")
    assert json.loads(rendered) == report.to_dict()


def test_reports_are_byte_identical_across_runs(corpus_writer, sentence_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    hyp = sentence_writer(hyp_pairs(corpus), "hyp.tsv")
    config = EvaluationConfig(
        pred_manifest=manifest, ref_manifest=manifest, hypothesis_file=hyp
    )
    first = render_report(evaluate(config), "structured")
    second = render_report(evaluate(config), "structured")
    assert first == second


def test_table_and_csv_share_numbers(corpus_writer, sentence_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    hyp = sentence_writer(hyp_pairs(corpus), "hyp.tsv")
    report = evaluate(
        EvaluationConfig(pred_manifest=manifest, ref_manifest=manifest, hypothesis_file=hyp)
    )
    table = render_report(report, "table")
    csv_text = render_report(report, "csv")
    csv_values = csv_text.splitlines()[1].split(",")
    for value in csv_values:
        assert value in table
    header = csv_text.splitlines()[0].split(",")
    assert header[:4] == ["bleu_1", "bleu_2", "bleu_3", "bleu_4"]
    assert header[4:9] == ["chrf", "rouge", "wer", "dtw_mje", "total_distance"]


def test_excluded_sequences_reach_every_rendering(corpus_writer):
    corpus = small_corpus()
    still_seq, sentence = corpus[1]
    still = PoseSequence(id=still_seq.id, frames=still_seq.frames[[0] * still_seq.num_frames])
    manifest = corpus_writer([corpus[0], (still, sentence), corpus[2]], "ref")
    report = evaluate(EvaluationConfig(pred_manifest=manifest, ref_manifest=manifest))
    doc = report.to_dict()
    assert doc["diagnostics"]["excluded_sequences"] == doc["pose"]["excluded_ids"] == [still.id]
    assert f"\nExcluded sequences: {still.id}\n" in render_report(report, "table")


def test_unknown_render_format_rejected(corpus_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    report = evaluate(EvaluationConfig(pred_manifest=manifest, ref_manifest=manifest))
    with pytest.raises(ValueError, match="format"):
        render_report(report, "yaml")


def test_digest_tracks_pose_bytes(corpus_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")

    def digest():
        return validate_submission(manifest, manifest, DEVELOPMENT_RULES, [], now=NOW).digest

    before = digest()
    victim = manifest.parent / "poses" / f"{corpus[0][0].id}.pose"
    victim.write_bytes(victim.read_bytes() + b" ")
    assert digest() != before
    assert digest() == digest()


# ---------------------------------------------------------------- history and quotas


def test_history_round_trip():
    records = [record(0), record(1, phase="test", digest="abc")]
    text = "".join(format_record(r) for r in records)
    assert load_history(text) == records
    assert load_history(text.replace("\n", "\r\n")) == records


def test_history_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        load_history("not a record\n")
    with pytest.raises(ValueError, match="timestamp"):
        load_history("yesterday\tdevelopment\tdeadbeef\n")


def test_validate_accepts_clean_submission(corpus_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    report = validate_submission(manifest, manifest, DEVELOPMENT_RULES, [], now=NOW)
    assert report.ok
    assert report.violations == ()


def test_validate_reports_id_differences(corpus_writer):
    corpus = small_corpus()
    ref_manifest = corpus_writer(corpus, "ref")
    pred_manifest = corpus_writer(corpus[:-1], "pred")
    report = validate_submission(pred_manifest, ref_manifest, DEVELOPMENT_RULES, [], now=NOW)
    assert not report.ok
    assert any("missing id" in v for v in report.violations)


def test_validate_reports_broken_pose_files(corpus_writer):
    corpus = small_corpus()
    ref_manifest = corpus_writer(corpus, "ref")
    pred_manifest = corpus_writer(corpus, "pred")
    victim = pred_manifest.parent / "poses" / f"{corpus[1][0].id}.pose"
    victim.write_text("POSE v1 2 1 3\n0 0 0\n", encoding="utf-8")
    report = validate_submission(pred_manifest, ref_manifest, DEVELOPMENT_RULES, [], now=NOW)
    assert any("frame count mismatch" in v for v in report.violations)
    missing = pred_manifest.parent / "poses" / f"{corpus[0][0].id}.pose"
    missing.unlink()
    report = validate_submission(pred_manifest, ref_manifest, DEVELOPMENT_RULES, [], now=NOW)
    [unread] = [v for v in report.violations if "cannot read" in v]
    assert unread.startswith(f"prediction {corpus[0][0].id!r}: cannot read {missing}: ")
    assert unread.count(str(missing)) == 1


def test_test_phase_allows_three_total(corpus_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    history = [record(i, phase="test") for i in range(2)]
    assert validate_submission(manifest, manifest, TEST_RULES, history, now=NOW).ok
    history.append(record(30, phase="test"))
    report = validate_submission(manifest, manifest, TEST_RULES, history, now=NOW)
    assert any("quota" in v and "limit 3" in v for v in report.violations)


def test_dev_phase_daily_quota(corpus_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    today = [record(0) for _ in range(100)]
    report = validate_submission(manifest, manifest, DEVELOPMENT_RULES, today, now=NOW)
    assert any("daily quota" in v for v in report.violations)
    yesterday = [record(1) for _ in range(100)]
    assert validate_submission(manifest, manifest, DEVELOPMENT_RULES, yesterday, now=NOW).ok
    # a naive timestamp counts on the day it names
    naive = [SubmissionRecord(NOW.replace(tzinfo=None), "development", "d") for _ in range(100)]
    report = validate_submission(manifest, manifest, DEVELOPMENT_RULES, naive, now=NOW)
    assert any("daily quota" in v for v in report.violations)
    naive = [SubmissionRecord(rec.timestamp - timedelta(days=1), rec.phase, rec.digest) for rec in naive]
    assert validate_submission(manifest, manifest, DEVELOPMENT_RULES, naive, now=NOW).ok


def test_dev_phase_total_quota(corpus_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    spread = [record(days_ago=1 + i // 50) for i in range(3000)]
    report = validate_submission(manifest, manifest, DEVELOPMENT_RULES, spread, now=NOW)
    assert any("limit 3000" in v for v in report.violations)


def test_other_phase_records_do_not_count(corpus_writer):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    history = [record(i, phase="development") for i in range(10)]
    assert validate_submission(manifest, manifest, TEST_RULES, history, now=NOW).ok


# ---------------------------------------------------------------- cli


def run_cli(*argv: str) -> int:
    return main(list(argv))


def test_evaluate_help_names_each_input_by_its_flag(capsys):
    with pytest.raises(SystemExit):
        run_cli("evaluate", "--help")
    usage = " ".join(capsys.readouterr().out.split())
    assert ("[--pred PRED] [--ref REF] [--hyp HYP] [--backtranslate COMMAND] "
            "[--ref-text REF_TEXT] [--layout LAYOUT] [--no-normalize]") in usage


def test_synth_corpus_help_names_each_flag(capsys):
    with pytest.raises(SystemExit):
        run_cli("synth", "corpus", "--help")
    usage = " ".join(capsys.readouterr().out.split())
    assert usage.startswith("usage: slpeval synth corpus [-h] --count COUNT --frames FRAMES "
                            "[--amplitude AMPLITUDE] [--seed SEED] --out OUT [--layout LAYOUT] ")


#: names the benchmark's tracer still wraps although they are gone (ROADMAP item 10)
STALE_TRACER_SITES = {
    ("slpeval.cli", "submission_digest"),
    ("slpeval.cli", "dominance_matrix"),
    ("slpeval.harness", "corpus_pose_metrics"),
}


def test_benchmark_tracer_names_resolve(monkeypatch):
    # the tracer wraps each (module, name) where slpeval looks it up at call time;
    # a name that is gone reads 0 in every run instead of failing
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    sites = [(module, name) for module, name, _, _ in tracing.SITES]
    assert len(sites) > len(STALE_TRACER_SITES)
    for module, name in sites:
        if (module, name) not in STALE_TRACER_SITES:
            assert callable(getattr(importlib.import_module(module), name)), (module, name)


def write_hyp_from_manifest(manifest, path):
    rows = [line.split("\t") for line in manifest.read_text().splitlines()]
    path.write_text("".join(f"{r[0]}\t{r[2]}\n" for r in rows), encoding="utf-8")
    return path


@pytest.mark.parametrize("argv, usage, choices", [
    ([], "slpeval", "{evaluate,validate,rank,synth}"),
    (["synth"], "slpeval synth", "{corpus}"),
])
def test_a_missing_subcommand_is_named_by_its_choices(argv, usage, choices, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"{usage}: error: the following arguments are required: {choices}"
    )


def test_cli_synth_evaluate_round_trip(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert run_cli("synth", "corpus", "--count", "4", "--frames", "8",
                   "--seed", "3", "--out", str(corpus_dir)) == 0
    manifest = corpus_dir / "manifest.tsv"
    hyp = write_hyp_from_manifest(manifest, tmp_path / "hyp.tsv")
    out = tmp_path / "report.json"
    assert run_cli("evaluate", "--pred", str(manifest), "--ref", str(manifest),
                   "--hyp", str(hyp), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["pose"]["dtw_mje"] == 0.0
    assert doc["text"]["wer"]["rate"] == 0.0
    capsys.readouterr()


def test_cli_evaluate_table_to_stdout(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run_cli("synth", "corpus", "--count", "2", "--frames", "5", "--seed", "1",
            "--out", str(corpus_dir))
    manifest = corpus_dir / "manifest.tsv"
    capsys.readouterr()
    assert run_cli("evaluate", "--pred", str(manifest), "--ref", str(manifest),
                   "--format", "table") == 0
    out = capsys.readouterr().out
    assert "DTW-MJE" in out and "Total Distance" in out
    assert "0.0000" in out and "1.000" in out


def test_cli_evaluate_missing_file_is_usage_error(tmp_path, capsys):
    rc = run_cli("evaluate", "--pred", str(tmp_path / "nope.tsv"),
                 "--ref", str(tmp_path / "nope.tsv"))
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("hyp_sentence, message", [
    ("a", "empty reference corpus: no reference tokens"),
    ("", "empty corpora: no character n-grams on either side"),
], ids=["no-reference-tokens", "no-characters"])
@pytest.mark.parametrize("source, ref_text", [
    ("--ref-text", "a\t\n"),
    ("--ref", "a\tposes/a.pose\t \n"),
], ids=["ref-text", "manifest"])
def test_cli_names_the_source_of_blank_references(source, ref_text, hyp_sentence, message,
                                                  sentence_writer, tmp_path, capsys):
    hyp = sentence_writer([("a", hyp_sentence)], "hyp.tsv")
    ref = tmp_path / "ref.tsv"
    ref.write_text(ref_text, encoding="utf-8")
    assert run_cli("evaluate", "--hyp", str(hyp), source, str(ref)) == 2
    assert capsys.readouterr().err == f"error: {ref}: {message}\n"


def test_cli_validate_records_and_enforces_quota(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run_cli("synth", "corpus", "--count", "2", "--frames", "5", "--seed", "2",
            "--out", str(corpus_dir))
    manifest = corpus_dir / "manifest.tsv"
    history = tmp_path / "history.log"
    for i in range(3):
        rc = run_cli("validate", "--pred", str(manifest), "--ref", str(manifest),
                     "--phase", "test", "--history", str(history), "--record",
                     "--now", f"2026-03-0{i + 1}T10:00:00+00:00")
        assert rc == 0
    assert len(history.read_text().splitlines()) == 3
    rc = run_cli("validate", "--pred", str(manifest), "--ref", str(manifest),
                 "--phase", "test", "--history", str(history),
                 "--now", "2026-03-04T10:00:00+00:00")
    assert rc == 1
    out = capsys.readouterr().out
    assert "quota" in out
    # the rejected attempt must not have been recorded
    assert len(history.read_text().splitlines()) == 3
    with pytest.raises(SystemExit) as exited:
        run_cli("validate", "--pred", str(manifest), "--ref", str(manifest), "--phase", "test",
                "--history", str(history), "--record", "--now", "notatime")
    assert exited.value.code == 2
    assert "argument --now: invalid fromisoformat value: 'notatime'" in capsys.readouterr().err
    assert len(history.read_text().splitlines()) == 3


def test_cli_evaluate_with_backtranslate(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run_cli("synth", "corpus", "--count", "2", "--frames", "5", "--seed", "4",
            "--out", str(corpus_dir))
    manifest = corpus_dir / "manifest.tsv"
    ids = [line.split("\t")[0] for line in manifest.read_text().splitlines()]
    ref = tmp_path / "ref.tsv"
    ref.write_text("".join(f"{i}\tsign language pose {i}\n" for i in ids), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("evaluate", "--pred", str(manifest), "--ref", str(manifest),
                   "--backtranslate", hook_command(), "--ref-text", str(ref),
                   "--format", "table") == 0
    out = capsys.readouterr().out
    assert "100.00" in out and "0.0000" in out


def test_cli_validate_accepts_dev_phase(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run_cli("synth", "corpus", "--count", "2", "--frames", "5", "--seed", "2",
            "--out", str(corpus_dir))
    manifest = corpus_dir / "manifest.tsv"
    rc = run_cli("validate", "--pred", str(manifest), "--ref", str(manifest),
                 "--phase", "dev", "--history", str(tmp_path / "h.log"))
    assert rc == 0
    assert "submission valid" in capsys.readouterr().out


def test_cli_validate_reports_violations(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run_cli("synth", "corpus", "--count", "2", "--frames", "5", "--seed", "2",
            "--out", str(corpus_dir))
    manifest = corpus_dir / "manifest.tsv"
    pred = tmp_path / "pred.tsv"
    pred.write_text("seq0000\tmissing.pose\n", encoding="utf-8")
    rc = run_cli("validate", "--pred", str(pred), "--ref", str(manifest),
                 "--phase", "development", "--history", str(tmp_path / "h.log"))
    assert rc == 1
    out = capsys.readouterr().out
    missing = tmp_path / "missing.pose"
    assert "missing id" in out and f"cannot read {missing}: " in out
    assert out.count(str(missing)) == 1
    # evaluate reports an id mismatch first, so give it every id
    pred.write_text(f"seq0000\tmissing.pose\nseq0001\t{corpus_dir}/poses/seq0001.pose\n",
                    encoding="utf-8")
    assert run_cli("evaluate", "--pred", str(pred), "--ref", str(manifest)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {missing}: ") and err.count(str(missing)) == 1


def test_cli_rank_leaderboard(tmp_path, capsys):
    from conftest import LEADERBOARD

    scores = tmp_path / "scores.json"
    scores.write_text(
        json.dumps(
            [{"entrant": name, "metrics": metrics} for name, metrics in LEADERBOARD.items()]
        ),
        encoding="utf-8",
    )
    out = tmp_path / "ranking.json"
    assert run_cli("rank", "--scores", str(scores), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["fronts"] == [["reference", "team1"], ["team2", "team3", "baseline"]]
    capsys.readouterr()
    assert run_cli("rank", "--scores", str(scores), "--format", "table") == 0
    table = capsys.readouterr().out
    assert "1  reference" in table and "2  team2" in table


def test_cli_rank_rejects_bad_entries(tmp_path, capsys):
    from conftest import LEADERBOARD

    scores = tmp_path / "scores.json"
    twice = [{"entrant": "x", "metrics": LEADERBOARD["team1"]}] * 2
    for entries, message in (
        ([{"entrant": "x"}], f"{scores}: each entry needs an 'entrant' and a 'metrics' object"),
        ([{"entrant": "x", "metrics": 5}], f"{scores}: each entry needs"),
        ([], f"{scores}: score file lists no entries"),
        (twice, "duplicate entrant 'x'"),
    ):
        scores.write_text(json.dumps(entries), encoding="utf-8")
        assert run_cli("rank", "--scores", str(scores)) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


def test_cli_rank_refuses_an_empty_score_file_beside_others(tmp_path, capsys):
    from conftest import LEADERBOARD

    scores, empty = tmp_path / "scores.json", tmp_path / "empty.json"
    scores.write_text(json.dumps([{"entrant": "x", "metrics": LEADERBOARD["team1"]}]),
                      encoding="utf-8")
    empty.write_text("[]", encoding="utf-8")
    assert run_cli("rank", "--scores", str(scores), str(empty)) == 2
    assert capsys.readouterr().err == f"error: {empty}: score file lists no entries\n"


@pytest.mark.parametrize("entrant", [None, ["a"], "", 5], ids=["null", "list", "empty", "number"])
def test_cli_rank_refuses_an_entrant_that_is_not_a_name(tmp_path, capsys, entrant):
    from conftest import LEADERBOARD

    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps([{"entrant": entrant, "metrics": LEADERBOARD["team1"]}]),
                      encoding="utf-8")
    assert run_cli("rank", "--scores", str(scores)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scores}: entrant must be a non-empty string")


@pytest.mark.parametrize("breaker, refused", [
    ("\n", True), ("\r", True), ("\x85", True), ("\t", True), ("\u2028", True), ("\u2029", True),
    # unprintable, but none of them ends a line: format (Cf), space (Zs), private use (Co)
    # and unassigned (Cn) characters stay within the name's own table line
    ("\u200b", False), ("\u00a0", False), ("\ue000", False), ("\u0378", False),
], ids=["line-feed", "carriage-return", "next-line", "tab", "line-separator",
        "paragraph-separator", "zero-width-space-kept", "no-break-space-kept",
        "private-use-kept", "unassigned-kept"])
def test_cli_rank_refuses_an_entrant_that_breaks_a_line(tmp_path, capsys, breaker, refused):
    from conftest import LEADERBOARD

    # taken as a name, this one would print a forged front-1 line "1  winner" in the table
    entrant = f"worst{breaker}1  winner"
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps([
        {"entrant": "best", "metrics": dict(LEADERBOARD["team1"], **{"BLEU-1": 99.0})},
        {"entrant": entrant, "metrics": LEADERBOARD["team1"]},
    ]), encoding="utf-8")
    code = run_cli("rank", "--scores", str(scores), "--format", "table")
    captured = capsys.readouterr()
    if not refused:
        assert (code, captured.out, captured.err) == (0, f"1  best\n2  {entrant}\n", "")
        return
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {scores}: entrant {entrant!r} holds a control")


@pytest.mark.parametrize("format", ["structured", "table"])
def test_cli_rank_refuses_an_entrant_with_a_lone_surrogate(tmp_path, capsys, format):
    from conftest import LEADERBOARD

    # json.loads makes "\\ud800" a str that no UTF-8 output can hold
    scores = tmp_path / "scores.json"
    scores.write_text('[{"entrant": "team\\ud800", "metrics": %s}]' % json.dumps(
        LEADERBOARD["team1"]), encoding="utf-8")
    assert run_cli("rank", "--scores", str(scores), "--format", format) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {scores}: entrant 'team\\ud800' holds a control, line-break or surrogate\n"
    )


def test_cli_rank_ranks_a_team_named_none(tmp_path, capsys):
    from conftest import LEADERBOARD

    named = tmp_path / "named.json"
    named.write_text(json.dumps([{"entrant": "None", "metrics": LEADERBOARD["team1"]},
                                 {"entrant": "team2", "metrics": LEADERBOARD["team2"]}]),
                     encoding="utf-8")
    assert run_cli("rank", "--scores", str(named)) == 0
    assert json.loads(capsys.readouterr().out)["fronts"] == [["None", "team2"]]
    # a null entrant is refused in its own file, not taken for a second "None"
    unnamed = tmp_path / "unnamed.json"
    unnamed.write_text(json.dumps([{"entrant": None, "metrics": LEADERBOARD["team3"]}]),
                       encoding="utf-8")
    assert run_cli("rank", "--scores", str(named), str(unnamed)) == 2
    assert capsys.readouterr().err.startswith(f"error: {unnamed}: entrant must be")


def test_cli_reports_are_deterministic(tmp_path):
    corpus_dir = tmp_path / "corpus"
    run_cli("synth", "corpus", "--count", "3", "--frames", "6", "--seed", "9",
            "--out", str(corpus_dir))
    manifest = corpus_dir / "manifest.tsv"
    hyp = write_hyp_from_manifest(manifest, tmp_path / "hyp.tsv")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert run_cli("evaluate", "--pred", str(manifest), "--ref", str(manifest),
                       "--hyp", str(hyp), "--out", str(out)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_text_only_evaluate_reads_no_pose_files(corpus_writer, sentence_writer, capsys):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    for pose in (manifest.parent / "poses").iterdir():
        pose.unlink()
    hyp = sentence_writer(hyp_pairs(corpus), "hyp.tsv")
    assert run_cli("evaluate", "--hyp", str(hyp), "--ref", str(manifest)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["text"]["wer"]["rate"] == 0.0
    hasher = hashlib.sha256()
    for role, path in ((b"ref", manifest), (b"hyp", hyp)):
        data = path.read_bytes()
        hasher.update(role + len(data).to_bytes(8, "big") + data)
    hasher.update(b"normalize")
    assert report["provenance"]["input_digest"] == hasher.hexdigest()


@pytest.mark.parametrize("argv", [
    ["--pred", "{pred}", "--ref", "{ref}", "--hyp", "{hyp}", "--layout", "{layout}"],
    ["--pred", "{pred}", "--backtranslate", "{hook}", "--ref-text", "{ref_text}"],
    ["--hyp", "{hyp}", "--ref", "{ref}"],
], ids=["pose-text-layout", "backtranslate", "text"])
def test_pose_and_text_digest_follows_its_definition(argv, corpus_writer, sentence_writer,
                                                     tmp_path, monkeypatch, capsys):
    corpus = small_corpus()
    ref = corpus_writer(corpus, "ref")
    pred = corpus_writer(corpus[::-1], "pred")  # listed in the other order
    paths = {"pred": pred, "ref": ref, "hyp": sentence_writer(hyp_pairs(corpus), "hyp.tsv"),
             "ref_text": hook_references(corpus, sentence_writer), "layout": tmp_path / "layout"}
    paths["layout"].write_text("body 0 8\nface 8 128\nlhand 136 21\nrhand 157 21\n"
                               "neck 0\nlshoulder 1\nrshoulder 2\n", encoding="utf-8")
    labels = {path: name.replace("_", "-").encode() for name, path in paths.items()}
    for manifest in (pred, ref):  # each pose file is labelled by its entry id
        labels.update({file: file.stem.encode() for file in (manifest.parent / "poses").iterdir()})
    reads = []

    def recording_read(path):
        reads.append((Path(path), read_regular(path)))
        return reads[-1][1]

    monkeypatch.setattr(harness, "read_regular", recording_read)
    args = [arg.format(hook=hook_command(), **paths) for arg in argv]
    assert run_cli("evaluate", *args) == 0
    report = json.loads(capsys.readouterr().out)
    read_paths = [path for path, _ in reads]
    assert len(set(read_paths)) == len(read_paths)  # no input is read twice
    if "--ref" in argv and "--pred" in argv:  # pair by pair in reference order, prediction first
        assert [(labels[path], path.parents[1]) for path in read_paths[-2 * len(corpus):]] == [
            (seq.id.encode(), root) for seq, _ in corpus for root in (pred.parent, ref.parent)]
    hasher = hashlib.sha256()
    for path, data in reads:
        hasher.update(labels[path] + len(data).to_bytes(8, "big") + data)
    if "--backtranslate" in argv:
        command = args[argv.index("--backtranslate") + 1].encode()
        hasher.update(b"backtranslate" + len(command).to_bytes(8, "big") + command)
    hasher.update(b"normalize")
    assert report["provenance"]["input_digest"] == hasher.hexdigest()


def test_validate_digest_follows_its_definition(corpus_writer, tmp_path, monkeypatch):
    corpus = small_corpus()
    ref = corpus_writer(corpus, "ref")
    pred = corpus_writer(corpus[::-1], "pred")  # listed in the other order
    reads = []

    def recording_read(path):
        reads.append((Path(path), read_regular(path)))
        return reads[-1][1]

    monkeypatch.setattr(harness, "read_regular", recording_read)
    history = tmp_path / "h.log"
    argv = ["validate", "--pred", str(pred), "--ref", str(ref), "--phase", "dev",
            "--history", str(history), "--record"]
    assert run_captured(argv) == (0, "submission valid (recorded)\n", "")
    # the prediction manifest unlabelled, then its pose files by id in its own order
    pred_reads = [(path, data) for path, data in reads if pred.parent in path.parents]
    pred_files = [pred.parent / "poses" / f"{seq.id}.pose" for seq, _ in corpus[::-1]]
    assert [path for path, _ in pred_reads] == [pred, *pred_files]
    hasher = hashlib.sha256()
    for label, (_, data) in zip([b""] + [seq.id.encode() for seq, _ in corpus[::-1]], pred_reads):
        hasher.update(label + len(data).to_bytes(8, "big") + data)
    assert history.read_text(encoding="utf-8").split("\t")[-1] == hasher.hexdigest() + "\n"

    # the references are read and checked but not hashed: a valid change leaves the digest
    victim = ref.parent / "poses" / f"{corpus[0][0].id}.pose"
    before = victim.read_bytes()
    set_frames(victim, np.s_[-1, 140, 0], 0.25)
    assert victim.read_bytes() != before
    assert run_captured(argv) == (0, "submission valid (recorded)\n", "")
    first, second = history.read_text(encoding="utf-8").splitlines()
    assert second.split("\t")[-1] == first.split("\t")[-1] == hasher.hexdigest()


def test_evaluate_reports_an_id_mismatch_before_a_broken_pose_file(corpus_writer, capsys):
    corpus = small_corpus()
    ref, pred = corpus_writer(corpus, "ref"), corpus_writer(corpus, "pred")
    victim = pred.parent / "poses" / f"{corpus[0][0].id}.pose"
    victim.write_text("POSE v1 1 1 3\n0 nan 0\n", encoding="utf-8")
    with pred.open("a", encoding="utf-8") as manifest:
        manifest.write(f"extra\tposes/{corpus[1][0].id}.pose\n")
    assert run_cli("evaluate", "--pred", str(pred), "--ref", str(ref)) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {pred}: id set mismatch with reference manifest "
                   "(first offender 'extra')\n")


def test_non_utf8_pose_file_is_named(corpus_writer, tmp_path, capsys):
    corpus = small_corpus()
    ref = corpus_writer(corpus, "ref")
    pred = corpus_writer(corpus, "pred")
    victim = pred.parent / "poses" / f"{corpus[1][0].id}.pose"
    data = victim.read_bytes()
    at = data.index(b"\n") + 1  # past the header, so the position counts the whole file
    victim.write_bytes(data[:at] + b"\xff" + data[at:])
    problem = f"{victim}: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
    capsys.readouterr()
    assert run_cli("validate", "--pred", str(pred), "--ref", str(ref),
                   "--phase", "dev", "--history", str(tmp_path / "h.log")) == 1
    assert f"prediction {corpus[1][0].id!r}: {problem}\n" in capsys.readouterr().out
    assert run_cli("evaluate", "--pred", str(pred), "--ref", str(ref)) == 2
    assert capsys.readouterr().err == f"error: {problem}\n"


def set_frames(pose_path: Path, index, value) -> None:
    """Rewrite a pose file with ``frames[index] = value``."""
    frames = parse_pose_file(pose_path.read_bytes(), id="x").frames.copy()
    frames[index] = value
    pose_path.write_text(write_pose_file(PoseSequence(id="x", frames=frames)), encoding="utf-8")


def run_captured(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def synth_submission(root: Path) -> list[str]:
    """Write one small synth corpus as ``root/pred`` and ``root/ref``; returns their flags."""
    for name in ("pred", "ref"):
        synth = ["synth", "corpus", "--count", "3", "--frames", "4", "--out", str(root / name)]
        assert run_captured(synth)[0] == 0
    return ["--pred", str(root / "pred" / "manifest.tsv"),
            "--ref", str(root / "ref" / "manifest.tsv")]


def mutate_submission(mutation: str, root: Path, side: str, entry: int) -> Path:
    """Apply one fault to the ``side`` ("pred" or "ref") copy of a synth submission.

    Returns the file that a pose-file or empty-manifest fault must be named by.
    """
    manifest = root / side / "manifest.tsv"
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    victim = manifest.parent / lines[entry].split("\t")[1]
    text = victim.read_text(encoding="utf-8")
    if mutation.startswith("collinear"):  # neck, left and right shoulder of frame 0 on one line
        set_frames(victim, np.s_[0, :3], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        if mutation == "collinear-exponent":  # frame 0 spelt so that the line reader reads the file
            header, first, rest = victim.read_text(encoding="utf-8").split("\n", 2)
            first = " ".join(format(float(token), ".17e") for token in first.split())
            victim.write_text(f"{header}\n{first}\n{rest}", encoding="utf-8")
    elif mutation == "past-bound":
        set_frames(victim, np.s_[-1, -1, 1], np.nextafter(MAX_COORDINATE, np.inf))
    elif mutation in ("huge-integer", "inf-integer"):
        # a frame 0 does not show: past MAX_COORDINATE in 77 integer digits in a middle
        # frame, or in 400, which float() reads as inf, in the last frame
        lines = text.split("\n")
        row, token = (2, "1" + "0" * 76 + ".0") if mutation == "huge-integer" else (-2, "9" * 400 + ".0")
        lines[row] = token + lines[row][lines[row].index(" "):]
        victim.write_text("\n".join(lines), encoding="utf-8")
    elif mutation == "malformed-last-line":  # in a file longer than one block of the reader
        frames = parse_pose_file(text.encode(), id="x").frames
        frames = np.tile(frames, (pose._BLOCK // len(text) + 1, 1, 1))
        text = write_pose_file(PoseSequence(id="x", frames=frames))
        victim.write_text(text[: text.rindex(" ")] + " 0.5.5\n", encoding="utf-8")
    elif mutation == "nan":
        header, first, rest = text.split("\n", 2)
        first = "nan " + first.split(" ", 1)[1]
        victim.write_text(f"{header}\n{first}\n{rest}", encoding="utf-8")
    elif mutation == "point-count":
        frames = parse_pose_file(text.encode(), id="x").frames[:, :-1]
        victim.write_text(write_pose_file(PoseSequence(id="x", frames=frames)), encoding="utf-8")
    elif mutation == "missing-frame":
        victim.write_text(text[: text.rstrip("\n").rindex("\n") + 1], encoding="utf-8")
    elif mutation == "missing-file":
        victim.unlink()
    elif mutation == "non-utf8":
        victim.write_bytes(b"\xff" + victim.read_bytes())
    elif mutation.startswith("empty"):
        emptied = [root / "pred", root / "ref"] if mutation == "empty-both" else [root / "ref"]
        for directory in emptied:
            (directory / "manifest.tsv").write_bytes(b"")
        return emptied[0] / "manifest.tsv"
    elif mutation == "missing-id":
        manifest.write_text("".join(lines[:entry] + lines[entry + 1:]), encoding="utf-8")
    elif mutation == "unknown-id":
        extra = "extra\t" + lines[entry].split("\t", 1)[1]
        manifest.write_text("".join(lines) + extra, encoding="utf-8")
    elif mutation == "duplicate-id":
        manifest.write_text("".join(lines) + lines[entry], encoding="utf-8")
    else:
        assert mutation == "none"
    return victim


@pytest.mark.parametrize(
    "mutation, side",
    [("collinear", "pred"), ("collinear", "ref"), ("empty-ref", "ref"), ("empty-both", "pred"),
     ("past-bound", "pred")],
)
def test_unscorable_submission_is_refused_and_not_recorded(mutation, side, tmp_path):
    pair = synth_submission(tmp_path)
    named = mutate_submission(mutation, tmp_path, side, 1)
    history = tmp_path / "h.log"
    prior = format_record(record(1, phase="test")).encode()
    history.write_bytes(prior)
    code, out, err = run_captured(
        ["validate", *pair, "--phase", "test", "--history", str(history), "--record"]
    )
    assert code in (1, 2) and str(named) in out + err
    assert history.read_bytes() == prior
    code, _, err = run_captured(["evaluate", *pair])
    assert code == 2 and err.startswith(f"error: {named}: ")


def test_coordinates_at_the_bound_score_finite(corpus_writer):
    corpus = small_corpus(frames=5)
    frame_sign = (-1.0) ** np.arange(5)[:, None, None]
    base = np.random.default_rng(5).choice([-1.0, 1.0], size=(178, 3))
    base[:3] = [[-1.0, -1.0, -1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]]  # a non-flat torso
    extreme = [(PoseSequence(id=seq.id, frames=MAX_COORDINATE * base * frame_sign), sentence)
               for seq, sentence in corpus]
    normal, huge = corpus_writer(corpus, "normal"), corpus_writer(extreme, "huge")
    for pred, ref, normalize in ((huge, normal, True), (normal, huge, True), (huge, normal, False)):
        config = EvaluationConfig(pred_manifest=pred, ref_manifest=ref, normalize=normalize)
        score = evaluate(config).pose
        assert np.isfinite([score.dtw_mje, score.total_distance_ratio]).all()
        assert score.dtw_mje > 1e75


#: (kind of input file, a command line that reads it as {bad})
INPUT_FILE_ARGV = [
    ("manifest", ["evaluate", "--hyp", "{hyp}", "--ref", "{bad}"]),
    ("sentence", ["evaluate", "--hyp", "{bad}", "--ref", "{ref}"]),
    ("sentence", ["evaluate", "--hyp", "{hyp}", "--ref-text", "{bad}"]),
    ("layout", ["evaluate", "--pred", "{ref}", "--ref", "{ref}", "--layout", "{bad}"]),
    ("layout", ["validate", "--pred", "{ref}", "--ref", "{ref}", "--phase", "dev",
                "--history", "{history}", "--layout", "{bad}"]),
    ("layout", ["synth", "corpus", "--count", "1", "--frames", "2", "--out", "{out}",
                "--layout", "{bad}"]),
    ("history", ["validate", "--pred", "{ref}", "--ref", "{ref}", "--phase", "dev",
                 "--history", "{bad}"]),
    ("history", ["validate", "--pred", "{ref}", "--ref", "{ref}", "--phase", "dev",
                 "--history", "{bad}", "--record"]),
]


@pytest.mark.parametrize("kind, argv", INPUT_FILE_ARGV)
def test_non_utf8_input_file_is_named(kind, argv, corpus_writer, sentence_writer, tmp_path,
                                      capsys):
    corpus = small_corpus()
    ref = corpus_writer(corpus, "ref")
    hyp = sentence_writer(hyp_pairs(corpus), "hyp.tsv")
    good = {
        "manifest": ref.read_bytes(),
        "sentence": hyp.read_bytes(),
        "layout": b"body 0 1\nneck 0\nlshoulder 0\nrshoulder 0\n",
        "history": format_record(record()).encode(),
    }[kind]
    bad = tmp_path / f"bad-{kind}"
    bad.write_bytes(good[:3] + b"\xff" + good[3:])
    paths = {"ref": ref, "hyp": hyp, "bad": bad, "history": tmp_path / "h.log",
             "out": tmp_path / "out"}
    assert run_cli(*(arg.format(**paths) for arg in argv)) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: 'utf-8' codec can't decode")
    assert bad.read_bytes() == good[:3] + b"\xff" + good[3:]


#: kind of input file -> (a malformed file of that kind, its parse error)
MALFORMED_INPUT = {
    "layout": (b"body 0 1\nneck 0\nlshoulder 0\nrhand 1 x\n",
               "layout descriptor line 4: malformed entry 'rhand 1 x'"),
    "history": (b"yesterday\tdevelopment\tdeadbeef\n",
                "history line 1: bad timestamp 'yesterday'"),
    # in UTC it would fall in the year 10000, so it has no date to count by
    "history-utc": (b"9999-12-31T23:00:00-05:00\tdevelopment\tdeadbeef\n",
                    "history line 1: bad timestamp '9999-12-31T23:00:00-05:00'"),
}


@pytest.mark.parametrize("kind, argv", [
    (kind, argv) for kind in MALFORMED_INPUT for row_kind, argv in INPUT_FILE_ARGV
    if row_kind == kind.split("-")[0]
])
def test_malformed_input_file_is_named(kind, argv, corpus_writer, tmp_path, capsys):
    ref = corpus_writer(small_corpus(), "ref")
    data, message = MALFORMED_INPUT[kind]
    bad = tmp_path / f"bad-{kind}"
    bad.write_bytes(data)
    paths = {"ref": ref, "bad": bad, "history": tmp_path / "h.log", "out": tmp_path / "out"}
    assert run_cli(*(arg.format(**paths) for arg in argv)) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert bad.read_bytes() == data
    assert not paths["history"].exists() and not paths["out"].exists()


@pytest.mark.parametrize("phase, now", [
    ("dev", "0001-01-01T00:00:00+05:00"), ("test", "9999-12-31T23:00:00-05:00"),
])
def test_validate_refuses_a_now_outside_utc_dates(phase, now, tmp_path, capsys):
    pair = synth_submission(tmp_path)
    history = tmp_path / "h.log"
    assert run_cli("validate", *pair, "--phase", phase, "--history", str(history), "--record",
                   "--now", now) == 2
    assert capsys.readouterr().err == f"error: --now {now}: outside UTC's date range\n"
    assert not history.exists()


def cli_env() -> dict[str, str]:
    """The environment for a child ``python -m slpeval.cli`` that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(slpeval.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def test_concurrent_test_phase_submissions_record_only_one(tmp_path):
    # three processes, more than the cores of a small machine, race for the last slot
    corpus_dir = tmp_path / "corpus"
    run_cli("synth", "corpus", "--count", "30", "--frames", "40", "--seed", "2",
            "--out", str(corpus_dir))
    manifest = corpus_dir / "manifest.tsv"
    history = tmp_path / "history.log"
    prior = "".join(format_record(record(days, phase="test")) for days in (2, 1))
    history.write_text(prior, encoding="utf-8")
    argv = [sys.executable, "-m", "slpeval.cli", "validate", "--pred", str(manifest),
            "--ref", str(manifest), "--phase", "test", "--history", str(history), "--record",
            "--now", NOW.isoformat()]
    procs = [subprocess.Popen(argv, env=cli_env(), stdout=subprocess.PIPE, text=True)
             for _ in range(3)]
    results = []
    for proc in procs:
        out, _ = proc.communicate(timeout=120)
        results.append((proc.returncode, out))
    results.sort()
    assert [code for code, _ in results] == [0, 1, 1]
    assert results[0][1] == "submission valid (recorded)\n"
    assert all("submission quota exceeded: 3 prior test-phase" in out for _, out in results[1:])
    lines = history.read_text(encoding="utf-8").splitlines(keepends=True)
    assert "".join(lines[:2]) == prior and len(lines) == 3
    assert lines[2].startswith(f"{NOW.isoformat()}\ttest\t")


def test_record_ends_a_torn_last_record(tmp_path):
    pair = synth_submission(tmp_path)
    history = tmp_path / "h.log"
    argv = ["validate", *pair, "--phase", "dev", "--history", str(history), "--record",
            "--now", NOW.isoformat()]
    torn = format_record(record(1)).encode()[:-1]  # an append cut short of its newline
    history.write_bytes(torn)
    for _ in range(2):
        assert run_captured(argv)[:2] == (0, "submission valid (recorded)\n")
    data = history.read_bytes()
    assert data.startswith(torn + b"\n")
    assert len(load_history(data.decode())) == 3
    # a last record torn inside its fields is still refused, and the log left as it is
    malformed = torn[: torn.rindex(b"\t")]
    history.write_bytes(malformed)
    code, _, err = run_captured(argv)
    assert code == 2 and err.startswith(f"error: {history}: history line 1: expected 3")
    assert history.read_bytes() == malformed


def test_record_creates_a_missing_log_as_open_does(tmp_path):
    # a new log gets mode 0o666 & ~umask, not executable bits; an existing log keeps its mode
    pair = synth_submission(tmp_path)
    empty = tmp_path / "empty.tsv"
    empty.touch()
    fresh, refused, existing = tmp_path / "h.log", tmp_path / "h2.log", tmp_path / "h3.log"
    existing.touch()
    existing.chmod(0o600)
    record = ["--phase", "dev", "--record", "--now", NOW.isoformat()]
    previous = os.umask(0o022)
    try:
        for log in (fresh, existing):
            assert run_captured(["validate", *pair, "--history", str(log), *record])[0] == 0
        # the log is made before the submission is checked, so a refused one leaves it empty
        assert run_captured(["validate", "--pred", str(empty), "--ref", pair[3],
                             "--history", str(refused), *record])[0] != 0
    finally:
        os.umask(previous)
    assert [stat.S_IMODE(log.stat().st_mode) for log in (fresh, refused, existing)] == [
        0o644, 0o644, 0o600]
    assert refused.read_bytes() == b""
    assert len(load_history(fresh.read_text())) == len(load_history(existing.read_text())) == 1


def _limit_memory() -> None:
    # a read that never ends fails within the test's timeout instead of filling memory
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


def run_cli_process(argv: list[str]) -> subprocess.CompletedProcess:
    """``slpeval`` in a child process, under a timeout and a 2 GiB address-space limit."""
    return subprocess.run([sys.executable, "-m", "slpeval.cli", *argv], env=cli_env(),
                          capture_output=True, text=True, timeout=30, preexec_fn=_limit_memory)


def not_a_regular_file(kind: str, tmp_path: Path) -> Path:
    """A FIFO or a directory made in ``tmp_path``, or the ``/dev/zero`` device."""
    if kind == "device":
        return Path("/dev/zero")
    path = tmp_path / kind
    if kind == "fifo":
        os.mkfifo(path)
    else:
        path.mkdir()
    return path


@pytest.mark.parametrize("kind", ["fifo", "directory", "device"])
def test_pose_path_that_is_not_a_regular_file_is_refused(kind, tmp_path):
    pair = synth_submission(tmp_path)
    bad = not_a_regular_file(kind, tmp_path)
    manifest = tmp_path / "pred" / "manifest.tsv"
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    victim, _, sentence = lines[1].split("\t", 2)
    lines[1] = f"{victim}\t{bad}\t{sentence}"
    manifest.write_text("".join(lines), encoding="utf-8")
    proc = run_cli_process(["validate", *pair, "--phase", "dev", "--history", str(tmp_path / "h")])
    assert (proc.returncode, proc.stdout) == (
        1, f"prediction {victim!r}: cannot read {bad}: not a regular file\n")
    proc = run_cli_process(["evaluate", *pair])
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot read {bad}: not a regular file\n")


@pytest.mark.parametrize("argv, kind", [
    (["validate", "--pred", "{bad}", "--ref", "{ref}", "--phase", "dev", "--history", "{history}"],
     "fifo"),
    (["evaluate", "--pred", "{ref}", "--ref", "{bad}"], "fifo"),
    (["validate", "--pred", "{ref}", "--ref", "{ref}", "--phase", "dev", "--history", "{bad}"],
     "fifo"),
    (["validate", "--pred", "{ref}", "--ref", "{ref}", "--phase", "dev", "--history", "{bad}",
      "--record"], "fifo"),
    (["evaluate", "--pred", "{ref}", "--ref", "{bad}"], "missing"),
    (["validate", "--pred", "{ref}", "--ref", "{ref}", "--phase", "dev", "--history", "{bad}",
      "--record"], "missing"),
    (["evaluate", "--pred", "{ref}", "--ref", "{ref}", "--out", "{bad}"], "missing"),
], ids=["manifest-validate", "manifest-evaluate", "history", "history-record",
        "missing-ref", "history-record-missing-dir", "out-missing-dir"])
def test_fifo_manifest_or_history_is_refused(argv, kind, corpus_writer, tmp_path):
    # an OSError naming a file reads "error: <path>: <reason>", not Python's "[Errno n] ..."
    ref = corpus_writer(small_corpus(), "ref")
    if kind == "fifo":
        bad, reason = not_a_regular_file("fifo", tmp_path), "not a regular file"
    else:
        bad, reason = tmp_path / "absent" / "file", "No such file or directory"
    paths = {"ref": ref, "bad": bad, "history": tmp_path / "h.log"}
    proc = run_cli_process([arg.format(**paths) for arg in argv])
    assert proc.returncode == 2
    assert proc.stderr == f"error: {bad}: {reason}\n"
    assert not paths["history"].exists()
    assert kind == "fifo" or not bad.parent.exists()


@pytest.mark.parametrize("record", [False, True], ids=["dry-run", "record"])
@pytest.mark.parametrize("kind", ["missing", "symlink-loop", "not-a-directory"])
def test_history_is_empty_only_when_missing(kind, record, corpus_writer, tmp_path):
    # only a history that does not exist yet is empty: Path.exists() is False for the other two
    ref = corpus_writer(small_corpus(), "ref")
    history = tmp_path / "h.log"
    if kind == "symlink-loop":
        history.symlink_to(history)
    elif kind == "not-a-directory":
        (tmp_path / "plain").write_bytes(b"")
        history = tmp_path / "plain" / "h.log"
    argv = ["validate", "--pred", str(ref), "--ref", str(ref), "--phase", "dev",
            "--history", str(history), *["--record"] * record]
    reason = {"symlink-loop": "Too many levels of symbolic links",
              "not-a-directory": "Not a directory"}.get(kind)
    if reason is None:
        assert run_captured(argv) == (0, "submission valid (recorded)\n" if record
                                      else "submission valid\n", "")
        assert history.exists() == record
    else:
        assert run_captured(argv) == (2, "", f"error: {history}: {reason}\n")


def test_score_pair_calls_dtw_align_once_per_pair(corpus_writer):
    # the benchmark's tracer times DTW and counts its cells by wrapping this module attribute
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "ref")
    with mock.patch.object(pose_metrics, "dtw_align", wraps=pose_metrics.dtw_align) as spy:
        evaluate(EvaluationConfig(pred_manifest=manifest, ref_manifest=manifest))
    assert [call.args[0].id for call in spy.call_args_list] == [seq.id for seq, _ in corpus]


#: each sentence fault ``evaluate`` finds from the sentence files and manifests alone
SENTENCE_FAULTS = {
    "malformed-hyp": "sentence file line 1: expected 'id<TAB>sentence'",
    "empty-ref-text": "sentence file lists no entries",
    "no-ref-sentences": "manifest lacks reference sentences",
    "hyp-ids": "hypothesis ids do not match reference ids",
}


@pytest.mark.parametrize("fault", SENTENCE_FAULTS)
def test_evaluate_checks_the_sentences_before_any_dtw(corpus_writer, sentence_writer, capsys,
                                                       fault):
    corpus = small_corpus()
    ref, pred = corpus_writer(corpus, "ref"), corpus_writer(corpus, "pred")
    hyp = sentence_writer(hyp_pairs(corpus[1:] if fault == "hyp-ids" else corpus), "hyp.tsv")
    argv = ["evaluate", "--pred", str(pred), "--ref", str(ref), "--hyp", str(hyp)]
    if fault == "malformed-hyp":
        hyp.write_text("no tab\n", encoding="utf-8")
    elif fault == "empty-ref-text":
        argv += ["--ref-text", str(sentence_writer([], "ref.tsv"))]
    elif fault == "no-ref-sentences":
        ref.write_text("".join(f"{seq.id}\tposes/{seq.id}.pose\n" for seq, _ in corpus),
                       encoding="utf-8")
    with mock.patch.object(pose_metrics, "dtw_align", wraps=pose_metrics.dtw_align) as spy:
        assert run_cli(*argv) == 2
    assert spy.call_count == 0
    assert SENTENCE_FAULTS[fault] in capsys.readouterr().err


def test_backtranslation_rejects_malformed_pose_before_running(
    corpus_writer, sentence_writer, tmp_path
):
    corpus = small_corpus()
    manifest = corpus_writer(corpus, "pred")
    (manifest.parent / "poses" / f"{corpus[0][0].id}.pose").write_text("POSE v1\n")
    marker = tmp_path / "ran"
    config = EvaluationConfig(
        pred_manifest=manifest,
        backtranslate_command=hook_command(f"open({str(marker)!r}, 'w')"),
        reference_text=hook_references(corpus, sentence_writer),
    )
    with pytest.raises(EvaluationError, match="line 1: expected header"):
        evaluate(config)
    assert not marker.exists()


LINE_SEPARATOR_HOOK = (
    "import sys, pathlib\n"
    "for line in sys.stdin:\n"
    "    stem = pathlib.Path(line.strip()).stem\n"
    "    sys.stdout.buffer.write(f'sign\\u2028pose {stem}\\r\\n'.encode())\n"
)


def test_line_separator_survives_manifest_and_backtranslation(tmp_path, capsys):
    corpus = small_corpus()
    root = tmp_path / "corpus"
    (root / "poses").mkdir(parents=True)
    lines = []
    for seq, _ in corpus:
        pose_text = write_pose_file(seq).replace("\n", "\r\n")
        (root / "poses" / f"{seq.id}.pose").write_bytes(pose_text.encode())
        lines.append(f"{seq.id}\tposes/{seq.id}.pose\tsign\u2028pose {seq.id}\r\n")
    manifest = root / "manifest.tsv"
    manifest.write_bytes("".join(lines).encode())
    assert run_cli("evaluate", "--pred", str(manifest), "--ref", str(manifest),
                   "--backtranslate", hook_command(LINE_SEPARATOR_HOOK)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pose"]["dtw_mje"] == 0.0
    assert report["text"]["wer"]["rate"] == 0.0


@pytest.mark.parametrize("raw", ["null", "NaN", '"nan"', "true"])
def test_cli_rank_rejects_bad_metric_values(tmp_path, capsys, raw):
    from conftest import LEADERBOARD

    entries = [{"entrant": name, "metrics": m} for name, m in LEADERBOARD.items()]
    text = json.dumps(entries).replace('"Total Distance": 1.631', f'"Total Distance": {raw}')
    scores = tmp_path / "scores.json"
    scores.write_text(text, encoding="utf-8")
    assert run_cli("rank", "--scores", str(scores)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scores}: score vector for 'team1': metric 'Total Distance'")


@pytest.mark.parametrize(
    "data, message",
    [
        (b'[{"entrant": "caf\xe9"}]', "'utf-8' codec can't decode byte 0xe9"),
        (b'[{"entrant": "x", "metrics":\n', "Expecting value: line 2 column 1"),
        (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
    ],
    ids=["non-utf8", "truncated", "deeply-nested"],
)
def test_cli_rank_names_unreadable_score_file(tmp_path, capsys, data, message):
    scores = tmp_path / "scores.json"
    scores.write_bytes(data)
    assert run_cli("rank", "--scores", str(scores)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scores}: ")
    assert message in err


@pytest.mark.parametrize(
    "flag, value",
    [("--amplitude", "nan"), ("--amplitude", "inf")],
)
def test_cli_synth_rejects_non_finite_parameters(tmp_path, capsys, flag, value):
    out = tmp_path / "corpus"
    assert run_cli("synth", "corpus", "--count", "2", "--frames", "4", f"{flag}={value}",
                   "--out", str(out)) == 2
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_synth_has_no_frequency(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("synth", "corpus", "--count", "2", "--frames", "4", "--frequency", "2",
                "--out", str(tmp_path / "corpus"))
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --frequency 2" in capsys.readouterr().err


def test_cli_synth_names_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert run_cli("synth", "corpus", "--count", "2", "--frames", "4", "--seed", "-1",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--count", "1", "--frames", "100000000000000000"],  # the frame times
    ["--count", "100000000000000000", "--frames", "2"],  # the corpus seed's states
    ["--count", "1", "--frames", "2", "--layout", "{layout}"],  # the rest pose
], ids=["frames", "count", "layout"])
def test_cli_synth_names_a_size_it_cannot_allocate(argv, tmp_path):
    # each array is far above 2**47 bytes, which no platform maps, whatever its overcommit rule
    layout = tmp_path / "huge.layout"
    layout.write_text("body 0 8\nface 8 128\nlhand 136 21\nrhand 157 1000000000000000\n"
                      "neck 0\nlshoulder 1\nrshoulder 2\n", encoding="utf-8")
    out = tmp_path / "corpus"
    done = run_cli_process(["synth", "corpus", *(arg.format(layout=layout) for arg in argv),
                            "--out", str(out)])
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert re.fullmatch(r"error: Unable to allocate [^\n]+\n", done.stderr), done.stderr
    assert not out.exists()


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(SENTENCE_TEXT, SENTENCE_TEXT), max_size=5), extra=st.booleans())
def test_cli_text_evaluate_never_crashes_on_any_unicode(pairs, extra):
    hyps = [hyp for hyp, _ in pairs] + ["unpaired"] * extra
    refs = [ref for _, ref in pairs]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, sentences in (("hyp.tsv", hyps), ("ref.tsv", refs)):
            path = Path(tmp) / name
            path.write_bytes("".join(f"s{i}\t{s}\n" for i, s in enumerate(sentences)).encode())
            paths.append(str(path))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["evaluate", "--hyp", paths[0], "--ref-text", paths[1]])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["text"] is not None
    else:
        assert err.getvalue().startswith("error: ")


@settings(max_examples=120, deadline=None)
@given(
    mutation=st.sampled_from(["none", "collinear", "collinear-exponent", "empty-ref",
                              "empty-both", "past-bound", "nan", "point-count", "missing-frame",
                              "missing-file", "non-utf8", "missing-id", "unknown-id",
                              "duplicate-id", "huge-integer", "inf-integer",
                              "malformed-last-line"]),
    side=st.sampled_from(["pred", "ref"]),
    entry=st.integers(0, 2),
)
@example(mutation="huge-integer", side="pred", entry=1)
@example(mutation="inf-integer", side="ref", entry=2)
@example(mutation="malformed-last-line", side="pred", entry=0)
@example(mutation="collinear-exponent", side="pred", entry=0)
@example(mutation="collinear-exponent", side="ref", entry=1)
def test_validate_and_evaluate_agree(mutation, side, entry):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        pair = synth_submission(root)
        mutate_submission(mutation, root, side, entry)
        history = root / "history.tsv"
        prior = format_record(record(1)).encode()
        history.write_bytes(prior)
        validated, _, validate_err = run_captured(
            ["validate", *pair, "--phase", "dev", "--history", str(history), "--record"]
        )
        evaluated, _, evaluate_err = run_captured(["evaluate", *pair])
        logged = history.read_bytes()
    assert validated in (0, 1, 2) and evaluated in (0, 1, 2)
    assert "Traceback" not in validate_err + evaluate_err
    assert (validated == 0) == (evaluated == 0)
    assert (mutation == "none") == (evaluated == 0)
    if validated == 0:
        assert logged.startswith(prior) and logged.count(b"\n") == 2
    else:
        assert logged == prior


def test_evaluate_and_validate_hold_one_pair_at_a_time(tmp_path):
    run_cli("synth", "corpus", "--count", "32", "--frames", "120", "--out", str(tmp_path))
    full = tmp_path / "manifest.tsv"
    first = tmp_path / "first.tsv"
    first.write_text(full.read_text(encoding="utf-8").splitlines(True)[0], encoding="utf-8")
    one_sequence = 120 * 178 * 3 * 8
    for run in (
        lambda m: evaluate(EvaluationConfig(pred_manifest=m, ref_manifest=m)),
        lambda m: validate_submission(m, m, DEVELOPMENT_RULES, [], now=NOW),
    ):
        # no pair outlives its score: 32 entries cost what one does, bar their manifest lines
        growth = traced_peak(lambda: run(full)) - traced_peak(lambda: run(first))
        assert growth <= one_sequence / 4, growth / one_sequence


def test_evaluate_holds_no_decoded_copy_of_a_pose_file(corpus_writer):
    # one long pair: while the prediction is parsed, its bytes and its frames are alive beside
    # the normalized reference, and a decoded str of the file would take as much again
    pred_seq = synth_sequence(SynthSpec(frame_count=1500, seed=1), id="long")
    ref_seq = synth_sequence(SynthSpec(frame_count=1200, seed=2), id="long")
    pred, ref = corpus_writer([(pred_seq, "a")], "pred"), corpus_writer([(ref_seq, "a")], "ref")
    size = (pred.parent / "poses" / "long.pose").stat().st_size
    peak = traced_peak(lambda: evaluate(EvaluationConfig(pred_manifest=pred, ref_manifest=ref)))
    assert peak < size + 2 * pred_seq.frames.nbytes, (peak, size)


def test_validate_builds_no_frames_array(corpus_writer):
    # validate checks every line of both files but converts only frame 0, so beside the
    # bytes of the file being read it holds one block's scratch, not the file's frames
    pred_seq = synth_sequence(SynthSpec(frame_count=1500, seed=1), id="long")
    ref_seq = synth_sequence(SynthSpec(frame_count=1500, seed=2), id="long")
    pred, ref = corpus_writer([(pred_seq, "a")], "pred"), corpus_writer([(ref_seq, "a")], "ref")
    size = max((m.parent / "poses" / "long.pose").stat().st_size for m in (pred, ref))
    report = []
    peak = traced_peak(
        lambda: report.append(validate_submission(pred, ref, DEVELOPMENT_RULES, [], now=NOW)))
    assert report[0].violations == ()
    assert peak < size + pred_seq.frames.nbytes / 2, (peak, size)


def test_synth_corpus_holds_one_sequence_at_a_time(tmp_path, capsys):
    def run(count: int) -> None:
        assert run_cli("synth", "corpus", "--count", str(count), "--frames", "40",
                       "--out", str(tmp_path / str(count))) == 0

    assert traced_peak(lambda: run(32)) - traced_peak(lambda: run(8)) <= 40 * 178 * 3 * 8


def test_validate_folds_each_files_coordinate_faults(corpus_writer):
    corpus = small_corpus()
    ref, pred = corpus_writer(corpus, "ref"), corpus_writer(corpus, "pred")
    victim = pred.parent / "poses" / f"{corpus[1][0].id}.pose"
    # every hand keypoint of all six frames
    set_frames(victim, np.s_[:, 136:], np.nextafter(MAX_COORDINATE, np.inf))
    report = validate_submission(pred, ref, DEVELOPMENT_RULES, [], now=NOW)
    assert report.violations == (
        f"prediction {corpus[1][0].id!r}: {victim}: out-of-range coordinate at frame 0, "
        f"keypoint 136 (|x| > 1e+75), and {6 * 42 - 1} more",
    )


@pytest.mark.parametrize(
    "kind, argv, message",
    [
        ("manifest", ["validate", "--pred", "{bad}", "--ref", "{ref}", "--phase", "dev",
                      "--history", "{history}"], "duplicate id 'a' in manifest"),
        ("manifest", ["evaluate", "--pred", "{ref}", "--ref", "{bad}"],
         "duplicate id 'a' in manifest"),
        ("manifest", ["evaluate", "--hyp", "{hyp}", "--ref", "{bad}"],
         "duplicate id 'a' in manifest"),
        ("sentence", ["evaluate", "--hyp", "{bad}", "--ref", "{ref}"],
         "sentence file line 2: expected 'id<TAB>sentence'"),
        ("sentence", ["evaluate", "--hyp", "{hyp}", "--ref-text", "{bad}"],
         "sentence file line 2: expected 'id<TAB>sentence'"),
        ("empty", ["evaluate", "--hyp", "{bad}", "--ref-text", "{bad}"],
         "sentence file lists no entries"),
        ("empty", ["evaluate", "--hyp", "{hyp}", "--ref", "{bad}"], "manifest lists no entries"),
        ("empty", ["evaluate", "--pred", "{bad}", "--ref", "{ref}", "--hyp", "{hyp}",
                   "--ref-text", "{hyp}"], "manifest lists no entries"),
    ],
)
def test_manifest_and_sentence_file_errors_name_the_file(kind, argv, message, corpus_writer,
                                                        sentence_writer, tmp_path, capsys):
    corpus = small_corpus()
    ref = corpus_writer(corpus, "ref")
    hyp = sentence_writer(hyp_pairs(corpus), "hyp.tsv")
    bad = tmp_path / f"bad-{kind}"
    bad.write_text({"manifest": "a\tx.pose\na\ty.pose\n", "sentence": "a\tone\nno tab\n",
                    "empty": "\n"}[kind], encoding="utf-8")
    paths = {"ref": ref, "hyp": hyp, "bad": bad, "history": tmp_path / "h.log"}
    assert run_cli(*(arg.format(**paths) for arg in argv)) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")


PREDICTION_WITHOUT_REFERENCES = ("a prediction manifest needs a reference manifest (--ref) "
                                 "or a back-translation command (--backtranslate)")


@pytest.mark.parametrize("argv, message", [
    (["--pred", "{bogus}", "--hyp", "{hyp}", "--ref-text", "{ref_text}"],
     PREDICTION_WITHOUT_REFERENCES),
    (["--pred", "{bogus}", "--hyp", "{hyp}", "--layout", "{layout}"], PREDICTION_WITHOUT_REFERENCES),
    (["--pred", "{bogus}", "--ref", "{bogus}", "--ref-text", "{ref_text}"],
     "reference sentences (--ref-text) need hypotheses (--hyp or --backtranslate)"),
    (["--hyp", "{hyp}", "--ref-text", "{ref_text}", "--layout", "{layout}"],
     "a keypoint layout (--layout) needs pose files (--pred)"),
    (["--hyp", "{hyp}", "--ref-text", "{ref_text}", "--no-normalize"],
     "--no-normalize needs pose inputs (--pred and --ref)"),
], ids=["ref-text", "layout", "ref-text-without-hypotheses", "layout-without-poses",
        "no-normalize-without-poses"])
def test_evaluate_refuses_an_input_that_feeds_no_score(argv, message, tmp_path, monkeypatch):
    reads = []
    monkeypatch.setattr(harness, "read_regular", reads.append)
    names = {name: tmp_path / name for name in ("bogus", "hyp", "ref_text", "layout")}
    assert run_captured(["evaluate", *(arg.format(**names) for arg in argv)]) == (
        2, "", f"error: {message}\n")
    assert reads == []


#: the seven entries of a descriptor of the default layout
DEFAULT_LAYOUT_LINES = ["body 0 8", "face 8 128", "lhand 136 21", "rhand 157 21", "neck 0",
                        "lshoulder 1", "rshoulder 2"]


@pytest.mark.parametrize("line", DEFAULT_LAYOUT_LINES)
def test_evaluate_refuses_a_layout_that_repeats_an_entry(line, corpus_writer, tmp_path, capsys):
    ref = corpus_writer(small_corpus(), "ref")
    layout = tmp_path / "layout"
    layout.write_text("\n".join(DEFAULT_LAYOUT_LINES + [line]) + "\n", encoding="utf-8")
    assert run_cli("evaluate", "--pred", str(ref), "--ref", str(ref), "--layout", str(layout)) == 2
    assert capsys.readouterr().err == (
        f"error: {layout}: layout descriptor line 8: duplicate entry {line.split()[0]!r}\n")


def test_cli_synth_amplitude_keeps_coordinates_in_range(tmp_path, capsys):
    too_far = tmp_path / "too-far"
    assert run_cli("synth", "corpus", "--count", "2", "--frames", "4", "--amplitude", "1e200",
                   "--out", str(too_far)) == 2
    assert "amplitude must be at most 1e+75" in capsys.readouterr().err
    assert not too_far.exists()
    at_bound = tmp_path / "at-bound"
    assert run_cli("synth", "corpus", "--count", "2", "--frames", "4", "--amplitude", "1e75",
                   "--out", str(at_bound)) == 0
    manifest = str(at_bound / "manifest.tsv")
    assert run_cli("validate", "--pred", manifest, "--ref", manifest, "--phase", "dev",
                   "--history", str(tmp_path / "h.log")) == 0


#: a property that fails, then a test that passes
FAILING_PROPERTY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_a_falsified_property_fails_only_its_own_test(tmp_path):
    # reporting a falsifying example imports modules that warn on import; under the
    # project's warning filters the session must still run every test
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "-p", "no:cacheprovider",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 1, proc.stdout[-3000:]
    assert "1 failed, 1 passed" in proc.stdout
