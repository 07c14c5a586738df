"""Evaluation harness: end-to-end runs, submission validation, and reports.

This module owns the file-level orchestration. ``evaluate`` turns manifests
and sentence files into a :class:`MetricReport`; ``render_report`` turns a
report into structured JSON, a leaderboard-style table, or CSV;
``validate_submission`` checks a submission against the reference manifest
and the phase quota rules.

Reports are deterministic: provenance carries the tool version, a config
echo, and a digest of the input bytes instead of a wall-clock timestamp, so
evaluating the same inputs twice yields byte-identical structured output.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import signal
import subprocess
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .manifest import (
    ManifestEntry,
    load_manifest,
    load_sentence_file,
    read_input,
    read_regular,
    split_lines,
)
from .pose import (
    DEFAULT_LAYOUT,
    KeypointLayout,
    normalize_sequence,
    parse_layout,
    parse_pose_file,
    validate_sequence,
)
from .pose_metrics import PoseScore, aggregate_pairs, score_pair
from .ranking import METRICS, Metric
from .text_metrics import (
    TextScore,
    TokenizedCorpus,
    length_error_correlation,
    text_scores,
    top_error_words,
)

__all__ = [
    "DEVELOPMENT_RULES",
    "TEST_RULES",
    "EvaluationConfig",
    "EvaluationError",
    "MetricReport",
    "PhaseRules",
    "ReportDiagnostics",
    "SubmissionRecord",
    "ValidationReport",
    "evaluate",
    "format_record",
    "load_history",
    "render_report",
    "run_backtranslation",
    "validate_submission",
]

TOP_ERROR_WORD_COUNT = 10
BACKTRANSLATION_TIMEOUT_S = 3600  # seconds a back-translation command may run


class EvaluationError(RuntimeError):
    """A hard failure while evaluating; the message names the offending file."""


@dataclass(frozen=True)
class PhaseRules:
    """Submission quota for one challenge phase."""

    phase: str
    max_per_day: int | None
    max_total: int


DEVELOPMENT_RULES = PhaseRules(phase="development", max_per_day=100, max_total=3000)
TEST_RULES = PhaseRules(phase="test", max_per_day=None, max_total=3)


@dataclass(frozen=True)
class SubmissionRecord:
    timestamp: datetime
    phase: str
    digest: str


def load_history(text: str) -> list[SubmissionRecord]:
    """Parse the append-only submission log: ``iso-timestamp<TAB>phase<TAB>digest``."""
    records = []
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"history line {lineno}: expected 3 tab-separated fields, got {line!r}")
        try:  # a stamp must also have a UTC date, which the daily quota counts by
            stamp = datetime.fromisoformat(parts[0])
            _utc_date(stamp)
        except (ValueError, OverflowError):
            raise ValueError(f"history line {lineno}: bad timestamp {parts[0]!r}") from None
        records.append(SubmissionRecord(timestamp=stamp, phase=parts[1], digest=parts[2]))
    return records


def format_record(record: SubmissionRecord) -> str:
    return f"{record.timestamp.isoformat()}\t{record.phase}\t{record.digest}\n"


@dataclass(frozen=True)
class ValidationReport:
    """Quota and file violations, and the digest ``--record`` logs."""

    violations: tuple[str, ...]
    digest: str

    @property
    def ok(self) -> bool:
        return not self.violations


def _utc_date(stamp: datetime):
    if stamp.tzinfo is None:
        return stamp.date()
    return stamp.astimezone(timezone.utc).date()


def _quota_violations(
    rules: PhaseRules, history: list[SubmissionRecord], now: datetime
) -> list[str]:
    same_phase = [rec for rec in history if rec.phase == rules.phase]
    violations = []
    if len(same_phase) >= rules.max_total:
        violations.append(
            f"submission quota exceeded: {len(same_phase)} prior {rules.phase}-phase "
            f"submissions, limit {rules.max_total}"
        )
    if rules.max_per_day is not None:
        today = _utc_date(now)
        todays = [rec for rec in same_phase if _utc_date(rec.timestamp) == today]
        if len(todays) >= rules.max_per_day:
            violations.append(
                f"daily quota exceeded: {len(todays)} {rules.phase}-phase submissions "
                f"on {today.isoformat()}, limit {rules.max_per_day}"
            )
    return violations


def _digest_bytes(hasher, label: bytes, data: bytes) -> None:
    hasher.update(label)
    hasher.update(len(data).to_bytes(8, "big"))
    hasher.update(data)


def _read_bytes(path: Path, hasher, label: bytes = b"") -> bytes:
    data = read_regular(path)
    _digest_bytes(hasher, label, data)
    return data


def _read_parsed(path: Path, parse, hasher, label: bytes = b""):
    return read_input(path, parse, _read_bytes(path, hasher, label))


def _load_pose(manifest_path, entry: ManifestEntry, layout: KeypointLayout, hasher, prepare,
               first: int | None = None):
    """Read, digest, parse and validate one entry's pose file, then ``prepare`` the sequence.

    ``hasher`` receives the entry id, the file's length and its bytes, which
    :func:`parse_pose_file` then reads as strict UTF-8.
    Returns ``prepare(sequence)``, or the sequence when ``prepare`` is None;
    with ``first``, the sequence may hold only its first frames, as
    :func:`parse_pose_file` says, and its problem is the whole file's.
    A file that cannot be read, decoded, parsed, validated or prepared
    raises :class:`EvaluationError` with one line naming the file and its problem.
    """
    path = where = Path(manifest_path).parent / entry.pose_path
    try:
        # parsed from the bytes as read, and freed before the sequence is validated
        seq = parse_pose_file(_read_bytes(path, hasher, entry.id.encode()), id=entry.id,
                              layout=layout, first=first)
        problem = validate_sequence(seq)
        if problem is None:
            return seq if prepare is None else prepare(seq)
    except OSError as err:  # its own text repeats the path
        where, problem = f"cannot read {path}", err.strerror or err
    except ValueError as err:
        problem = err
    raise EvaluationError(f"{where}: {problem}")


def _id_coverage(ref_ids, pred_ids) -> tuple[list[str], list[str]]:
    """The ids ``pred_ids`` lacks and the ones it adds to ``ref_ids``, each in file order."""
    ref_set, pred_set = set(ref_ids), set(pred_ids)
    return [i for i in ref_ids if i not in pred_set], [i for i in pred_ids if i not in ref_set]


def _require_same_ids(ref_ids, pred_ids, mismatch: str) -> None:
    missing, extra = _id_coverage(ref_ids, pred_ids)
    if missing or extra:
        raise EvaluationError(f"{mismatch} (first offender {(missing + extra)[0]!r})")


def validate_submission(
    pred_manifest_path: Path,
    ref_manifest_path: Path,
    rules: PhaseRules,
    history: list[SubmissionRecord],
    now: datetime,
    layout: KeypointLayout = DEFAULT_LAYOUT,
) -> ValidationReport:
    """Check id coverage, pose file health, and submission quotas.

    Each side's pose files are checked one at a time, and none is kept.
    Violations are data, not exceptions; the submission log is never
    mutated here (recording an accepted submission is the caller's append).
    """
    hasher = hashlib.sha256()
    manifests, problems = [], []
    for role, path, role_hasher in (
        ("prediction", pred_manifest_path, hasher),
        # the digest covers the prediction side alone, so the reference bytes are not hashed
        ("reference", ref_manifest_path, SimpleNamespace(update=lambda data: None)),
    ):
        manifests.append(_read_parsed(path, load_manifest, role_hasher))
        for entry in manifests[-1].values():
            try:  # prepared as scoring prepares it: frame 0 alone, if the exact reader takes it
                _load_pose(path, entry, layout, role_hasher, normalize_sequence, first=1)
            except EvaluationError as err:
                problems.append(f"{role} {entry.id!r}: {err}")

    missing, extra = _id_coverage(manifests[1], manifests[0])
    violations = [f"prediction missing id {i!r}" for i in missing]
    violations.extend(f"prediction has unknown id {i!r}" for i in extra)
    violations.extend(problems)
    violations.extend(_quota_violations(rules, history, now))
    return ValidationReport(violations=tuple(violations), digest=hasher.hexdigest())


@dataclass(frozen=True)
class EvaluationConfig:
    """Inputs of one evaluation run; at least one metric family must be fed."""

    pred_manifest: Path | None = None
    ref_manifest: Path | None = None
    hypothesis_file: Path | None = None
    backtranslate_command: str | None = None
    reference_text: Path | None = None
    layout_file: Path | None = None
    normalize: bool = True

    def __post_init__(self) -> None:
        has_pose = self.pred_manifest is not None and self.ref_manifest is not None
        has_text = self.hypothesis_file is not None or self.backtranslate_command is not None
        if not has_pose and not has_text:
            raise ValueError(
                "evaluation needs pose inputs (--pred and --ref) or text inputs (--hyp)"
            )
        if not has_pose and self.pred_manifest is not None and self.backtranslate_command is None:
            raise ValueError("a prediction manifest needs a reference manifest (--ref) "
                             "or a back-translation command (--backtranslate)")
        # an input that would be read and hashed but feed no score is refused
        if self.reference_text is not None and not has_text:
            raise ValueError("reference sentences (--ref-text) need hypotheses (--hyp or --backtranslate)")
        if self.layout_file is not None and self.pred_manifest is None:
            raise ValueError("a keypoint layout (--layout) needs pose files (--pred)")
        if not self.normalize and not has_pose:
            raise ValueError("--no-normalize needs pose inputs (--pred and --ref)")
        if self.hypothesis_file is not None and self.backtranslate_command is not None:
            raise ValueError(
                "pass either a hypothesis file or a back-translation command, not both"
            )
        if self.backtranslate_command is not None and self.pred_manifest is None:
            raise ValueError("back-translation needs a prediction manifest to supply pose files")


@dataclass(frozen=True)
class ReportDiagnostics:
    duration_ratio: float | None
    length_error_correlation: float | None
    top_error_words: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class MetricReport:
    pose: PoseScore | None
    text: TextScore | None
    diagnostics: ReportDiagnostics
    provenance: dict

    def metric_values(self) -> list[tuple[Metric, float | None]]:
        """(registry metric, value) for each metric this report scored, in table order."""
        scores = {"pose": self.pose, "text": self.text}
        return [
            (metric, metric.value(scores[metric.family]))
            for metric in METRICS
            if scores[metric.family] is not None
        ]

    def to_dict(self) -> dict:
        doc: dict = {"provenance": self.provenance}
        for metric, value in self.metric_values():
            doc.setdefault(metric.family, {})[metric.key] = value
        if self.pose is not None:
            doc["pose"]["excluded_ids"] = list(self.pose.excluded_ids)
        if self.text is not None:
            # the report nests WER's edit counts under its key
            doc["text"]["wer"] = {
                "rate": self.text.wer.rate,
                "substitutions": self.text.wer.substitutions,
                "deletions": self.text.wer.deletions,
                "insertions": self.text.wer.insertions,
                "ref_tokens": self.text.wer.ref_tokens,
            }
        doc["diagnostics"] = {
            "duration_ratio": self.diagnostics.duration_ratio,
            "length_error_correlation": self.diagnostics.length_error_correlation,
            "top_error_words": [[word, count] for word, count in self.diagnostics.top_error_words],
            "excluded_sequences": list(self.pose.excluded_ids) if self.pose is not None else [],
        }
        return doc


def run_backtranslation(command: str, pose_paths: list[Path]) -> list[str]:
    """Run a user-supplied pose-to-text command over a list of pose files.

    Line protocol (UTF-8): the command receives one pose file path per stdin
    line and must emit exactly one sentence per ``\\n``-terminated line on
    stdout, in the same order; one trailing ``\\r`` per line is dropped.
    """
    argv = shlex.split(command)
    if not argv:
        raise EvaluationError("back-translation command is empty")
    payload = "".join(f"{path}\n" for path in pose_paths).encode("utf-8")
    try:  # in its own session, so that a timeout can kill everything it started
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
    except OSError as err:
        raise EvaluationError(f"back-translation command failed to start: {err}") from err
    with proc:
        try:
            stdout, stderr = proc.communicate(payload, timeout=BACKTRANSLATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # leaving the with block reaps the command
            raise EvaluationError(
                f"back-translation command timed out after {BACKTRANSLATION_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        detail = stderr.decode("utf-8", "replace").strip().splitlines()
        suffix = f": {detail[0]}" if detail else ""
        raise EvaluationError(
            f"back-translation command exited with status {proc.returncode}{suffix}"
        )
    sentences = read_input("back-translation output", split_lines, stdout)
    if len(sentences) != len(pose_paths):
        raise EvaluationError(
            f"back-translation produced {len(sentences)} sentences "
            f"for {len(pose_paths)} pose files"
        )
    return sentences


def evaluate(config: EvaluationConfig) -> MetricReport:
    """Run every metric the config provides inputs for.

    Pose metrics need both manifests; text metrics need hypothesis sentences
    (a file, or a back-translation command run over the prediction pose
    files) plus reference sentences (from ``reference_text`` or the
    reference manifest's third field). Pose files are read only when poses
    are scored or back-translated, after the ids and sentences are checked:
    pair by pair in reference-manifest order, prediction first. Each input
    file is read once and hashed into ``input_digest`` as it is read. The
    first failure aborts the run, naming its file.
    """
    hasher = hashlib.sha256()
    layout = DEFAULT_LAYOUT
    if config.layout_file is not None:
        layout = _read_parsed(config.layout_file, parse_layout, hasher, b"layout")
    score_poses = config.pred_manifest is not None and config.ref_manifest is not None

    manifests: dict[str, dict[str, ManifestEntry]] = {}
    for role, path in (("pred", config.pred_manifest), ("ref", config.ref_manifest)):
        if path is not None:
            manifests[role] = _read_parsed(path, load_manifest, hasher, role.encode())
    if score_poses:
        _require_same_ids(manifests["ref"], manifests["pred"],
                          f"{config.pred_manifest}: id set mismatch with reference manifest")

    # the sentence files are read and checked before any pose file
    hyp_map, ref_map = None, None
    if config.hypothesis_file is not None:
        hyp_map = _read_parsed(config.hypothesis_file, load_sentence_file, hasher, b"hyp")
    if config.reference_text is not None:
        ref_map = _read_parsed(config.reference_text, load_sentence_file, hasher, b"ref-text")
    score_text = hyp_map is not None or config.backtranslate_command is not None
    if score_text:
        text_source = config.hypothesis_file or config.pred_manifest
        if ref_map is None and "ref" in manifests:
            ref_manifest = manifests["ref"]
            ref_map = {entry.id: entry.reference_sentence
                       for entry in ref_manifest.values() if entry.reference_sentence is not None}
            if len(ref_map) != len(ref_manifest):
                raise EvaluationError(
                    f"{config.ref_manifest}: manifest lacks reference sentences; "
                    "pass a reference text file instead"
                )
        if ref_map is None:
            raise EvaluationError(
                f"{text_source}: no reference sentences available "
                "(need --ref-text or a reference manifest with sentences)"
            )
        # back-translation yields one sentence per prediction, under its id
        _require_same_ids(ref_map, manifests["pred"] if hyp_map is None else hyp_map,
                          f"{text_source}: hypothesis ids do not match reference ids")

    prepare = normalize_sequence if config.normalize else None
    # pairs in the order the corpus sums run; no pair's sequences outlive its score_pair
    pose_score, ratio = aggregate_pairs([
        score_pair(_load_pose(config.pred_manifest, manifests["pred"][i], layout, hasher, prepare),
                   _load_pose(config.ref_manifest, entry, layout, hasher, prepare))
        for i, entry in manifests["ref"].items()
    ]) if score_poses else (None, None)
    if config.backtranslate_command is not None and not score_poses:
        for entry in manifests["pred"].values():
            _load_pose(config.pred_manifest, entry, layout, hasher, None)
    if config.backtranslate_command is not None:
        _digest_bytes(hasher, b"backtranslate", config.backtranslate_command.encode())
    hasher.update(b"normalize" if config.normalize else b"raw")

    text_score: TextScore | None = None
    correlation: float | None = None
    frequent_errors: tuple[tuple[str, int], ...] = ()
    if score_text:
        if hyp_map is None:
            pred_manifest, pred_dir = manifests["pred"], Path(config.pred_manifest).parent
            pose_paths = [pred_dir / entry.pose_path for entry in pred_manifest.values()]
            sentences = run_backtranslation(config.backtranslate_command, pose_paths)
            hyp_map = dict(zip(pred_manifest, sentences))
        ids = list(ref_map)
        hyps = TokenizedCorpus.from_raw([hyp_map[i] for i in ids])
        refs_text = TokenizedCorpus.from_raw([ref_map[i] for i in ids])
        try:  # the corpora are paired and not empty, so only blank references fail here
            text_score = text_scores(hyps, refs_text)
        except ValueError as err:
            ref_source = config.reference_text or config.ref_manifest
            raise EvaluationError(f"{ref_source}: {err}") from None
        frequent_errors = tuple(top_error_words(text_score.wer, TOP_ERROR_WORD_COUNT))
        scored = [s for s in text_score.wer.per_sentence if s.ref_tokens > 0]
        correlation = length_error_correlation(
            [s.ref_tokens for s in scored], [100.0 * s.errors / s.ref_tokens for s in scored]
        )

    return MetricReport(
        pose=pose_score,
        text=text_score,
        diagnostics=ReportDiagnostics(
            duration_ratio=ratio,
            length_error_correlation=correlation,
            top_error_words=frequent_errors,
        ),
        provenance={
            "tool": "slpeval",
            "version": __version__,
            "input_digest": hasher.hexdigest(),
            "config": {
                name: str(value) if isinstance(value, Path) else value
                for name, value in asdict(config).items()
            },
        },
    )


def _diagnostic_cells(report: MetricReport) -> list[tuple[str, str]]:
    diag = report.diagnostics
    cells: list[tuple[str, str]] = []
    if diag.duration_ratio is not None:
        cells.append(("Duration Ratio", "{:.3f}".format(diag.duration_ratio)))
    if report.text is not None:
        corr = diag.length_error_correlation
        cells.append(
            ("Length-Error Correlation", "{:.3f}".format(corr) if corr is not None else "n/a")
        )
    return cells


def render_report(report: MetricReport, format: str = "structured") -> str:
    """Render a report; the three formats share one source of numbers."""
    if format == "structured":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2, ensure_ascii=False) + "\n"

    cells = [
        (metric.name, metric.fmt.format(value) if value is not None else "n/a")
        for metric, value in report.metric_values()
    ]
    diags = _diagnostic_cells(report)
    if format == "csv":
        all_cells = cells + diags
        header = ",".join(name.lower().replace(" ", "_").replace("-", "_") for name, _ in all_cells)
        row = ",".join(value for _, value in all_cells)
        return header + "\n" + row + "\n"
    if format == "table":
        widths = [max(len(name), len(value)) for name, value in cells]
        header = "  ".join(name.ljust(w) for (name, _), w in zip(cells, widths))
        row = "  ".join(value.ljust(w) for (_, value), w in zip(cells, widths))
        lines = [header.rstrip(), row.rstrip()]
        if diags:
            lines += ["", *(f"{name}: {value}" for name, value in diags)]
        diag = report.diagnostics
        if diag.top_error_words:
            lines.append(
                "Top error words: "
                + ", ".join(f"{word} ({count})" for word, count in diag.top_error_words)
            )
        if report.pose is not None and report.pose.excluded_ids:
            lines.append("Excluded sequences: " + ", ".join(report.pose.excluded_ids))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}")
