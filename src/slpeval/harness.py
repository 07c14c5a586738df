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
import shlex
import subprocess
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .manifest import (
    ManifestError,
    SubmissionManifest,
    load_manifest,
    load_sentence_file,
    read_input,
    split_lines,
)
from .pose import (
    DEFAULT_LAYOUT,
    KeypointLayout,
    PoseSequence,
    normalize_sequence,
    parse_layout,
    parse_pose_file,
    validate_sequence,
)
from .pose_metrics import PoseScore, corpus_pose_metrics
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
    "duration_ratio",
    "evaluate",
    "format_record",
    "load_history",
    "load_submission",
    "render_report",
    "run_backtranslation",
    "validate_submission",
]

TOP_ERROR_WORD_COUNT = 10


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
        try:
            stamp = datetime.fromisoformat(parts[0])
        except ValueError:
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


def _resolve(base_dir: Path, pose_path: str) -> Path:
    path = Path(pose_path)
    return path if path.is_absolute() else base_dir / path


def _digest_bytes(hasher, label: bytes, data: bytes) -> None:
    hasher.update(label)
    hasher.update(len(data).to_bytes(8, "big"))
    hasher.update(data)


def _read_bytes(path: Path, hasher, label: bytes = b"") -> bytes:
    data = Path(path).read_bytes()
    _digest_bytes(hasher, label, data)
    return data


def _read_entries(path: Path, parse, kind: str, hasher, label: bytes = b""):
    """The manifest or sentence file at ``path``, read, digested and parsed.

    A file that lists no entries is refused with its path, like a malformed one.
    """
    entries = read_input(path, parse, _read_bytes(path, hasher, label))
    if not entries:
        raise ManifestError(f"{path}: {kind} lists no entries")
    return entries


def load_submission(
    manifest_path: Path, layout: KeypointLayout, hasher, normalize: bool
) -> tuple[SubmissionManifest, dict[str, PoseSequence], list[tuple[str, str]]]:
    """Read, digest, parse, validate and optionally normalize a manifest's pose files.

    Each file is read once. ``hasher`` receives the manifest's length and
    bytes, then for each readable pose file its entry id, length and bytes.
    A pose file that cannot be read, decoded, parsed, validated or
    normalized is reported as ``(id, problem)``, the problem naming the
    file once, and left out of the sequences; only a bad or empty manifest
    raises.
    """
    manifest = _read_entries(manifest_path, load_manifest, "manifest", hasher)
    sequences: dict[str, PoseSequence] = {}
    problems: list[tuple[str, str]] = []
    for entry in manifest:
        path = where = _resolve(manifest_path.parent, entry.pose_path)
        try:
            # the bytes are freed once decoded
            text = _read_bytes(path, hasher, entry.id.encode()).decode("utf-8")
            seq = parse_pose_file(text, id=entry.id, layout=layout)
            found = validate_sequence(seq)
            if len(found) > 1:  # one line a file, however many coordinates are bad
                found = [f"{found[0]}, and {len(found) - 1} more"]
            if not found:
                sequences[entry.id] = normalize_sequence(seq) if normalize else seq
        except OSError as err:  # its own text repeats the path
            where, found = f"cannot read {path}", [err.strerror or err]
        except ValueError as err:
            found = [err]
        problems.extend((entry.id, f"{where}: {problem}") for problem in found)
    return manifest, sequences, problems


def _id_coverage(ref_ids, pred_ids) -> tuple[list[str], list[str]]:
    """The ids ``pred_ids`` lacks and the ones it adds to ``ref_ids``, each in file order."""
    ref_set, pred_set = set(ref_ids), set(pred_ids)
    return [i for i in ref_ids if i not in pred_set], [i for i in pred_ids if i not in ref_set]


def validate_submission(
    pred_manifest_path: Path,
    ref_manifest_path: Path,
    rules: PhaseRules,
    history: list[SubmissionRecord],
    now: datetime | None = None,
    layout: KeypointLayout = DEFAULT_LAYOUT,
) -> ValidationReport:
    """Check id coverage, pose file health, and submission quotas.

    Violations are data, not exceptions; the submission log is never
    mutated here (recording an accepted submission is the caller's append).
    """
    now = now if now is not None else datetime.now(timezone.utc)
    hasher = hashlib.sha256()
    # challenge scoring always normalizes, so a torso it cannot normalize is a violation
    pred_manifest, _, pred_problems = load_submission(
        pred_manifest_path, layout, hasher, normalize=True
    )
    ref_manifest, _, ref_problems = load_submission(
        ref_manifest_path, layout, hashlib.sha256(), normalize=True
    )

    missing, extra = _id_coverage(ref_manifest.ids, pred_manifest.ids)
    violations = [f"prediction missing id {i!r}" for i in missing]
    violations.extend(f"prediction has unknown id {i!r}" for i in extra)

    for role, problems in (("prediction", pred_problems), ("reference", ref_problems)):
        violations.extend(f"{role} {entry_id!r}: {problem}" for entry_id, problem in problems)
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
        if self.hypothesis_file is not None and self.backtranslate_command is not None:
            raise ValueError(
                "pass either a hypothesis file or a back-translation command, not both"
            )
        if self.backtranslate_command is not None and self.pred_manifest is None:
            raise ValueError(
                "back-translation needs a prediction manifest to supply pose files"
            )


@dataclass(frozen=True)
class ReportDiagnostics:
    duration_ratio: float | None = None
    length_error_correlation: float | None = None
    top_error_words: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class MetricReport:
    pose: PoseScore | None
    text: TextScore | None
    diagnostics: ReportDiagnostics
    provenance: dict = field(default_factory=dict)

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


def duration_ratio(preds: list[PoseSequence], refs: list[PoseSequence]) -> float:
    """Mean over paired sequences of prediction length over reference length."""
    if len(preds) != len(refs):
        raise ValueError(f"corpus sizes differ: {len(preds)} vs {len(refs)}")
    if not refs:
        raise ValueError("empty corpus")
    total = 0.0
    for pred, ref in zip(preds, refs):
        if pred.id != ref.id:
            raise ValueError(f"id mismatch: {pred.id!r} paired with {ref.id!r}")
        total += pred.num_frames / ref.num_frames
    return total / len(preds)


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
    try:
        proc = subprocess.run(argv, input=payload, capture_output=True, check=False)
    except OSError as err:
        raise EvaluationError(f"back-translation command failed to start: {err}") from err
    if proc.returncode != 0:
        detail = proc.stderr.decode("utf-8", "replace").strip().splitlines()
        suffix = f": {detail[0]}" if detail else ""
        raise EvaluationError(
            f"back-translation command exited with status {proc.returncode}{suffix}"
        )
    sentences = read_input("back-translation output", split_lines, proc.stdout)
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
    are scored or back-translated. Each input file is read once, and those
    bytes feed ``input_digest``. Any parse or validation failure aborts with
    the first offending file named.
    """
    hasher = hashlib.sha256()
    layout, layout_data = DEFAULT_LAYOUT, None
    if config.layout_file is not None:
        layout_data = Path(config.layout_file).read_bytes()
        layout = read_input(config.layout_file, parse_layout, layout_data)
    score_poses = config.pred_manifest is not None and config.ref_manifest is not None

    manifests: dict[str, SubmissionManifest] = {}
    sequences: dict[str, dict[str, PoseSequence]] = {}
    for role, manifest_path in (("pred", config.pred_manifest), ("ref", config.ref_manifest)):
        if manifest_path is None:
            continue
        manifest_path = Path(manifest_path)
        hasher.update(role.encode())
        if not (score_poses or (role == "pred" and config.backtranslate_command is not None)):
            manifests[role] = _read_entries(manifest_path, load_manifest, "manifest", hasher)
            continue
        manifests[role], sequences[role], problems = load_submission(
            manifest_path, layout, hasher, normalize=score_poses and config.normalize
        )
        if problems:
            raise EvaluationError(problems[0][1])
    hyp_map = ref_map = None
    if config.hypothesis_file is not None:
        hyp_map = _read_entries(
            config.hypothesis_file, load_sentence_file, "sentence file", hasher, b"hyp"
        )
    if config.reference_text is not None:
        ref_map = _read_entries(
            config.reference_text, load_sentence_file, "sentence file", hasher, b"ref-text"
        )
    if layout_data is not None:
        _digest_bytes(hasher, b"layout", layout_data)
    if config.backtranslate_command is not None:
        _digest_bytes(hasher, b"backtranslate", config.backtranslate_command.encode())
    hasher.update(b"normalize" if config.normalize else b"raw")

    pose_score: PoseScore | None = None
    ratio: float | None = None
    if score_poses:
        pred_seqs, ref_seqs = sequences["pred"], sequences["ref"]
        ref_ids = manifests["ref"].ids
        missing, extra = _id_coverage(ref_ids, manifests["pred"].ids)
        if missing or extra:
            raise EvaluationError(
                f"{config.pred_manifest}: id set mismatch with reference manifest "
                f"(first offender {(missing + extra)[0]!r})"
            )
        refs = [ref_seqs[i] for i in ref_ids]
        preds = [pred_seqs[i] for i in ref_ids]
        pose_score = corpus_pose_metrics(preds, refs)
        ratio = duration_ratio(preds, refs)

    text_score: TextScore | None = None
    correlation: float | None = None
    frequent_errors: tuple[tuple[str, int], ...] = ()
    if hyp_map is not None or config.backtranslate_command is not None:
        text_source = config.hypothesis_file or config.pred_manifest
        if hyp_map is None:
            pred_manifest = manifests["pred"]
            pose_paths = [
                _resolve(Path(config.pred_manifest).parent, entry.pose_path)
                for entry in pred_manifest
            ]
            sentences = run_backtranslation(config.backtranslate_command, pose_paths)
            hyp_map = dict(zip(pred_manifest.ids, sentences))
        if ref_map is None and "ref" in manifests:
            ref_manifest = manifests["ref"]
            ref_map = {
                entry.id: entry.reference_sentence
                for entry in ref_manifest
                if entry.reference_sentence is not None
            }
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
        missing, extra = _id_coverage(ref_map, hyp_map)
        if missing or extra:
            raise EvaluationError(
                f"{text_source}: hypothesis ids do not match reference ids "
                f"(first offender {(missing + extra)[0]!r})"
            )
        ids = list(ref_map)
        hyps = TokenizedCorpus.from_raw([hyp_map[i] for i in ids])
        refs_text = TokenizedCorpus.from_raw([ref_map[i] for i in ids])
        text_score = text_scores(hyps, refs_text)
        frequent_errors = tuple(top_error_words(text_score.wer, TOP_ERROR_WORD_COUNT))
        scored = [
            (s.ref_tokens, 100.0 * s.errors / s.ref_tokens)
            for s in text_score.wer.per_sentence
            if s.ref_tokens > 0
        ]
        correlation = length_error_correlation(
            [length for length, _ in scored], [rate for _, rate in scored]
        )

    report = MetricReport(
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
    return report


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
            lines.append("")
            for name, value in diags:
                lines.append(f"{name}: {value}")
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
