"""Command line front end.

Subcommands:
  evaluate   score a submission against references, render a report
  validate   check a submission (ids, pose files, quotas) before scoring
  rank       Pareto-rank entrants from metric score files
  synth      generate synthetic corpora for smoke tests and baselines

Exit codes: 0 success, 1 reported validation failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from .harness import (
    DEVELOPMENT_RULES,
    TEST_RULES,
    EvaluationConfig,
    EvaluationError,
    SubmissionRecord,
    evaluate,
    format_record,
    load_history,
    render_report,
    validate_submission,
)
from .manifest import read_input
from .pose import DEFAULT_LAYOUT, KeypointLayout, parse_layout, write_pose_file
from .ranking import ScoreVector, pareto_fronts
from .synth import synth_corpus

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slpeval", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="score a submission and render a metric report")
    ev.add_argument("--pred", type=Path, help="prediction manifest (tsv)")
    ev.add_argument("--ref", type=Path, help="reference manifest (tsv)")
    ev.add_argument("--hyp", type=Path, help="hypothesis sentences (id<TAB>sentence)")
    ev.add_argument(
        "--backtranslate", metavar="COMMAND",
        help="pose-to-text command: pose path per stdin line, sentence per stdout line",
    )
    ev.add_argument("--ref-text", type=Path, help="reference sentences (id<TAB>sentence)")
    ev.add_argument("--layout", type=Path, help="keypoint layout descriptor")
    ev.add_argument("--no-normalize", action="store_true", help="skip pose normalization")
    ev.add_argument("--out", type=Path, help="write the report here instead of stdout")
    ev.add_argument(
        "--format", choices=("structured", "table", "csv"), default="structured",
        help="report rendering (default: structured)",
    )

    va = sub.add_parser("validate", help="check a submission before scoring")
    va.add_argument("--pred", type=Path, required=True, help="prediction manifest (tsv)")
    va.add_argument("--ref", type=Path, required=True, help="reference manifest (tsv)")
    va.add_argument(
        "--phase", choices=("dev", "development", "test"), required=True,
        help="challenge phase whose quota applies (dev is short for development)",
    )
    va.add_argument("--history", type=Path, required=True, help="submission log path")
    va.add_argument(
        "--record", action="store_true",
        help="append an accepted submission to the log",
    )
    va.add_argument("--layout", type=Path, help="keypoint layout descriptor")
    va.add_argument(
        "--now", type=datetime.fromisoformat,
        help="ISO-8601 timestamp for quota checks (for auditing)",
    )

    rk = sub.add_parser("rank", help="Pareto-rank entrants from score files")
    rk.add_argument(
        "--scores", type=Path, nargs="+", required=True,
        help="JSON files, each an object or list of {entrant, metrics}",
    )
    rk.add_argument("--out", type=Path, help="write the ranking here instead of stdout")
    rk.add_argument(
        "--format", choices=("structured", "table"), default="structured",
        help="ranking rendering (default: structured)",
    )

    sy = sub.add_parser("synth", help="generate synthetic data")
    sy_sub = sy.add_subparsers(dest="synth_command", required=True)
    co = sy_sub.add_parser("corpus", help="write a synthetic pose+sentence corpus")
    co.add_argument("--count", type=int, required=True, help="number of sequences")
    co.add_argument("--frames", type=int, required=True, help="frames per sequence")
    co.add_argument("--amplitude", type=float, default=0.1, help="hand swing amplitude")
    co.add_argument("--frequency", type=float, default=1.0, help="hand swing cycles")
    co.add_argument("--seed", type=int, default=0, help="corpus seed")
    co.add_argument("--out", type=Path, required=True, help="output directory")
    co.add_argument("--layout", type=Path, help="keypoint layout descriptor")
    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _read_layout(path: Path | None) -> KeypointLayout:
    return read_input(path, parse_layout) if path else DEFAULT_LAYOUT


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = EvaluationConfig(
        pred_manifest=args.pred,
        ref_manifest=args.ref,
        hypothesis_file=args.hyp,
        backtranslate_command=args.backtranslate,
        reference_text=args.ref_text,
        layout_file=args.layout,
        normalize=not args.no_normalize,
    )
    report = evaluate(config)
    _emit(render_report(report, args.format), args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    rules = TEST_RULES if args.phase == "test" else DEVELOPMENT_RULES
    now = args.now or datetime.now(timezone.utc)
    layout = _read_layout(args.layout)
    with contextlib.ExitStack() as stack:
        if args.record:
            # the lock spans read, quota check and append, so concurrent
            # submissions are checked one after another; closing releases it
            log = stack.enter_context(args.history.open("a+b"))
            fcntl.flock(log, fcntl.LOCK_EX)
            log.seek(0)
            data = log.read()
        else:
            data = args.history.read_bytes() if args.history.exists() else b""
        history = read_input(args.history, load_history, data)
        report = validate_submission(args.pred, args.ref, rules, history, now=now, layout=layout)
        if not report.ok:
            for violation in report.violations:
                print(violation)
            return 1
        if args.record:
            record = SubmissionRecord(timestamp=now, phase=rules.phase, digest=report.digest)
            log.write(format_record(record).encode("utf-8"))
            print("submission valid (recorded)")
        else:
            print("submission valid")
    return 0


def _parse_scores(text: str) -> list[ScoreVector]:
    """The score vectors of one score file: a JSON object or list of ``{entrant, metrics}``."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    entries = []
    for item in doc if isinstance(doc, list) else [doc]:
        if not isinstance(item, dict) or "entrant" not in item or (
            not isinstance(item.get("metrics"), dict)
        ):
            raise ValueError("each entry needs an 'entrant' and a 'metrics' object")
        entries.append(ScoreVector.from_metrics(str(item["entrant"]), item["metrics"]))
    return entries


def _cmd_rank(args: argparse.Namespace) -> int:
    entries = [entry for path in args.scores for entry in read_input(path, _parse_scores)]
    ranking = pareto_fronts(entries)
    if args.format == "table":
        lines = []
        for front_index, members in enumerate(ranking.fronts, start=1):
            for name in members:
                lines.append(f"{front_index}  {name}")
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "fronts": [list(front) for front in ranking.fronts],
            "dominance": {
                "entrants": [entry.entrant for entry in entries],
                "matrix": ranking.dominance.tolist(),
            },
            "scores": {entry.entrant: entry.as_dict() for entry in entries},
        }
        text = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_synth_corpus(args: argparse.Namespace) -> int:
    layout = _read_layout(args.layout)
    corpus = synth_corpus(
        count=args.count,
        frame_count=args.frames,
        amplitude=args.amplitude,
        frequency=args.frequency,
        seed=args.seed,
        layout=layout,
    )
    out_dir: Path = args.out
    pose_dir = out_dir / "poses"
    pose_dir.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    for seq, sentence in corpus:
        pose_path = pose_dir / f"{seq.id}.pose"
        pose_path.write_text(write_pose_file(seq), encoding="utf-8")
        manifest_lines.append(f"{seq.id}\tposes/{seq.id}.pose\t{sentence}")
    (out_dir / "manifest.tsv").write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} sequences to {out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "rank":
            return _cmd_rank(args)
        if args.command == "synth":
            return _cmd_synth_corpus(args)
    except (EvaluationError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
