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
import itertools
import json
import operator
import sys
from collections.abc import Iterable
from dataclasses import fields
from datetime import datetime, timezone
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

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
from .manifest import open_regular, read_input, read_regular
from .pose import DEFAULT_LAYOUT, KeypointLayout, parse_layout, write_pose_file
from .ranking import CANONICAL_METRICS, Ranking, ScoreVector, pareto_fronts
from .synth import iter_synth_corpus

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slpeval", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(required=True)  # no dest: a missing one is named by its choices

    # each input's dest is its EvaluationConfig field; its metavar keeps the help text
    ev = sub.add_parser("evaluate", help="score a submission and render a metric report")
    ev.set_defaults(run=_cmd_evaluate)
    ev.add_argument("--pred", type=Path, dest="pred_manifest", metavar="PRED",
                    help="prediction manifest (tsv)")
    ev.add_argument("--ref", type=Path, dest="ref_manifest", metavar="REF",
                    help="reference manifest (tsv)")
    ev.add_argument("--hyp", type=Path, dest="hypothesis_file", metavar="HYP",
                    help="hypothesis sentences (id<TAB>sentence)")
    ev.add_argument(
        "--backtranslate", dest="backtranslate_command", metavar="COMMAND",
        help="pose-to-text command: pose path per stdin line, sentence per stdout line",
    )
    ev.add_argument("--ref-text", type=Path, dest="reference_text", metavar="REF_TEXT",
                    help="reference sentences (id<TAB>sentence)")
    ev.add_argument("--layout", type=Path, dest="layout_file", metavar="LAYOUT",
                    help="keypoint layout descriptor")
    ev.add_argument("--no-normalize", dest="normalize", action="store_false",
                    help="skip pose normalization")
    ev.add_argument("--out", type=Path, help="write the report here instead of stdout")
    ev.add_argument(
        "--format", choices=("structured", "table", "csv"), default="structured",
        help="report rendering (default: structured)",
    )

    va = sub.add_parser("validate", help="check a submission before scoring")
    va.set_defaults(run=_cmd_validate)
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
    rk.set_defaults(run=_cmd_rank)
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
    sy_sub = sy.add_subparsers(required=True)
    co = sy_sub.add_parser("corpus", help="write a synthetic pose+sentence corpus")
    co.set_defaults(run=_cmd_synth_corpus)
    co.add_argument("--count", type=int, required=True, help="number of sequences")
    co.add_argument("--frames", type=int, required=True, help="frames per sequence")
    co.add_argument("--amplitude", type=float, default=0.1, help="hand swing amplitude")
    co.add_argument("--seed", type=int, default=0, help="corpus seed")
    co.add_argument("--out", type=Path, required=True, help="output directory")
    co.add_argument("--layout", type=Path, help="keypoint layout descriptor")
    return parser


def _emit(pieces: Iterable[str], out: Path | None) -> None:
    # piece by piece: one joined str would store every character at the widest one's width
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with out.open("w", encoding="utf-8") as stream:
            stream.writelines(pieces)


def _read_layout(path: Path | None) -> KeypointLayout:
    return read_input(path, parse_layout) if path else DEFAULT_LAYOUT


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = EvaluationConfig(**{f.name: getattr(args, f.name) for f in fields(EvaluationConfig)})
    report = evaluate(config)
    _emit([render_report(report, args.format)], args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    rules = TEST_RULES if args.phase == "test" else DEVELOPMENT_RULES
    now = args.now or datetime.now(timezone.utc)
    try:  # the daily quota counts by UTC date, which an offset can carry out of range
        if now.tzinfo is not None:
            now.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"--now {now.isoformat()}: outside UTC's date range") from None
    layout = _read_layout(args.layout)
    with contextlib.ExitStack() as stack:
        if args.record:
            # the lock spans read, quota check and append, so concurrent
            # submissions are checked one after another; closing releases it
            log = stack.enter_context(open_regular(args.history, "a+b"))
            fcntl.flock(log, fcntl.LOCK_EX)
            log.seek(0)
            data = log.read()
        else:
            data = read_regular(args.history) if args.history.exists() else b""
        history = read_input(args.history, load_history, data)
        report = validate_submission(args.pred, args.ref, rules, history, now=now, layout=layout)
        if not report.ok:
            for violation in report.violations:
                print(violation)
            return 1
        if args.record:
            record = SubmissionRecord(timestamp=now, phase=rules.phase, digest=report.digest)
            if data[-1:] not in (b"", b"\n"):  # end a last record cut short of its newline
                log.write(b"\n")
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
        entries.append(ScoreVector.from_metrics(item["entrant"], item["metrics"]))
    return entries


_MATRIX_BLOCK = 64  # rows of the dominance matrix that ``rank`` renders at a time
#: a matrix cell's text, indexed by the cell: one for the cells before a row's last, one for it
_CELLS = np.array([b"\n        false,", b"\n        true,"], dtype="S15")
_LAST_CELLS = np.array([b"\n        false", b"\n        true"], dtype="S15")


def _matrix_rows(matrix: np.ndarray) -> Iterable[str]:
    """A non-empty bool matrix as ``json.dumps(..., indent=2)`` writes it two levels deep, its
    rows as fixed-width byte grids of _MATRIX_BLOCK rows, each line led by its newline."""
    yield "["
    for start in range(0, len(matrix), _MATRIX_BLOCK):
        rows = matrix[start : start + _MATRIX_BLOCK].view(np.uint8)
        grid = np.empty((len(rows), len(matrix) + 2), dtype="S15")
        grid[:, 0], grid[:, -1] = b"\n      [", b"\n      ],"
        np.take(_CELLS, rows[:, :-1], out=grid[:, 1:-2])  # no temporary, unlike _CELLS[rows]
        np.take(_LAST_CELLS, rows[:, -1], out=grid[:, -2])
        grid[len(matrix) - 1 - start :, -1] = b"\n      ]"  # the matrix's last row, if here
        yield grid.tobytes().replace(b"\0", b"").decode("ascii")
    yield "\n    ]"


#: an entrant's scores after its name, metrics in sorted-name order, each spelled by repr
_SCORES = ": {" + ",".join(f'\n      "{name}": %r' for name in sorted(CANONICAL_METRICS))
_SORTED_VALUES = operator.itemgetter(*map(CANONICAL_METRICS.index, sorted(CANONICAL_METRICS)))


def _rank_json(entries: list[ScoreVector], ranking: Ranking) -> Iterable[str]:
    """``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)`` and a newline, in pieces
    (head, matrix blocks, fronts, each entrant's scores, tail): a wide name widens only its own."""
    def names(items: Iterable[str]) -> str:  # a list of names, two levels deep
        return "[\n      " + ",\n      ".join(map(encode_basestring, items)) + "\n    ]"
    yield '{\n  "dominance": {\n    "entrants": ' + names(entry.entrant for entry in entries)
    yield ',\n    "matrix": '
    yield from _matrix_rows(ranking.dominance)
    fronts = ",\n    ".join(map(names, ranking.fronts))
    yield '\n  },\n  "fronts": [\n    ' + fronts + '\n  ],\n  "scores": {'
    for i, entry in enumerate(sorted(entries, key=lambda entry: entry.entrant)):
        name = encode_basestring(entry.entrant)
        yield ("," if i else "") + "\n    " + name + _SCORES % _SORTED_VALUES(entry.values) + "\n    }"
    yield "\n  }\n}\n"


def _cmd_rank(args: argparse.Namespace) -> int:
    entries = [entry for path in args.scores for entry in read_input(path, _parse_scores)]
    ranking = pareto_fronts(entries)
    if args.format == "table":  # one "front  entrant" line per entrant
        pieces = [f"{front_index}  {name}\n"
                  for front_index, front in enumerate(ranking.fronts, 1) for name in front]
    else:
        pieces = _rank_json(entries, ranking)
    _emit(pieces, args.out)
    return 0


def _cmd_synth_corpus(args: argparse.Namespace) -> int:
    layout = _read_layout(args.layout)
    corpus = iter_synth_corpus(args.count, args.frames, args.amplitude, args.seed, layout)
    pairs = itertools.chain([next(corpus)], corpus)  # a refused argument raises before mkdir
    pose_dir = args.out / "poses"
    pose_dir.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    for seq, sentence in pairs:  # each sequence is written, then dropped
        (pose_dir / f"{seq.id}.pose").write_text(write_pose_file(seq), encoding="utf-8")
        manifest_lines.append(f"{seq.id}\tposes/{seq.id}.pose\t{sentence}\n")
    (args.out / "manifest.tsv").write_text("".join(manifest_lines), encoding="utf-8")
    print(f"wrote {len(manifest_lines)} sequences to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except OSError as err:  # "<path>: <reason>" like every other input error, not "[Errno n]"
        message = err if err.filename is None else f"{err.filename}: {err.strerror}"
    except (EvaluationError, ValueError) as err:
        message = err
    except MemoryError as err:  # numpy names the size it could not allocate
        message = str(err) or "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
