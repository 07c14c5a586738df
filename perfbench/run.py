"""Benchmark of the slpeval command line on four seeded workloads.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload submission --seed 0 --seconds 15 --trace 0

One caller in one process sends requests through ``slpeval.cli.main(argv)``
back to back (a closed loop, no threads) for ``--seconds`` seconds, checks
every output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are per-layer times and counts
taken by wrapping the calls between slpeval's modules (see tracing.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
END_TO_END_UNITS = {"setup_s": "s", "request_units": "units", "peak_rss_mb": "MiB"}
#: report sections whose numbers must stay bit-identical (provenance holds paths)
SCORED_SECTIONS = ("pose", "text", "diagnostics")


class Checks:
    """Counts commands and checks their outputs; a failed check fails the command."""

    def __init__(self, workload: str, work: Path, expected: dict | None) -> None:
        self.workload = workload
        self.work = work
        self.expected = expected
        self.observed: dict = {}
        self.first_output: dict[str, str] = {}
        self.per_command: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def command(self, kind: str, code, output: str, errors: str) -> None:
        self.attempted += 1
        problems = [] if code == 0 else [f"exit code {code!r}: {errors.strip()[:500]}"]
        if not problems:
            try:
                problems = getattr(self, f"_check_{kind}")(output)
            except (ValueError, KeyError, TypeError) as err:
                problems = [f"unreadable output: {err!r}"]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {self.workload} {kind}: {problem}", file=sys.stderr)

    def _same_as_first(self, kind: str, output: str) -> list[str]:
        first = self.first_output.setdefault(kind, output)
        return [] if output == first else [f"{kind} output differs from the first repeat"]

    def _recorded(self, key: str, value) -> list[str]:
        self.observed[key] = value
        if self.expected is None:
            return []
        if key not in self.expected:
            return [f"no recorded value for {key!r}"]
        return [] if self.expected[key] == value else [f"{key} differs from the recorded value"]

    def _check_validate(self, output: str) -> list[str]:
        import workloads

        problems = []
        if output != "submission valid (recorded)\n":
            problems.append(f"unexpected validate output {output!r}")
        pristine = (self.work / "history.pristine.tsv").read_text(encoding="utf-8")
        history = (self.work / "history.tsv").read_text(encoding="utf-8")
        added = history[len(pristine):].splitlines(keepends=True)
        if not history.startswith(pristine) or len(added) != 1:
            return problems + ["history must keep its lines and gain exactly one"]
        stamp, phase, digest = added[0].rstrip("\n").split("\t")
        if stamp != workloads.NOW.isoformat() or phase != "development" or len(digest) != 64:
            problems.append(f"bad history line {added[0]!r}")
        return problems + self._recorded("validate_digest", digest)

    def _check_evaluate(self, output: str) -> list[str]:
        report = json.loads(output)
        scored = {key: report[key] for key in SCORED_SECTIONS if key in report}
        return self._same_as_first("evaluate", output) + self._recorded("evaluate", scored)

    def _check_rank(self, output: str) -> list[str]:
        fronts = json.loads(output)["fronts"]
        scores = json.loads((self.work / "scores.json").read_text(encoding="utf-8"))
        members = [name for front in fronts for name in front]
        problems = []
        if sorted(members) != sorted(entry["entrant"] for entry in scores) or not all(fronts):
            problems.append("rank fronts do not partition the entrants")
        return problems + self._same_as_first("rank", output) + self._recorded("fronts", fronts)

    def _check_self(self, output: str) -> list[str]:
        pose = json.loads(output)["pose"]
        if pose["dtw_mje"] == 0.0 and pose["total_distance"] == 1.0:
            return []
        return [f"self-evaluation gave DTW-MJE {pose['dtw_mje']!r}, Total Distance {pose['total_distance']!r}"]


def call_cli(argv: list[str]) -> tuple[object, str, str, float]:
    """Run one command in this process: exit code, stdout, stderr, seconds."""
    from slpeval import cli  # the attribute is looked up per call, so tracing applies

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed command, not a failed benchmark
        code = "exception"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_request(workload: str, work: Path, checks: Checks, tracer=None) -> float:
    """One request, every step checked; returns its wall time in seconds."""
    import workloads

    if (work / "history.pristine.tsv").exists():
        shutil.copyfile(work / "history.pristine.tsv", work / "history.tsv")
    total = 0.0
    for kind, argv in workloads.requests(workload, work):
        code, output, errors, seconds = call_cli(argv)
        total += seconds
        checks.command(kind, code, output, errors)
        checks.per_command.setdefault(kind, []).append(seconds)
        if tracer is not None:
            tracer.count("cli.output_bytes", len(output.encode("utf-8")))
    return total


def run_child(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, work: Path, checks: Checks, seconds: float, tracer=None, corunner=None):
    """Requests back to back until ``seconds`` have passed; at least one.

    With a co-runner, also counts the reference units it completes during
    each untraced request.
    """
    units, plain, traced, layer_segments = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        before = corunner.units() if corunner else 0
        plain.append(run_request(workload, work, checks))
        if corunner:
            units.append(corunner.units() - before)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_request(workload, work, checks, tracer))
            finally:
                tracer.uninstall()
            layer_segments.append(tracer.segment_metrics())
            tracer.keep(f"request{len(traced)}")
        if time.perf_counter() >= deadline:
            return units, plain, traced, layer_segments


def end_to_end(args, work: Path, checks: Checks) -> tuple[dict, list[str]]:
    import workloads

    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        setup = run_child(["setup", args.workload, str(args.seed), args.scale, str(work)])
        setups.append(setup["seconds"])
    with reference.CoRunner() as corunner:
        units, plain, _, _ = measure(args.workload, work, checks, args.seconds, corunner=corunner)
    if args.workload == "submission":
        checks.command("self", *call_cli(workloads.self_evaluation(work))[:3])
    # the fresh process must print exactly what the in-process runs printed
    kind, argv = workloads.requests(args.workload, work)[-1]
    rss_out = work / "rss-output.txt"
    rss = run_child(["rss", str(rss_out), "--", *argv])
    checks.command(kind, rss["exit"], rss_out.read_text(encoding="utf-8"), "")

    metrics = {
        "setup_s": statistics.median(setups),
        "request_units": statistics.median(units),
        "peak_rss_mb": rss["maxrss_kb"] / 1024,
    }
    notes = [
        f"setup_s: median of {len(setups)} set-ups in fresh processes",
        f"peak_rss_mb: one fresh process running {kind}",
        f"request_units: median of {len(units)} requests, in units of the reference loop "
        "sharing the core (see reference.py)",
        "wall times while sharing the core, about twice the time alone:",
        f"request_s {statistics.median(plain):.4f} s (median of {len(plain)})",
    ]
    for command, times in checks.per_command.items():
        notes.append(f"{command}_s {statistics.median(times):.4f} s (median of {len(times)})")
    return metrics, notes


def per_layer(args, work: Path, checks: Checks) -> tuple[dict, list[str]]:
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.build(args.workload, args.seed, args.scale, work)
    finally:
        tracer.uninstall()
    setup = tracer.segment_metrics()
    tracer.keep("setup")

    _, plain, traced, segments = measure(args.workload, work, checks, args.seconds, tracer)
    if args.workload == "submission":
        checks.command("self", *call_cli(workloads.self_evaluation(work))[:3])

    metrics = {
        name: setup[name] + statistics.median(segment[name] for segment in segments)
        for name in tracing.layer_units()
    }
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["pose_metrics.dtw_peak_mb"] = tracing.dtw_peak_mb(tracer.largest_dtw_pair)

    spans_dir = ROOT / ".perfbench-out"
    spans_dir.mkdir(exist_ok=True)
    spans_file = spans_dir / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps(tracer.kept) + "\n", encoding="utf-8")
    notes = [
        f"per-layer values: one traced set-up plus the median of {len(traced)} traced requests",
        f"trace.overhead_s: median of {len(traced)} traced minus median of {len(plain)} untraced requests",
        f"spans written to {spans_file.relative_to(ROOT)}",
    ]
    if tracer.absent:
        notes.append("absent (metrics read 0): " + ", ".join(tracer.absent))
    return metrics, notes


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0, help="how long to send requests")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json",
                        help="values the default seed must reproduce bit for bit")
    parser.add_argument("--record", action="store_true",
                        help="store this run's values in --expected instead of comparing")
    args = parser.parse_args(argv)
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record needs the default seed {DEFAULT_SEED}")
    return args


def main(argv: list[str]) -> int:
    if not (SRC / "slpeval" / "__init__.py").is_file():
        print(f"error: no slpeval sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    expected_doc = json.loads(args.expected.read_text(encoding="utf-8")) if args.expected.exists() else {}
    expected = None
    if args.seed == DEFAULT_SEED and not args.record:
        expected = expected_doc.get(args.scale, {}).get(args.workload, {})

    print("machine " + json.dumps(machine_facts()))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        work = Path(tmp) / "inputs"
        checks = Checks(args.workload, work, expected)
        run = per_layer if args.trace else end_to_end
        metrics, notes = run(args, work, checks)
    units = tracing.layer_units() if args.trace else END_TO_END_UNITS

    if args.record:
        expected_doc.setdefault(args.scale, {})[args.workload] = checks.observed
        args.expected.write_text(json.dumps(expected_doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}")
    for note in notes:
        print("  " + note)
    for name in sorted(metrics):
        print(f"  {name} {metrics[name]:.6g} {units[name]}")
    print(f"  ops_failed_ratio {checks.failed / checks.attempted:.6g} "
          f"({checks.failed} failed of {checks.attempted} commands)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
