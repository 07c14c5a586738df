"""Spans and counts at the boundaries between slpeval's modules.

The tracer wraps public names where the calling module looks them up, for
example ``slpeval.harness.parse_pose_file``, so the program itself is not
changed. Each call records a span (name, start, end, parent) in memory;
counts are taken from the arguments and results after the span has ended.
A name that no longer exists is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import pathlib
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "harness", "manifest", "pose", "pose_metrics", "text_metrics", "ranking", "synth")


def _count_parse(tracer, args, kwargs, result):
    tracer.count("pose.files_parsed", 1)
    tracer.count("pose.bytes_parsed", len(args[0]))  # POSE v1 text is ASCII
    tracer.count("pose.frames_parsed", result.num_frames)


def _count_write(tracer, args, kwargs, result):
    tracer.count("pose.bytes_written", len(result))


def _count_dtw(tracer, args, kwargs, result):
    pred, ref = args[0], args[1]
    cells = pred.num_frames * ref.num_frames
    tracer.count("pose_metrics.dtw_pairs", 1)
    tracer.count("pose_metrics.dtw_cells", cells)
    if cells > tracer.largest_dtw_cells:
        tracer.largest_dtw_cells, tracer.largest_dtw_pair = cells, (pred, ref)


def _count_tokenize(tracer, args, kwargs, result):
    tracer.count("text_metrics.sentences", 1)
    tracer.count("text_metrics.tokens", len(result))


def _count_chrf(tracer, args, kwargs, result):
    chars = sum(len("".join(s.split())) for corpus in args[:2] for s in corpus.raw)
    tracer.count("text_metrics.chars", chars)


def _count_wer(tracer, args, kwargs, result):
    hyps, refs = args[0], args[1]
    cells = sum(len(h) * len(r) for h, r in zip(hyps.sentences, refs.sentences))
    tracer.count("text_metrics.wer_cells", cells)


def _count_fronts(tracer, args, kwargs, result):
    tracer.count("ranking.entrants", len(args[0]))
    tracer.count("ranking.fronts", len(result.fronts))


#: (module whose namespace is patched, name, span name, counter)
SITES = (
    ("slpeval.cli", "main", "cli.main", None),
    ("slpeval.cli", "evaluate", "harness.evaluate", None),
    ("slpeval.cli", "render_report", "harness.render_report", None),
    ("slpeval.cli", "validate_submission", "harness.validate_submission", None),
    ("slpeval.cli", "load_history", "harness.load_history", None),
    ("slpeval.cli", "submission_digest", "harness.submission_digest", None),
    ("slpeval.cli", "pareto_fronts", "ranking.pareto_fronts", _count_fronts),
    ("slpeval.cli", "dominance_matrix", "ranking.dominance_matrix", None),
    ("slpeval.harness", "load_manifest", "manifest.load_manifest", None),
    ("slpeval.harness", "load_sentence_file", "manifest.load_sentence_file", None),
    ("slpeval.harness", "parse_pose_file", "pose.parse_pose_file", _count_parse),
    ("slpeval.harness", "validate_sequence", "pose.validate_sequence", None),
    ("slpeval.harness", "normalize_sequence", "pose.normalize_sequence", None),
    ("slpeval.harness", "corpus_pose_metrics", "pose_metrics.corpus_pose_metrics", None),
    ("slpeval.harness", "text_scores", "text_metrics.text_scores", None),
    ("slpeval.pose_metrics", "dtw_align", "pose_metrics.dtw_align", _count_dtw),
    ("slpeval.pose_metrics", "total_distance_ratio", "pose_metrics.total_distance_ratio", None),
    ("slpeval.text_metrics", "tokenize", "text_metrics.tokenize", _count_tokenize),
    ("slpeval.text_metrics", "bleu_corpus", "text_metrics.bleu_corpus", None),
    ("slpeval.text_metrics", "chrf", "text_metrics.chrf", _count_chrf),
    ("slpeval.text_metrics", "rouge_l", "text_metrics.rouge_l", None),
    ("slpeval.text_metrics", "wer", "text_metrics.wer", _count_wer),
    # called by the benchmark's own set-up
    ("slpeval.synth", "synth_sequence", "synth.synth_sequence", None),
    ("slpeval.synth", "perturb", "synth.perturb", None),
    ("slpeval.pose", "write_pose_file", "pose.write_pose_file", _count_write),
)

COUNTS = (
    "pose.files_parsed", "pose.bytes_parsed", "pose.frames_parsed", "pose.bytes_written",
    "pose_metrics.dtw_pairs", "pose_metrics.dtw_cells",
    "text_metrics.sentences", "text_metrics.tokens", "text_metrics.chars", "text_metrics.wer_cells",
    "ranking.entrants", "ranking.fronts", "cli.output_bytes",
)


def layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{span}_s": "s" for _, _, span, _ in SITES}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({name: "bytes" if "bytes" in name else "count" for name in COUNTS})
    units.update({
        "pose_metrics.dtw_ns_per_cell": "ns",
        "pose_metrics.dtw_peak_mb": "MiB",
        "harness.read_amplification": "ratio",
        "trace.overhead_s": "s",
    })
    return units


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records spans and counts while installed; one segment at a time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.reads: list[tuple[str, int]] = []
        self.absent: list[str] = []
        self.kept: list[dict] = []
        self.largest_dtw_cells = 0
        self.largest_dtw_pair = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def reset(self) -> None:
        """Start a new segment; the caller keeps what the last one recorded."""
        self.spans, self.counts, self.reads = [], defaultdict(float), []

    def _wrap(self, span_name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(span_name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def _wrap_read(self, fn):
        @functools.wraps(fn)
        def traced_read(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            if any(self.spans[i].name == "harness.evaluate" for i in self._stack):
                self.reads.append((os.fspath(path), os.path.getsize(path)))
            return result

        return traced_read

    def install(self) -> None:
        self.absent = []
        for module_name, attr, span_name, counter in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._undo.append((module, attr, fn))
            setattr(module, attr, self._wrap(span_name, fn, counter))
        for attr in ("read_text", "read_bytes"):
            fn = getattr(pathlib.Path, attr)
            self._undo.append((pathlib.Path, attr, fn))
            setattr(pathlib.Path, attr, self._wrap_read(fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def segment_metrics(self) -> dict[str, float]:
        """Busy time per span name, self time per layer, and counts."""
        metrics = {name: 0.0 for name in layer_units()}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        for span, children in zip(self.spans, child_time):
            duration = span.end - span.start
            metrics[f"{span.name}_s"] += duration
            metrics[f"{span.name.split('.')[0]}.self_s"] += duration - children
        metrics.update(self.counts)
        if metrics["pose_metrics.dtw_cells"]:
            metrics["pose_metrics.dtw_ns_per_cell"] = (
                1e9 * metrics["pose_metrics.dtw_align_s"] / metrics["pose_metrics.dtw_cells"]
            )
        if self.reads:
            distinct = dict(self.reads)
            metrics["harness.read_amplification"] = (
                sum(size for _, size in self.reads) / sum(distinct.values())
            )
        return metrics

    def keep(self, segment: str) -> None:
        """Keep this segment's spans for writing out when the run ends.

        ``parent`` is the index of the parent span within the same segment.
        """
        self.kept.extend(
            {"segment": segment, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        )


def dtw_peak_mb(pair) -> float:
    """Peak traced memory of one untraced ``dtw_align`` call, in MiB."""
    if pair is None:
        return 0.0
    dtw_align = importlib.import_module("slpeval.pose_metrics").dtw_align
    tracemalloc.start()
    try:
        dtw_align(*pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20
