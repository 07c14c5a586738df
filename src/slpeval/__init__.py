"""Evaluation toolkit for sign language production systems.

Scores predicted pose sequences against references (DTW-MJE, hand-travel
ratio) and back-translated text against reference sentences (BLEU, chrF,
ROUGE-L, WER), ranks entrants by Pareto dominance over the full metric set,
and ships a deterministic synthetic-data generator plus a submission
validation harness with phase quotas.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .harness import (
    DEVELOPMENT_RULES,
    TEST_RULES,
    EvaluationConfig,
    EvaluationError,
    MetricReport,
    PhaseRules,
    evaluate,
    render_report,
    run_backtranslation,
    validate_submission,
)
from .manifest import ManifestEntry, ManifestError, SubmissionManifest, load_manifest
from .pose import (
    DEFAULT_LAYOUT,
    KeypointLayout,
    PoseFormatError,
    PoseSequence,
    normalize_sequence,
    parse_layout,
    parse_pose_file,
    write_pose_file,
)
from .pose_metrics import (
    PoseScore,
    ZeroReferenceTravelError,
    corpus_pose_metrics,
    dtw_align,
    dtw_mje,
    total_distance_ratio,
)
from .ranking import ScoreVector, dominance_matrix, pareto_fronts
from .synth import mean_pose_baseline, perturb, synth_corpus, synth_sequence
from .text_metrics import TextScore, TokenizedCorpus, bleu_corpus, chrf, rouge_l, wer

__all__ = [
    "DEFAULT_LAYOUT",
    "DEVELOPMENT_RULES",
    "TEST_RULES",
    "EvaluationConfig",
    "EvaluationError",
    "KeypointLayout",
    "ManifestEntry",
    "ManifestError",
    "MetricReport",
    "PhaseRules",
    "PoseFormatError",
    "PoseScore",
    "PoseSequence",
    "ScoreVector",
    "SubmissionManifest",
    "TextScore",
    "TokenizedCorpus",
    "ZeroReferenceTravelError",
    "__version__",
    "bleu_corpus",
    "chrf",
    "corpus_pose_metrics",
    "dominance_matrix",
    "dtw_align",
    "dtw_mje",
    "evaluate",
    "load_manifest",
    "mean_pose_baseline",
    "normalize_sequence",
    "pareto_fronts",
    "parse_layout",
    "parse_pose_file",
    "perturb",
    "render_report",
    "rouge_l",
    "run_backtranslation",
    "synth_corpus",
    "synth_sequence",
    "total_distance_ratio",
    "validate_submission",
    "wer",
]
