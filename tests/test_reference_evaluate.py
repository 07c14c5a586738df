"""End-to-end oracle: ``evaluate`` on a drawn corpus equals a plain loop over the oracles.

The pose loop pairs sequences in reference-manifest order, normalizes (or
not) with ``normalize_sequence``, aligns with the per-cell
``reference_dtw_align`` and measures travel with ``hand_travel``. The text
loop scores the sentences in reference order with the per-sentence Counter
BLEU and chrF, the LCS dynamic programme, the brute-force edit cost and the
WER alignment oracle's S/D/I split and error words, whether the hypotheses come
from a sentence file or from a ``--backtranslate`` command.
Floats are compared with ``==``, so pairing order, exclusion order, the
normalize flag and the choice of reference sentences are all pinned. Each
pose value is written in a drawn spelling that reads back bit for bit, so
both of the pose reader's paths are exercised.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import TINY_LAYOUT
from slpeval.cli import main
from slpeval.pose import PoseSequence, normalize_sequence
from slpeval.pose_metrics import ZERO_TRAVEL_EPSILON, hand_travel
from slpeval.text_metrics import TokenizedCorpus, length_error_correlation
from test_pose_metrics import reference_dtw_align
from test_text_metrics import (
    brute_force_edit_cost,
    oracle_sentence,
    reference_bleu_corpus,
    reference_chrf,
    reference_edits,
    reference_rouge_l,
    reference_top_error_words,
)

#: TINY_LAYOUT as a layout descriptor
TINY_LAYOUT_TEXT = "body 0 3\nface 3 1\nlhand 4 1\nrhand 5 1\nneck 0\nlshoulder 1\nrshoulder 2\n"
#: frame 0's neck, left and right shoulder: never collinear
TORSO = np.array([[0.0, 0.0, 0.0], [1.0, 0.25, 0.0], [-1.0, 0.5, 0.125]])
#: small integers make DTW ties likely; the floats give free-form values
COORDINATE = st.one_of(st.integers(-2, 2).map(float), st.just(-0.0),
                       st.floats(-10.0, 10.0, width=64))
#: token spellings that ``float()`` reads back bit for bit: repr (mostly the spelling
#: ``write_pose_file`` writes), 18 significant digits with an exponent, and integral values
#: without a dot; a file with one of the latter two takes the pose reader's line-by-line path
SPELLINGS = (repr, lambda x: format(x, ".17e"),
             lambda x: format(x, ".0f") if x.is_integer() else repr(x))


@st.composite
def pose_frames(draw, static_hands: bool = False) -> np.ndarray:
    frames = draw(arrays(np.float64, (draw(st.integers(1, 6)), 6, 3), elements=COORDINATE))
    frames[0, :3] = TORSO
    if static_hands:  # zero reference travel: the hands never move
        frames[:, 4:] = frames[0, 4:]
    return frames


@st.composite
def corpora(draw):
    """``(ids in reference order, ids in prediction order, pred frames, ref frames)``."""
    ids = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    refs = {i: draw(pose_frames(static_hands=draw(st.booleans()))) for i in ids}
    preds = {i: draw(pose_frames()) for i in ids}
    return ids, draw(st.permutations(ids)), preds, refs


@st.composite
def pose_texts(draw, frames: np.ndarray) -> str:
    """A POSE v1 file of ``frames``, each value in a drawn spelling (half the files repr only)."""
    spellings = st.sampled_from(draw(st.sampled_from([SPELLINGS[:1], SPELLINGS])))
    lines = [f"POSE v1 {len(frames)} 6 3"]
    for row in frames.reshape(len(frames), -1).tolist():
        lines.append(" ".join(draw(spellings)(x) for x in row))
    return "\n".join(lines) + "\n"


def write_manifest(draw, root: Path, order: list[str], frames: dict[str, np.ndarray]) -> Path:
    (root / "poses").mkdir(parents=True)
    for i in order:
        (root / "poses" / f"{i}.pose").write_text(draw(pose_texts(frames[i])), encoding="utf-8")
    manifest = root / "manifest.tsv"
    manifest.write_text("".join(f"{i}\tposes/{i}.pose\n" for i in order), encoding="utf-8")
    return manifest


def reference_pose_sections(ids, preds, refs, normalize: bool) -> tuple[dict, float]:
    """The report's ``pose`` section and duration ratio, by a loop in reference order."""
    mje_sum = ratio_sum = frame_sum = 0.0
    ratio_count = 0
    excluded = []
    for i in ids:
        pred = PoseSequence(id=i, frames=preds[i], layout=TINY_LAYOUT)
        ref = PoseSequence(id=i, frames=refs[i], layout=TINY_LAYOUT)
        if normalize:
            pred, ref = normalize_sequence(pred), normalize_sequence(ref)
        cost, length = reference_dtw_align(pred, ref)
        mje_sum += cost / length
        ref_travel = hand_travel(ref)
        if ref_travel < ZERO_TRAVEL_EPSILON:
            excluded.append(i)
        else:
            ratio_sum += hand_travel(pred) / ref_travel
            ratio_count += 1
        frame_sum += pred.num_frames / ref.num_frames
    pose = {
        "dtw_mje": mje_sum / len(ids),
        "total_distance": ratio_sum / ratio_count if ratio_count else None,
        "excluded_ids": excluded,
    }
    return pose, frame_sum / len(ids)


@settings(max_examples=60, deadline=None)
@given(corpus=corpora(), normalize=st.booleans(), data=st.data())
def test_evaluate_pose_sections_equal_the_reference_loop(corpus, normalize, data):
    ids, pred_order, preds, refs = corpus
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        layout = root / "layout.txt"
        layout.write_text(TINY_LAYOUT_TEXT, encoding="utf-8")
        pred = write_manifest(data.draw, root / "pred", pred_order, preds)
        ref = write_manifest(data.draw, root / "ref", ids, refs)
        argv = ["evaluate", "--pred", str(pred), "--ref", str(ref), "--layout", str(layout)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv if normalize else [*argv, "--no-normalize"])
    assert code == 0
    report = json.loads(out.getvalue())
    pose, ratio = reference_pose_sections(ids, preds, refs, normalize)
    assert report["pose"] == pose
    assert report["diagnostics"]["duration_ratio"] == ratio


# ---------------------------------------------------------------- text

#: a sentence fills the rest of one line, so it holds no line break
line_sentence = oracle_sentence.filter(lambda s: "\n" not in s and "\r" not in s)


@st.composite
def text_corpora(draw):
    """``(ids in reference order, ids in hypothesis order, hyps, refs, reference source)``.

    With both sources the manifest carries sentences of its own, which ``--ref-text``
    must override.
    """
    ids = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    refs = {i: draw(line_sentence) for i in ids}
    if not any(TokenizedCorpus.from_raw(list(refs.values())).sentences):
        refs[draw(st.sampled_from(ids))] = draw(st.sampled_from(["a", "ä b", "日本"]))
    hyps = {i: draw(st.one_of(st.just(""), line_sentence)) for i in ids}
    source = draw(st.sampled_from(["text", "manifest", "both"]))
    return ids, draw(st.permutations(ids)), hyps, refs, source


def reference_text_sections(ids, hyps, refs) -> tuple[dict, dict]:
    """The report's ``text`` section and its text diagnostics, by the oracles."""
    h = TokenizedCorpus.from_raw([hyps[i] for i in ids])
    r = TokenizedCorpus.from_raw([refs[i] for i in ids])
    costs = [brute_force_edit_cost(hyp, ref) for hyp, ref in zip(h.sentences, r.sentences)]
    ref_tokens = sum(len(ref) for ref in r.sentences)
    text = dict(zip(["bleu1", "bleu2", "bleu3", "bleu4"], reference_bleu_corpus(h, r)))
    text.update(chrf=reference_chrf(h, r), rouge=reference_rouge_l(h, r))
    edits = [reference_edits(hyp, ref) for hyp, ref in zip(h.sentences, r.sentences)]
    text["wer"] = {"rate": 100.0 * sum(costs) / ref_tokens, "ref_tokens": ref_tokens}
    for name, *counts in zip(["substitutions", "deletions", "insertions"], *edits):
        text["wer"][name] = sum(counts)
    scored = [(len(ref), cost) for ref, cost in zip(r.sentences, costs) if ref]
    correlation = length_error_correlation(
        [length for length, _ in scored], [100.0 * cost / length for length, cost in scored]
    )
    # the report keeps the ten most frequent
    words = [[word, count] for word, count in reference_top_error_words(h, r, 10)]
    return text, {"length_error_correlation": correlation, "top_error_words": words}


@settings(max_examples=100, deadline=None)
@given(corpus=text_corpora())
def test_evaluate_text_sections_equal_the_oracles(corpus):
    ids, hyp_order, hyps, refs, source = corpus
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        hyp_file = root / "hyp.tsv"
        hyp_file.write_text("".join(f"{i}\t{hyps[i]}\n" for i in hyp_order), encoding="utf-8")
        argv = ["evaluate", "--hyp", str(hyp_file)]
        if source != "manifest":
            ref_text = root / "ref.tsv"
            ref_text.write_text("".join(f"{i}\t{refs[i]}\n" for i in ids), encoding="utf-8")
            argv += ["--ref-text", str(ref_text)]
        if source != "text":
            # with both sources, the manifest's own sentences must lose to --ref-text
            shadow = refs if source == "manifest" else {i: f"x{i} {refs[i]}" for i in ids}
            manifest = root / "manifest.tsv"
            manifest.write_text("".join(f"{i}\tposes/{i}.pose\t{shadow[i]}\n" for i in ids),
                                encoding="utf-8")
            argv += ["--ref", str(manifest)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code == 0
    report = json.loads(out.getvalue())
    text, diagnostics = reference_text_sections(ids, hyps, refs)
    assert report["text"] == text
    assert {key: report["diagnostics"][key] for key in diagnostics} == diagnostics


#: a back-translation command: each pose path on stdin becomes the sentence
#: that the JSON file named by its one argument maps the path's stem to
BACKTRANSLATE_HOOK = (
    "import json, pathlib, sys\n"
    "sentences = json.loads(pathlib.Path(sys.argv[1]).read_text(encoding='utf-8'))\n"
    "for line in sys.stdin.buffer:\n"
    "    stem = pathlib.Path(line.decode('utf-8').rstrip('\\n')).stem\n"
    "    sys.stdout.buffer.write(sentences[stem].encode('utf-8') + b'\\n')\n"
)


@settings(max_examples=25, deadline=None)
@given(corpus=text_corpora(), data=st.data())
def test_evaluate_backtranslated_text_sections_equal_the_oracles(corpus, data):
    ids, pred_order, hyps, refs, _ = corpus
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        frames = {i: data.draw(pose_frames()) for i in ids}
        pred = write_manifest(data.draw, root / "pred", pred_order, frames)
        layout = root / "layout.txt"
        layout.write_text(TINY_LAYOUT_TEXT, encoding="utf-8")
        sentences = root / "sentences.json"
        sentences.write_text(json.dumps(hyps), encoding="utf-8")
        ref_text = root / "ref.tsv"
        ref_text.write_text("".join(f"{i}\t{refs[i]}\n" for i in ids), encoding="utf-8")
        hook = shlex.join([sys.executable, "-c", BACKTRANSLATE_HOOK, str(sentences)])
        argv = ["evaluate", "--pred", str(pred), "--backtranslate", hook,
                "--ref-text", str(ref_text), "--layout", str(layout)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code == 0
    report = json.loads(out.getvalue())
    text, diagnostics = reference_text_sections(ids, hyps, refs)
    assert "pose" not in report
    assert report["text"] == text
    assert {key: report["diagnostics"][key] for key in diagnostics} == diagnostics
