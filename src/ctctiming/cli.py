"""Command-line pipelines: alignment, scoring, offset search, peak analysis
and the synthetic-corpus trainer.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure.
"""
from __future__ import annotations

import argparse
import math
import re
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import dataio
from .boundary import CetcParams, gridsearch_offset, words_from_spans
from .ctc import LogitMatrix, NoValidPathError, align_spans
from .dataio import DataFormatError
from .metrics import match_words, peak_histogram, peak_items, timing_metrics
from .pfr import PfrParams
from .synth import (
    FRAME_MS,
    CorpusSpec,
    SynthUtterance,
    TrainConfig,
    TrainingDivergedError,
    corpus_blank_occupancy,
    generate_corpus,
    inputs_for,
    model_forward,
    pfr_corpus_spec,
    predict_timings,
    reference_timings,
    split_corpus,
    sweep_gamma,
    sweep_pfr,
    token_text,
    train,
)

USAGE_ERROR, DATA_ERROR, NUMERICAL_ERROR = 1, 2, 3


class UsageError(Exception):
    """Flag combination that argparse alone cannot reject."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like -200:200:10 pass as arguments, not flags
        self._negative_number_matcher = re.compile(r"^-\d+[\d.:]*$")

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _flag_type(parse):
    """An argparse type= that reports parse's ValueError as a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from err
    return convert


def _number(text: str, positive: bool = False) -> float:
    value = float(text)
    if not math.isfinite(value) or positive and value <= 0:
        raise ValueError(f"expected a finite number{' > 0' if positive else ''}, got {text!r}")
    return value


_parse_threshold = _flag_type(lambda text: _number(text, positive=True))


@_flag_type
def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected LO:HI:STEP, got {text!r}")
    lo, hi, step = (_number(p) for p in parts)
    if lo > hi or step <= 0:
        raise ValueError(f"invalid range {text!r}")
    return lo, hi, step


@_flag_type
def _parse_thresholds(text: str) -> list[float]:
    values = [_number(p, positive=True) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError("no thresholds given")
    return values


@_flag_type
def _parse_int_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected LO:HI, got {text!r}")
    return int(parts[0]), int(parts[1])


def _write_errors(out: str, errors: list[dict]) -> None:
    """Replace the <out>.errors sidecar with one {utt, error} record per
    failure; a run without failures leaves none."""
    sidecar = Path(out + ".errors")
    sidecar.unlink(missing_ok=True)
    if errors:
        with open(sidecar, "w", encoding="utf-8") as handle:
            for err in errors:
                handle.write(json.dumps(err) + "\n")
        print(f"{len(errors)} failure(s); see {sidecar}", file=sys.stderr)


def cmd_align(args) -> int:
    vocab = dataio.read_vocab(args.vocab)
    label_map = dataio.read_labels_jsonl(args.labels)
    n_written = 0
    errors = []
    # --out is replaced only by a complete run; an abort leaves it as it was
    partial = Path(args.out + ".tmp")
    out = open(partial, "w", encoding="utf-8")
    try:
        with out:
            for logits in dataio.iter_logits_jsonl(args.logits, frame_ms=args.frame_ms):
                if logits.n_vocab != len(vocab):
                    raise DataFormatError(
                        f"{args.logits}: {logits.utt_id} has width {logits.n_vocab}, "
                        f"vocab has {len(vocab)} entries"
                    )
                entry = label_map.get(logits.utt_id)
                if entry is None:
                    errors.append({"utt": logits.utt_id, "error": "no labels for utterance"})
                    continue
                labels, word_map = entry
                try:
                    spans = align_spans(logits, labels, args.gamma_inf)
                except NoValidPathError as err:
                    errors.append({"utt": logits.utt_id, "error": str(err)})
                    continue
                words = words_from_spans(
                    spans, word_map, logits.frame_ms, args.offset_ms, n_frames=logits.n_frames
                )
                record = {
                    "utt": logits.utt_id,
                    "words": [
                        {"w": w.word, "start_ms": w.start_ms, "end_ms": w.end_ms} for w in words
                    ],
                }
                out.write(json.dumps(record, ensure_ascii=False) + "\n")
                n_written += 1
        partial.replace(args.out)
    except (ValueError, OSError) as err:
        errors.append({"utt": None, "error": f"aborted: {err}"})
        raise
    finally:
        partial.unlink(missing_ok=True)
        _write_errors(args.out, errors)
    print(f"wrote {n_written} utterances to {args.out}")
    return 0


def _summary_row(report, threshold: float) -> str:
    if not report.n_matched:
        return "no matched words"
    return (
        f"ST {report.ave_st_delta_ms:.2f}  ED {report.ave_ed_delta_ms:.2f}  "
        f"%WS<{threshold:g} {report.pct_ws[threshold]:.2f}  "
        f"%WE<{threshold:g} {report.pct_we[threshold]:.2f}  offset 0"
    )


def _read_hyp_ref(args) -> tuple[dict, dict]:
    """Hypothesis and reference timings, which must cover the same utterances."""
    hyp = dataio.read_timings_jsonl(args.hyp)
    ref = dataio.read_timings_jsonl(args.ref)
    missing = sorted(set(ref) - set(hyp))
    extra = sorted(set(hyp) - set(ref))
    if missing or extra:
        raise DataFormatError(
            f"utterance ids differ: missing from hyp {missing[:5]}, "
            f"unexpected in hyp {extra[:5]}"
        )
    return hyp, ref


def cmd_metrics(args) -> int:
    hyp, ref = _read_hyp_ref(args)
    pairs, n_hyp, n_ref = match_words(hyp, dict(sorted(ref.items())))
    report = timing_metrics(pairs, args.thresholds, n_hyp=n_hyp, n_ref=n_ref)
    if args.out:
        dataio.write_metrics_json(args.out, report, timestamp=not args.no_timestamp)
    print(_summary_row(report, args.thresholds[0]))
    return 0


def cmd_gridsearch(args) -> int:
    hyp, ref = _read_hyp_ref(args)
    lo, hi, step = args.range
    best, report, curve = gridsearch_offset(hyp, ref, (lo, hi), step, args.threshold)
    dataio.write_curve_csv(args.out, curve)
    if args.report:
        dataio.write_metrics_json(
            args.report, report, extra={"best_offset_ms": best},
            timestamp=not args.no_timestamp,
        )
    print(f"best_offset_ms {best:g}")
    return 0


def cmd_analyze_peaks(args) -> int:
    if args.bins < 1:
        raise UsageError("--bins must be >= 1")
    label_map = dataio.read_labels_jsonl(args.labels)
    ref = dataio.read_timings_jsonl(args.ref)
    items = []
    errors = []
    for logits in dataio.iter_logits_jsonl(args.logits, frame_ms=args.frame_ms):
        entry = label_map.get(logits.utt_id)
        refs = ref.get(logits.utt_id)
        if entry is None or refs is None:
            missing = "labels" if entry is None else "reference timings"
            errors.append({"utt": logits.utt_id, "error": f"no {missing} for utterance"})
            continue
        labels, word_map = entry
        try:
            spans = align_spans(logits, labels, args.gamma_inf)
        except NoValidPathError as err:
            errors.append({"utt": logits.utt_id, "error": str(err)})
            continue
        items.extend(peak_items(spans, word_map, refs, logits.frame_ms))
    hist = peak_histogram(items, args.bins, (args.range_lo, args.range_hi))
    dataio.write_histogram_csv(args.out, hist.counts, hist.bin_edges)
    _write_errors(args.out, errors)
    mean = "nan" if hist.mean_rel_pos is None else f"{hist.mean_rel_pos:.6g}"
    print(f"mean_rel_pos {mean}  scored {hist.n_scored}  skipped {hist.n_skipped}")
    return 0


def _corpus_spec_from_args(args) -> CorpusSpec:
    base = pfr_corpus_spec() if getattr(args, "preset", None) == "pfr" else CorpusSpec()
    overrides = {}
    for flag in ("n_utts", "vocab_size", "pieces_per_word", "words_per_utt", "span_frames",
                 "gap_frames", "feature_dim", "noise_sigma", "context_window", "corpus_seed"):
        value = getattr(args, flag, None)
        if value is not None:
            overrides["seed" if flag == "corpus_seed" else flag] = value
    try:
        return replace(base, **overrides)
    except ValueError as err:  # every value checked there came from a flag
        raise UsageError(f"corpus flags: {err}") from err


CONFIG_KEYS = {
    "method": str, "gamma_train": float,
    "fuse_features": lambda v: bool(v) if isinstance(v, bool) else v in ("1", "true", "True"),
    "hidden": int, "epochs": int, "batch_size": int, "learning_rate": float,
    "seed": int, "alpha_left": float, "alpha_right": float, "beta": float,
    "mu": int, "tau": float, "lambda_pfr": float,
}

# settings that only some methods read; the rest apply to every method
METHOD_KEYS = {
    "gamma_train": ("npc", "pfr"),
    "alpha_left": ("cetc",), "alpha_right": ("cetc",), "beta": ("cetc",),
    "lambda_pfr": ("pfr",), "mu": ("pfr",), "tau": ("pfr",),
}


def _read_config_file(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8").strip()
    if text.startswith("{"):
        raw = json.loads(text)
    else:
        raw = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip()
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise DataFormatError(f"{path}: unknown config keys {sorted(unknown)}")
    return {k: CONFIG_KEYS[k](v) for k, v in raw.items()}


def _train_config_from_args(args) -> TrainConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    method = values.pop("method", None)
    if method is None:
        raise UsageError("--method is required (peaky|npc|cetc|pfr)")
    for key, methods in METHOD_KEYS.items():
        if key in values and method not in methods:
            raise UsageError(
                f"{key} does not apply to method {method!r} (only to {', '.join(methods)})"
            )
    cetc = CetcParams(**{k: values.pop(k) for k in ("alpha_left", "alpha_right", "beta")
                         if k in values})
    pfr_keys = {k: values.pop(k) for k in ("lambda_pfr", "mu", "tau") if k in values}
    pfr = None
    if method == "pfr":
        if "lambda_pfr" not in pfr_keys:
            raise UsageError("method 'pfr' requires --lambda-pfr")
        pfr = PfrParams(**pfr_keys)
    return TrainConfig(method=method, cetc=cetc, pfr=pfr, **values)


def _write_corpus(corpus: list[SynthUtterance], out_dir: Path, vocab_size: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    dataio.write_logits_jsonl(
        out_dir / "features_lo.jsonl",
        (LogitMatrix(u.utt_id, u.features_lo, FRAME_MS) for u in corpus),
    )
    dataio.write_logits_jsonl(
        out_dir / "features_hi.jsonl",
        (LogitMatrix(u.utt_id, u.features_hi, FRAME_MS) for u in corpus),
    )
    dataio.write_labels_jsonl(
        out_dir / "labels.jsonl", ((u.utt_id, u.labels, u.word_map) for u in corpus)
    )
    dataio.write_timings_jsonl(out_dir / "ref_timings.jsonl", reference_timings(corpus))
    dataio.write_vocab(out_dir / "vocab.txt", (token_text(i) for i in range(1, vocab_size + 1)))


def _read_corpus(corpus_dir: str) -> list[SynthUtterance]:
    root = Path(corpus_dir)
    lo = {m.utt_id: m for m in dataio.iter_logits_jsonl(root / "features_lo.jsonl")}
    hi = {m.utt_id: m for m in dataio.iter_logits_jsonl(root / "features_hi.jsonl")}
    labels = dataio.read_labels_jsonl(root / "labels.jsonl")
    refs = dataio.read_timings_jsonl(root / "ref_timings.jsonl")
    missing = set(lo) ^ set(hi) | set(lo) ^ set(labels) | set(lo) ^ set(refs)
    if missing:
        raise DataFormatError(f"{corpus_dir}: inconsistent utterance ids: {sorted(missing)[:5]}")
    corpus = []
    for utt_id, mat in lo.items():
        seq, word_map = labels[utt_id]
        corpus.append(
            SynthUtterance(utt_id, mat.frames, hi[utt_id].frames, seq, word_map, refs[utt_id])
        )
    return corpus


def cmd_synth_gen(args) -> int:
    spec = _corpus_spec_from_args(args)
    corpus = generate_corpus(spec)
    _write_corpus(corpus, Path(args.out_dir), spec.vocab_size)
    print(f"wrote {len(corpus)} utterances to {args.out_dir}")
    return 0


def _holdout_split(corpus: list[SynthUtterance], holdout_every: int):
    """(training, evaluation) utterances; holdout_every 0 uses all for both."""
    if holdout_every < 0:
        raise UsageError(f"--holdout-every must be >= 0, got {holdout_every}")
    if not holdout_every:
        return corpus, corpus
    return split_corpus(corpus, holdout_every)


def cmd_synth_train(args) -> int:
    corpus, _ = _holdout_split(_read_corpus(args.corpus_dir), args.holdout_every)
    config = _train_config_from_args(args)
    clf, records = train(config, corpus)
    dataio.save_classifier(args.model_out, clf)
    print(
        f"trained {config.method}: final loss {records[-1].mean_loss:.4f}, "
        f"blank occupancy {corpus_blank_occupancy(clf, corpus):.3f}; model at {args.model_out}"
    )
    return 0


def cmd_synth_eval(args) -> int:
    _, corpus = _holdout_split(_read_corpus(args.corpus_dir), args.holdout_every)
    clf = dataio.load_classifier(args.model)
    hyp = predict_timings(clf, corpus, args.gamma_inf, args.offset_ms)
    ref = reference_timings(corpus)
    pairs, n_hyp, n_ref = match_words(hyp, ref)
    report = timing_metrics(pairs, args.thresholds, n_hyp=n_hyp, n_ref=n_ref)
    if args.report:
        dataio.write_metrics_json(args.report, report, timestamp=not args.no_timestamp)
    if args.dump_logits:
        mats = [model_forward(clf, inputs_for(clf, utt), utt.utt_id)[0] for utt in corpus]
        dataio.write_logits_jsonl(args.dump_logits, mats)
    if args.dump_hyp:
        dataio.write_timings_jsonl(args.dump_hyp, hyp)
    if args.dump_ref:
        dataio.write_timings_jsonl(args.dump_ref, ref)
    print(_summary_row(report, args.thresholds[0]))
    return 0


def cmd_synth_sweep(args) -> int:
    if args.preset is None:
        args.preset = "pfr" if args.kind == "pfr" else "default"
    if args.kind == "gamma":
        rows = sweep_gamma(spec=_corpus_spec_from_args(args))
    else:
        rows = sweep_pfr(spec=_corpus_spec_from_args(args))
    csv_text = dataio.sweep_rows_to_csv(rows)
    Path(args.out).write_text(csv_text, encoding="utf-8")
    print(csv_text, end="")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ctctiming",
        description="Word timings from frame-level CTC classifiers.",
        epilog=(
            "file formats: logits/features JSONL {utt, frame_ms, frames[TxV]}; "
            "labels JSONL {utt, pieces[U], words[{w, first, last}]}; "
            "timings JSONL {utt, words[{w, start_ms, end_ms}]}; "
            "vocab: one token per line, line 0 '<blank>'"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", parents=[], help="forced-align logits to word timings")
    p.add_argument("--logits", required=True, help="logits JSONL")
    p.add_argument("--labels", required=True, help="labels + word map JSONL")
    p.add_argument("--vocab", required=True, help="vocab file, line 0 '<blank>'")
    p.add_argument("--gamma-inf", type=float, default=1.0)
    p.add_argument("--frame-ms", type=float, default=None,
                   help="override the per-file frame duration")
    p.add_argument("--offset-ms", type=float, default=0.0)
    p.add_argument("--out", required=True, help="hypothesis timings JSONL")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("metrics", help="score hypothesis timings against a reference")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--thresholds", type=_parse_thresholds, default="80,200",
                   help="comma-separated ms thresholds")
    p.add_argument("--out", default=None, help="metrics report JSON")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("gridsearch", help="search the constant offset maximizing accuracy")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--range", type=_parse_range, default="-200:200:10", help="LO:HI:STEP in ms")
    p.add_argument("--threshold", type=_parse_threshold, default=80.0)
    p.add_argument("--out", required=True, help="offset,score curve CSV")
    p.add_argument("--report", default=None, help="metrics JSON at the best offset")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("analyze-peaks", help="histogram of peak positions within words")
    p.add_argument("--logits", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--gamma-inf", type=float, default=1.0)
    p.add_argument("--frame-ms", type=float, default=None)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--range-lo", type=float, default=-1.0)
    p.add_argument("--range-hi", type=float, default=2.0)
    p.add_argument("--out", required=True, help="histogram CSV")
    p.set_defaults(func=cmd_analyze_peaks)

    synth = sub.add_parser("synth", help="synthetic corpus generation, training, evaluation")
    ssub = synth.add_subparsers(dest="synth_command", required=True)

    def corpus_flags(sp):
        sp.add_argument("--preset", choices=["default", "pfr"], default=None)
        sp.add_argument("--n-utts", dest="n_utts", type=int, default=None)
        sp.add_argument("--vocab-size", dest="vocab_size", type=int, default=None)
        for flag in ("--pieces-per-word", "--words-per-utt", "--span-frames", "--gap-frames"):
            sp.add_argument(flag, type=_parse_int_range, default=None, help="LO:HI")
        sp.add_argument("--feature-dim", dest="feature_dim", type=int, default=None)
        sp.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None)
        sp.add_argument("--context-window", dest="context_window", type=int, default=None)
        sp.add_argument("--corpus-seed", dest="corpus_seed", type=int, default=None)

    def config_flags(sp):
        sp.add_argument("--config", default=None, help="JSON or key=value config file")
        sp.add_argument("--method", choices=["peaky", "npc", "cetc", "pfr"], default=None)
        sp.add_argument("--gamma-train", dest="gamma_train", type=float, default=None)
        sp.add_argument("--fuse-features", dest="fuse_features", action="store_const",
                        const=True, default=None)
        sp.add_argument("--hidden", type=int, default=None)
        sp.add_argument("--epochs", type=int, default=None)
        sp.add_argument("--batch-size", dest="batch_size", type=int, default=None)
        sp.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--alpha-left", dest="alpha_left", type=float, default=None)
        sp.add_argument("--alpha-right", dest="alpha_right", type=float, default=None)
        sp.add_argument("--beta", type=float, default=None)
        sp.add_argument("--mu", type=int, default=None)
        sp.add_argument("--tau", type=float, default=None)
        sp.add_argument("--lambda-pfr", dest="lambda_pfr", type=float, default=None)

    p = ssub.add_parser("gen", help="generate a corpus directory")
    corpus_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth_gen)

    p = ssub.add_parser("train", help="train a classifier on a corpus directory")
    p.add_argument("--corpus-dir", required=True)
    config_flags(p)
    p.add_argument("--holdout-every", type=int, default=0,
                   help="train on all but every N-th utterance")
    p.add_argument("--model-out", required=True, help="classifier .npz path")
    p.set_defaults(func=cmd_synth_train)

    p = ssub.add_parser("eval", help="evaluate a trained classifier")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--gamma-inf", dest="gamma_inf", type=float, default=1.0)
    p.add_argument("--offset-ms", dest="offset_ms", type=float, default=0.0)
    p.add_argument("--thresholds", type=_parse_thresholds, default="20,80")
    p.add_argument("--holdout-every", type=int, default=0,
                   help="evaluate only every N-th utterance")
    p.add_argument("--report", default=None)
    p.add_argument("--dump-logits", default=None, help="write model logits as JSONL")
    p.add_argument("--dump-hyp", default=None, help="write hypothesis timings as JSONL")
    p.add_argument("--dump-ref", default=None, help="write reference timings as JSONL")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_synth_eval)

    p = ssub.add_parser("sweep", help="run the label-prior or peak-regularizer grid")
    p.add_argument("--kind", choices=["gamma", "pfr"], required=True)
    corpus_flags(p)
    p.add_argument("--out", required=True, help="sweep table CSV")
    p.set_defaults(func=cmd_synth_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, FileNotFoundError) as err:  # DataFormatError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return DATA_ERROR
    except TrainingDivergedError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
