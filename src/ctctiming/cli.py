"""Command-line pipelines: alignment, scoring, offset search, peak analysis
and the synthetic-corpus trainer.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import dataio
from .boundary import gridsearch_offset, offset_count, words_from_spans
from .ctc import LogitMatrix, NoValidPathError, align_spans
from .dataio import DataFormatError
from .metrics import peak_histogram, peak_items, timing_metrics
from .synth import (
    FRAME_MS,
    METHODS,
    Classifier,
    CorpusSpec,
    SynthUtterance,
    TrainConfig,
    TrainingDivergedError,
    check_sweep_spec,
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
    """A malformed, missing or unknown flag or command, as argparse finds it,
    or a flag combination that argparse alone cannot reject; main returns
    USAGE_ERROR for either."""


# the namespace entry, during one parse, of the flags given so far
_GIVEN = "_flags_given"


def _store_once(action_class):
    """action_class, refusing its flag a second time in one parse: a repeated
    flag is a usage error, not a silent override. What it has seen lives in
    the parse's namespace, so the cached parser keeps no state between parses."""
    class StoreOnce(action_class):
        def __call__(self, parser, namespace, values, option_string=None):
            given = vars(namespace).setdefault(_GIVEN, set())
            if self.dest in given:
                raise argparse.ArgumentError(self, "given twice")
            given.add(self.dest)
            super().__call__(parser, namespace, values, option_string)
    return StoreOnce


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like -200:200:10 pass as arguments, not flags
        self._negative_number_matcher = re.compile(r"^-\d+[\d.:]*$")
        for name in (None, "store", "store_const", "store_true"):  # None: the default action
            self.register("action", name, _store_once(self._registry_get("action", name)))

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        vars(namespace).pop(_GIVEN, None)
        return namespace, extras

    def error(self, message):
        raise UsageError(message)


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


_parse_number = _flag_type(_number)
_parse_positive = _flag_type(lambda text: _number(text, positive=True))


@_flag_type
def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected LO:HI:STEP, got {text!r}")
    lo, hi, step = (_number(p) for p in parts)
    offset_count((lo, hi), step)
    return lo, hi, step


@_flag_type
def _parse_thresholds(text: str) -> list[float]:
    values = [_number(p, positive=True) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError("no thresholds given")
    return values


def _parse_int_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected LO:HI, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "1", "false", "0"):
        raise ValueError(f"expected true, false, 1 or 0, got {text!r}")
    return text.lower() in ("true", "1")


# one parser per declared setting type, for its flag and its config value alike
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool,
            "tuple[int, int]": _parse_int_range}


def _settings(cls) -> dict[str, str]:
    """Each init field of the settings dataclass cls, mapped to its declared type."""
    return {f.name: f.type.removesuffix(" | None") for f in fields(cls) if f.init}


_CORPUS_SETTINGS = _settings(CorpusSpec)
_TRAIN_SETTINGS = _settings(TrainConfig)


@contextmanager
def _sidecar(out: str):
    """Yield the list of a run's failures, one {utt, error} record each, and
    on exit replace the <out>.errors sidecar with them. A run that aborts,
    wherever it does, ends them with an {utt: null, error: "aborted: ..."}
    record; a run without failures leaves no sidecar."""
    failures = []
    try:
        yield failures
    except BaseException as err:
        failures.append({"utt": None, "error": f"aborted: {str(err) or type(err).__name__}"})
        raise
    finally:
        sidecar = Path(out + ".errors")
        sidecar.unlink(missing_ok=True)
        if failures:
            sidecar.write_text("".join(json.dumps(f) + "\n" for f in failures), encoding="utf-8")
            print(f"{len(failures)} failure(s); see {sidecar}", file=sys.stderr)


@dataclass(frozen=True)
class _AlignJob:
    """What every range of one alignment run shares."""

    logits: str
    frame_ms: float | None
    gamma_inf: float
    label_map: dict
    refs: dict | None = None  # analyze-peaks: an utterance also needs reference timings
    n_vocab: int | None = None  # align: every record must have the vocab's width


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _align_range(job: _AlignJob, byte_range) -> list[tuple]:
    """Align the utterances of one byte range of job.logits.

    One (line, utt, frame_ms, n_frames, outcome) tuple per record, in file
    order; the outcome is align_spans' (3, U) int64 span array, or the
    message of a failure that skips only this utterance. An error that aborts the run ends the list as
    its outcome, with line and utt None when the record could not be read.
    """
    found = []
    lineno = utt = None
    try:
        for lineno, logits in dataio.numbered_logits(job.logits, job.frame_ms, byte_range):
            utt = logits.utt_id
            if job.n_vocab is not None and logits.n_vocab != job.n_vocab:
                raise DataFormatError(
                    f"{job.logits}: {utt} has width {logits.n_vocab}, "
                    f"vocab has {job.n_vocab} entries"
                )
            entry = job.label_map.get(utt)
            if entry is None or job.refs is not None and utt not in job.refs:
                outcome = f"no {'labels' if entry is None else 'reference timings'} for utterance"
            else:
                try:
                    outcome = align_spans(logits, entry[0], job.gamma_inf)
                except NoValidPathError as err:
                    outcome = str(err)
            found.append((lineno, utt, logits.frame_ms, logits.n_frames, outcome))
            lineno = utt = None
    except Exception as err:  # any error: the parent raises the first in file order
        found.append((lineno, utt, None, None, err))
    return found


# a pool worker's job, handed over through fork by _start_worker
_worker_job: _AlignJob | None = None


def _start_worker(job: _AlignJob) -> None:
    global _worker_job
    _worker_job = job


def _align_in_worker(byte_range) -> list[tuple]:
    return _align_range(_worker_job, byte_range)


@contextmanager
def _alignments(job: _AlignJob, failures: list[dict]):
    """Iterator over (utt, frame_ms, n_frames, spans) for each aligned record
    of job.logits, in file order, that appends each utterance it skips to
    failures as an {utt, error} record and raises the run's first error in
    file order; see _align_range.

    With more than one usable CPU, fork available and a regular file (a pipe
    cannot be split), byte ranges of the file (about four per CPU) go to a
    pool of forked workers as each frees up, and only their small results
    come back; otherwise the one range function reads the whole input
    inline, front to back. Either way the results, errors and messages are
    the same. On exit the pool is shut down, its unstarted ranges cancelled.
    """
    cpus = _usable_cpus()
    ranges = [dataio.WHOLE_FILE]
    if cpus > 1 and Path(job.logits).is_file():
        import multiprocessing  # here, not at the top: it costs start-up time

        if "fork" in multiprocessing.get_all_start_methods():
            ranges = dataio.line_ranges(job.logits, 4 * cpus)
    if len(ranges) < 2:
        yield _in_file_order(job, (_align_range(job, r) for r in ranges), failures)
        return
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: the workers inherit the job instead of unpickling it
    pool = ProcessPoolExecutor(min(cpus, len(ranges)),
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(job,))
    try:
        yield _in_file_order(job, pool.map(_align_in_worker, ranges), failures)
    finally:
        pool.shutdown(cancel_futures=True)


def _in_file_order(job: _AlignJob, chunks, failures: list[dict]):
    # a range sees only its own ids: repeats across ranges are found here
    seen: dict[str, int] = {}
    for chunk in chunks:
        for lineno, utt, frame_ms, n_frames, outcome in chunk:
            if utt is not None:
                first = seen.setdefault(utt, lineno)
                if first != lineno:
                    raise DataFormatError(f"{job.logits}:{lineno}: duplicate utterance id "
                                          f"{utt!r} (first on line {first})")
            if isinstance(outcome, Exception):
                raise outcome
            if isinstance(outcome, str):
                failures.append({"utt": utt, "error": outcome})
            else:
                yield utt, frame_ms, n_frames, outcome


def cmd_align(args) -> int:
    n_written = 0
    with _sidecar(args.out) as failures:
        n_vocab = len(dataio.read_vocab(args.vocab))
        label_map = dataio.read_labels_jsonl(args.labels, n_vocab)
        job = _AlignJob(args.logits, args.frame_ms, args.gamma_inf, label_map, n_vocab=n_vocab)
        target = Path(args.out)
        if target.exists() and not target.is_file():  # a device or a FIFO: written in place
            partial, out = None, open(target, "w", encoding="utf-8")
        else:
            # a regular --out is replaced only by a complete run; an abort leaves
            # it as it was. The partial file's name is this run's own.
            fd, name = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # the mode open() would give a new file
            partial, out = Path(name), open(fd, "w", encoding="utf-8")
        try:
            with out, _alignments(job, failures) as results:
                for utt, frame_ms, n_frames, spans in results:
                    words = words_from_spans(
                        spans, label_map[utt][1], frame_ms, args.offset_ms, n_frames=n_frames
                    )
                    out.write(dataio.timings_line(utt, words))
                    n_written += 1
            if partial:
                partial.replace(target)
        finally:
            if partial:
                partial.unlink(missing_ok=True)
    print(f"wrote {n_written} utterances to {args.out}")
    return 0


def _summary_row(report, threshold: float, offset_ms: float) -> str:
    if not report.n_matched:
        return "no matched words"
    return (
        f"ST {report.ave_st_delta_ms:.2f}  ED {report.ave_ed_delta_ms:.2f}  "
        f"%WS<{threshold:g} {report.pct_ws[threshold]:.2f}  "
        # + 0.0 makes a -0.0 offset print as 0
        f"%WE<{threshold:g} {report.pct_we[threshold]:.2f}  offset {offset_ms + 0.0:g}"
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
    report = timing_metrics(hyp, dict(sorted(ref.items())), args.thresholds)
    if args.out:
        dataio.write_metrics_json(args.out, report, timestamp=not args.no_timestamp)
    print(_summary_row(report, args.thresholds[0], 0.0))
    return 0


def cmd_gridsearch(args) -> int:
    hyp, ref = _read_hyp_ref(args)
    lo, hi, step = args.range
    best, report, curve = gridsearch_offset(hyp, ref, (lo, hi), step, args.threshold)
    rows = [{"offset_ms": offset, "score": score} for offset, score in curve]
    Path(args.out).write_text(dataio.rows_to_csv(rows), encoding="utf-8")
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
    if not args.range_lo < args.range_hi:
        raise UsageError(f"--range-lo {args.range_lo:g} must be below --range-hi {args.range_hi:g}")
    with _sidecar(args.out) as failures:
        label_map = dataio.read_labels_jsonl(args.labels)
        ref = dataio.read_timings_jsonl(args.ref)
        job = _AlignJob(args.logits, args.frame_ms, args.gamma_inf, label_map, refs=ref)
        with _alignments(job, failures) as results:
            items = [peak_items(spans, label_map[utt][1], ref[utt], frame_ms)
                     for utt, frame_ms, _, spans in results]
        hist = peak_histogram(items, args.bins, (args.range_lo, args.range_hi))
        rows = [{"bin_lo": lo, "bin_hi": hi, "count": count}
                for lo, hi, count in zip(hist.bin_edges, hist.bin_edges[1:], hist.counts)]
        Path(args.out).write_text(dataio.rows_to_csv(rows), encoding="utf-8")
    mean = "nan" if hist.mean_rel_pos is None else f"{hist.mean_rel_pos:.6g}"
    print(f"mean_rel_pos {mean}  scored {hist.n_scored}  skipped {hist.n_skipped}")
    return 0


def _corpus_spec_from_args(args) -> CorpusSpec:
    base = pfr_corpus_spec() if args.preset == "pfr" else CorpusSpec()
    given = {k: v for k in _CORPUS_SETTINGS if (v := getattr(args, k)) is not None}
    try:
        return replace(base, **given)
    except ValueError as err:  # every value checked there came from a flag
        raise UsageError(f"corpus flags: {err}") from err


def _read_config_file(path: str) -> dict:
    """Settings from a JSON object or key=value lines. Each value parses as
    its flag's does: a JSON value that is not a string as its JSON text."""
    try:
        text = Path(path).read_text(encoding="utf-8").strip()
        if text.startswith("{"):
            raw = {key: value if isinstance(value, str) else json.dumps(value)
                   for key, value in json.loads(text).items()}
        else:
            raw = {}
            for lineno, line in enumerate(text.splitlines(), start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"line {lineno}: expected key=value")
                key, value = line.split("=", 1)
                raw[key.strip()] = value.strip()
        unknown = set(raw) - set(_TRAIN_SETTINGS)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        for key, value in raw.items():
            try:
                raw[key] = _PARSERS[_TRAIN_SETTINGS[key]](value)
            except ValueError as err:
                raise ValueError(f"{key}: {err}") from err
        return raw
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise DataFormatError(f"{path}: {err}") from err


def _train_config_from_args(args) -> TrainConfig:
    values = _read_config_file(args.config) if args.config else {}
    values.update({k: v for k in _TRAIN_SETTINGS if (v := getattr(args, k)) is not None})
    if "method" not in values:
        raise UsageError(f"--method is required ({'|'.join(METHODS)})")
    try:
        return TrainConfig(**values)
    except ValueError as err:  # every value checked there came from a flag or the config
        raise UsageError(str(err)) from err


def _write_corpus(corpus: list[SynthUtterance], out_dir: Path, vocab_size: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for stream in ("features_lo", "features_hi"):  # each file named after its field
        mats = (LogitMatrix(u.utt_id, getattr(u, stream), FRAME_MS) for u in corpus)
        dataio.write_logits_jsonl(out_dir / f"{stream}.jsonl", mats)
    dataio.write_labels_jsonl(
        out_dir / "labels.jsonl", ((u.utt_id, u.labels, u.word_map) for u in corpus)
    )
    dataio.write_timings_jsonl(out_dir / "ref_timings.jsonl", reference_timings(corpus))
    dataio.write_vocab(out_dir / "vocab.txt", (token_text(i) for i in range(1, vocab_size + 1)))


def _read_corpus(corpus_dir: str) -> tuple[list[SynthUtterance], int]:
    """The corpus directory's utterances and the width of its vocabulary,
    which every label id must fit."""
    root = Path(corpus_dir)
    n_vocab = len(dataio.read_vocab(root / "vocab.txt"))
    lo = {m.utt_id: m for m in dataio.iter_logits_jsonl(root / "features_lo.jsonl")}
    hi = {m.utt_id: m for m in dataio.iter_logits_jsonl(root / "features_hi.jsonl")}
    labels = dataio.read_labels_jsonl(root / "labels.jsonl", n_vocab)
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
    return corpus, n_vocab


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
    corpus, n_classes = _read_corpus(args.corpus_dir)
    corpus, _ = _holdout_split(corpus, args.holdout_every)
    config = _train_config_from_args(args)
    clf, records = train(config, corpus, n_classes)
    clf.save(args.model_out)
    print(
        f"trained {config.method}: final loss {records[-1].mean_loss:.4f}, "
        f"blank occupancy {corpus_blank_occupancy(clf, corpus):.3f}; model at {args.model_out}"
    )
    return 0


def cmd_synth_eval(args) -> int:
    corpus, n_vocab = _read_corpus(args.corpus_dir)
    _, corpus = _holdout_split(corpus, args.holdout_every)
    clf = Classifier.load(args.model)
    if clf.n_classes != n_vocab:
        raise ValueError(f"{args.model}: {clf.n_classes} outputs, but "
                         f"{Path(args.corpus_dir) / 'vocab.txt'} has {n_vocab} entries")
    hyp = predict_timings(clf, corpus, args.gamma_inf, args.offset_ms)
    ref = reference_timings(corpus)
    report = timing_metrics(hyp, ref, args.thresholds)
    if args.report:
        dataio.write_metrics_json(args.report, report, timestamp=not args.no_timestamp)
    if args.dump_logits:
        mats = [model_forward(clf, inputs_for(clf, utt), utt.utt_id)[0] for utt in corpus]
        dataio.write_logits_jsonl(args.dump_logits, mats)
    if args.dump_hyp:
        dataio.write_timings_jsonl(args.dump_hyp, hyp)
    if args.dump_ref:
        dataio.write_timings_jsonl(args.dump_ref, ref)
    print(_summary_row(report, args.thresholds[0], args.offset_ms))
    return 0


def cmd_synth_sweep(args) -> int:
    if args.preset is None:
        args.preset = "pfr" if args.kind == "pfr" else "default"
    sweep = sweep_gamma if args.kind == "gamma" else sweep_pfr
    spec = _corpus_spec_from_args(args)
    try:
        check_sweep_spec(spec)
    except ValueError as err:
        raise UsageError(f"--n-utts: {err}") from err
    csv_text = dataio.rows_to_csv(sweep(spec=spec))
    Path(args.out).write_text(csv_text, encoding="utf-8")
    print(csv_text, end="")
    return 0


@functools.cache  # argparse keeps no state between parses: one parser per process
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
    p.add_argument("--gamma-inf", type=_parse_number, default=1.0)
    p.add_argument("--frame-ms", type=_parse_positive, default=None,
                   help="override the per-file frame duration")
    p.add_argument("--offset-ms", type=_parse_number, default=0.0)
    p.add_argument("--out", required=True, help="hypothesis timings JSONL")
    p.set_defaults(func="cmd_align")

    p = sub.add_parser("metrics", help="score hypothesis timings against a reference")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--thresholds", type=_parse_thresholds, default="80,200",
                   help="comma-separated ms thresholds")
    p.add_argument("--out", default=None, help="metrics report JSON")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func="cmd_metrics")

    p = sub.add_parser("gridsearch", help="search the constant offset maximizing accuracy")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--range", type=_parse_range, default="-200:200:10", help="LO:HI:STEP in ms")
    p.add_argument("--threshold", type=_parse_positive, default=80.0)
    p.add_argument("--out", required=True, help="offset,score curve CSV")
    p.add_argument("--report", default=None, help="metrics JSON at the best offset")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func="cmd_gridsearch")

    p = sub.add_parser("analyze-peaks", help="histogram of peak positions within words")
    p.add_argument("--logits", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--gamma-inf", type=_parse_number, default=1.0)
    p.add_argument("--frame-ms", type=_parse_positive, default=None)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--range-lo", type=_parse_number, default=-1.0)
    p.add_argument("--range-hi", type=_parse_number, default=2.0)
    p.add_argument("--out", required=True, help="histogram CSV")
    p.set_defaults(func="cmd_analyze_peaks")

    synth = sub.add_parser("synth", help="synthetic corpus generation, training, evaluation")
    ssub = synth.add_subparsers(dest="synth_command", required=True)

    def setting_flags(sp, settings, **renamed):
        for name, kind in settings.items():
            flag = renamed.get(name, "--" + name.replace("_", "-"))
            if kind == "bool":
                sp.add_argument(flag, dest=name, action="store_const", const=True, default=None)
            else:
                sp.add_argument(flag, dest=name, type=_flag_type(_PARSERS[kind]), default=None,
                                choices=METHODS if name == "method" else None,
                                help="LO:HI" if kind == "tuple[int, int]" else None)

    def corpus_flags(sp):
        sp.add_argument("--preset", choices=["default", "pfr"], default=None)
        setting_flags(sp, _CORPUS_SETTINGS, seed="--corpus-seed")

    def config_flags(sp):
        sp.add_argument("--config", default=None, help="JSON or key=value config file")
        setting_flags(sp, _TRAIN_SETTINGS)

    p = ssub.add_parser("gen", help="generate a corpus directory")
    corpus_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func="cmd_synth_gen")

    p = ssub.add_parser("train", help="train a classifier on a corpus directory")
    p.add_argument("--corpus-dir", required=True)
    config_flags(p)
    p.add_argument("--holdout-every", type=int, default=0,
                   help="train on all but every N-th utterance")
    p.add_argument("--model-out", required=True, help="classifier .npz path")
    p.set_defaults(func="cmd_synth_train")

    p = ssub.add_parser("eval", help="evaluate a trained classifier")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--gamma-inf", type=_parse_number, default=1.0)
    p.add_argument("--offset-ms", type=_parse_number, default=0.0)
    p.add_argument("--thresholds", type=_parse_thresholds, default="20,80")
    p.add_argument("--holdout-every", type=int, default=0,
                   help="evaluate only every N-th utterance")
    p.add_argument("--report", default=None)
    p.add_argument("--dump-logits", default=None, help="write model logits as JSONL")
    p.add_argument("--dump-hyp", default=None, help="write hypothesis timings as JSONL")
    p.add_argument("--dump-ref", default=None, help="write reference timings as JSONL")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func="cmd_synth_eval")

    p = ssub.add_parser("sweep", help="run the label-prior or peak-regularizer grid")
    p.add_argument("--kind", choices=["gamma", "pfr"], required=True)
    corpus_flags(p)
    p.add_argument("--out", required=True, help="sweep table CSV")
    p.set_defaults(func="cmd_synth_sweep")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # by name, so that a command rebound after the parser was built (a
        # tracer's wrapper) is the one that runs
        return globals()[args.func](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as err:  # DataFormatError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return DATA_ERROR
    except TrainingDivergedError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
