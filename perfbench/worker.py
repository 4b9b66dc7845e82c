"""One measured process: set up, run whole rounds of one workload, check.

Started by run.py with the checkout's `src` on PYTHONPATH. It prints
`READY` as soon as set-up is done (run.py times set-up from process start
to that line) and, at the end, one JSON line with the rounds' wall times,
the per-round sizes, the peak resident set, the check result, for `train`
the label-prior contrast of the last round and, when traced, the per-round
layer split.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ctctiming  # noqa: E402  (set-up cost is part of what is measured)
from ctctiming import cli, ctc, synth  # noqa: E402

import refs  # noqa: E402


class CheckFailed(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Train:
    """Reduced label-prior and peak-regularizer grids plus one cetc training."""

    def __init__(self, inputs: Path, scratch: Path):
        self.truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
        t = self.truth
        self.spec = synth.CorpusSpec(n_utts=t["n_utts"], seed=t["corpus_seed"])
        self.pfr_spec = dataclasses.replace(
            synth.pfr_corpus_spec(), n_utts=t["n_utts"], seed=t["corpus_seed"])
        self.trainings: list = []
        self._train = synth.train

    @functools.cached_property
    def splits(self) -> dict:
        """The training splits the measured program builds: default and pfr corpus."""
        return {name: synth.split_corpus(synth.generate_corpus(spec))[0]
                for name, spec in (("default", self.spec), ("pfr", self.pfr_spec))}

    def size(self) -> tuple[int, float]:
        t, ep = self.truth, self.truth["epochs"]
        # sweep_gamma trains once per gamma, sweep_pfr once per lambda, and a
        # cetc training runs its epochs twice (the ctc stage, then the cetc stage)
        passes = {"default": len(t["gammas_train"]) * ep["gamma"] + 2 * ep["cetc"],
                  "pfr": len(t["lambdas"]) * ep["pfr"]}
        ops = sum(n * len(self.splits[k]) for k, n in passes.items())
        frames = sum(n * sum(u.n_frames for u in self.splits[k]) for k, n in passes.items())
        return ops, frames * t["frame_ms"] / 1000.0

    def contrast(self) -> dict:
        """Peaky (gamma_train 0, decoded without prior) against label-prior
        (gamma_train 0.5, decoded at gamma_inf 1) in the last round's sweep;
        the method should give the second lower blank occupancy and a higher
        %WS<80. Reported, not checked: the program does not do so (CHANGES.md)."""
        rows = {(r["gamma_train"], r["gamma_inf"]): r for r in self.gamma_rows}
        peaky, prior = rows[(0.0, 0.0)], rows[(0.5, 1.0)]
        return {
            "peaky": {k: peaky[k] for k in ("blank_occupancy", "pct_ws_80")},
            "label_prior": {k: prior[k] for k in ("blank_occupancy", "pct_ws_80")},
            "holds": (prior["blank_occupancy"] < peaky["blank_occupancy"]
                      and prior["pct_ws_80"] > peaky["pct_ws_80"]),
        }

    def _observe(self, config, corpus, n_classes=None):
        clf, records = self._train(config, corpus, n_classes)
        self.trainings.append((config, clf, records))
        return clf, records

    def run_round(self) -> None:
        t = self.truth
        sgd = {"seed": t["model_seed"], "batch_size": t["batch_size"],
               "learning_rate": t["learning_rate"]}
        self.trainings = []
        synth.train = self._observe  # the sweeps return rows; the checks need the models
        try:
            self.gamma_rows = synth.sweep_gamma(
                spec=self.spec, gammas_train=tuple(t["gammas_train"]), gammas_inf=(0.0, 1.0),
                thresholds=(20.0, 80.0), epochs=t["epochs"]["gamma"], **sgd)
            self.pfr_rows = synth.sweep_pfr(
                spec=self.pfr_spec, lambdas=tuple(t["lambdas"]), epochs=t["epochs"]["pfr"], **sgd)
            corpus = synth.generate_corpus(self.spec)
            train_split, _ = synth.split_corpus(corpus)
            synth.train(synth.TrainConfig(method="cetc", epochs=t["epochs"]["cetc"], **sgd),
                        train_split, self.spec.vocab_size + 1)
        finally:
            synth.train = self._train

    def check(self) -> None:
        t = self.truth
        _require(len(self.trainings) == len(t["gammas_train"]) + len(t["lambdas"]) + 1,
                 f"expected one training per grid point, saw {len(self.trainings)}")
        for config, _, records in self.trainings:
            for stage in sorted({r.stage for r in records}):
                losses = [r.mean_loss for r in records if r.stage == stage]
                _require(losses[-1] < losses[0],
                         f"{stage} loss rose from {losses[0]} to {losses[-1]}")
        for row in self.gamma_rows + self.pfr_rows:
            _require(0.0 <= row["blank_occupancy"] <= 1.0, f"blank occupancy out of range: {row}")
            for key in ("pct_ws_20", "pct_we_20", "pct_ws_80", "pct_we_80"):
                _require(0.0 <= row[key] <= 100.0, f"{key} out of range: {row}")
        # the program's loss on the trained models against the forward recursion
        for config, clf, _ in self.trainings:
            if config.method == "cetc":
                continue
            utts = self.splits["pfr" if config.method == "pfr" else "default"]
            for utt in (utts[0], utts[len(utts) // 2], utts[-1]):
                logits, _ = synth.model_forward(clf, utt.features_hi, utt.utt_id)
                for gamma in (0.0, config.gamma_train):
                    log_probs = refs.prior_log_probs(logits.frames, gamma)
                    got, _ = ctc.ctc_loss(log_probs, utt.labels)
                    want = refs.ctc_nll(log_probs, utt.labels.tokens)
                    _require(math.isclose(got, want, rel_tol=1e-9),
                             f"ctc_loss {got} != forward reference {want} on {utt.utt_id}")


class Align:
    """`ctctiming align` over a logits JSONL file with planted spans."""

    def __init__(self, inputs: Path, scratch: Path):
        self.inputs = inputs
        self.truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
        self.out = scratch / "hyp.jsonl"
        self.argv = ["align", "--logits", str(inputs / "logits.jsonl"),
                     "--labels", str(inputs / "labels.jsonl"),
                     "--vocab", str(inputs / "vocab.txt"), "--out", str(self.out)]

    def size(self) -> tuple[int, float]:
        t = self.truth
        return len(t["utts"]), t["total_frames"] * t["frame_ms"] / 1000.0

    def run_round(self) -> None:
        code = cli.main(self.argv)
        _require(code == 0, f"align exited {code}")

    def check(self) -> None:
        t = self.truth
        frame_ms = t["frame_ms"]
        _require(not Path(str(self.out) + ".errors").exists(), "align wrote an .errors sidecar")
        with open(self.out, encoding="utf-8") as handle:
            got = {rec["utt"]: [(w["w"], w["start_ms"], w["end_ms"]) for w in rec["words"]]
                   for rec in map(json.loads, handle)}
        _require(sorted(got) == sorted(u["utt"] for u in t["utts"]),
                 f"align wrote {len(got)} of {len(t['utts'])} utterances")
        for utt in t["utts"]:
            words = [tuple(w) for w in utt["words"]]
            planted = refs.word_times([tuple(s) for s in utt["spans"]], words, frame_ms)
            _require(got[utt["utt"]] == planted,
                     f"{utt['utt']}: timings differ from the planted alignment")
        # rebuild sampled utterances with the benchmark's own Viterbi
        by_len = sorted(t["utts"], key=lambda u: u["n_frames"])
        sample = {u["utt"]: u for u in by_len[:: max(1, len(by_len) // 6)] + by_len[-1:]}
        with open(self.inputs / "logits.jsonl", encoding="utf-8") as handle:
            for line in handle:
                rec = json.loads(line)
                utt = sample.get(rec["utt"])
                if utt is None:
                    continue
                log_probs = refs.prior_log_probs(np.asarray(rec["frames"]), t["gamma_inf"])
                path = refs.viterbi_states(log_probs, utt["tokens"])
                spans = refs.token_frames(path, len(utt["tokens"]))
                words = [tuple(w) for w in utt["words"]]
                want = refs.word_times(spans, words, frame_ms, t["offset_ms"])
                _require(got[utt["utt"]] == want,
                         f"{utt['utt']}: CLI timings differ from the reference Viterbi")


class Score:
    """`ctctiming metrics` and `ctctiming gridsearch` over long documents."""

    def __init__(self, inputs: Path, scratch: Path):
        self.truth = t = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
        hyp, ref = str(inputs / "hyp.jsonl"), str(inputs / "ref.jsonl")
        self.report = scratch / "metrics.json"
        self.grid_report = scratch / "grid.json"
        lo, hi, step = t["grid"]
        self.commands = [
            ["metrics", "--hyp", hyp, "--ref", ref, "--no-timestamp",
             "--thresholds", ",".join(f"{x:g}" for x in t["thresholds"]),
             "--out", str(self.report)],
            ["gridsearch", "--hyp", hyp, "--ref", ref, "--no-timestamp",
             f"--range={lo:g}:{hi:g}:{step:g}", "--threshold", f"{t['grid_threshold']:g}",
             "--out", str(scratch / "curve.csv"), "--report", str(self.grid_report)],
        ]

    def size(self) -> tuple[int, float]:
        docs = self.truth["docs"]
        span_ms = sum(d["ref"][-1][2] - d["ref"][0][1] for d in docs)
        return len(self.commands) * len(docs), len(self.commands) * span_ms / 1000.0
    def run_round(self) -> None:
        for argv in self.commands:
            code = cli.main(argv)
            _require(code == 0, f"{argv[0]} exited {code}")

    def _expected(self, thresholds, shift: float) -> dict:
        d_start, d_end = [], []
        n_hyp = n_ref = 0
        for doc in self.truth["docs"]:
            n_hyp += len(doc["hyp"])
            n_ref += len(doc["ref"])
            for h, r in doc["pairs"]:
                hyp, ref = doc["hyp"][h], doc["ref"][r]
                d_start.append(max(hyp[1] + shift, 0.0) - ref[1])
                d_end.append(max(hyp[2] + shift, 0.0) - ref[2])
        n = len(d_start)
        return {
            "n_matched": n, "n_hyp": n_hyp, "n_ref": n_ref,
            "pct_ws": {str(float(x)): 100.0 * sum(abs(d) < x for d in d_start) / n
                       for x in thresholds},
            "pct_we": {str(float(x)): 100.0 * sum(abs(d) < x for d in d_end) / n
                       for x in thresholds},
        }

    def _compare(self, what: str, got: dict, want: dict) -> None:
        for key in ("n_matched", "n_hyp", "n_ref"):
            _require(got[key] == want[key], f"{what}: {key} {got[key]} != {want[key]}")
        for key in ("pct_ws", "pct_we"):
            for tau, value in want[key].items():
                _require(math.isclose(got[key][tau], value, rel_tol=1e-12, abs_tol=1e-12),
                         f"{what}: {key}<{tau} {got[key][tau]} != {value}")

    def check(self) -> None:
        t = self.truth
        report = json.loads(self.report.read_text(encoding="utf-8"))
        self._compare("metrics", report, self._expected(t["thresholds"], 0.0))
        grid = json.loads(self.grid_report.read_text(encoding="utf-8"))
        _require(grid["best_offset_ms"] == t["offset_ms"],
                 f"gridsearch found {grid['best_offset_ms']}, planted {t['offset_ms']}")
        self._compare("gridsearch", grid, self._expected([t["grid_threshold"]], t["offset_ms"]))


WORKLOADS = {"train": Train, "align": Align, "score": Score}


def _timed_round(work, rounds: list, sink) -> None:
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        work.run_round()
    rounds.append(time.perf_counter() - start)


def _traced_round(work, tracer, traced_rounds: list, sink) -> dict:
    """One round with the tracer installed; its per-layer split."""
    mark, work_before = tracer.mark(), dict(tracer.work)
    tracer.install()
    try:
        _timed_round(work, traced_rounds, sink)
    finally:
        tracer.uninstall()
    self_s, calls = tracer.self_times(mark)
    return {"self_s": self_s, "calls": calls,
            "work": {k: v - work_before.get(k, 0) for k, v in tracer.work.items()}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not args.setup_only:  # no output of an earlier run may pass a check
        shutil.rmtree(args.scratch, ignore_errors=True)
    args.scratch.mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[args.workload](args.inputs, args.scratch)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"program": ctctiming.__file__}
    rounds, traced_rounds = [], []
    with open(os.devnull, "w", encoding="utf-8") as sink:
        try:
            deadline = time.perf_counter() + args.seconds
            if args.trace:
                # untraced and traced rounds take turns in ABBA order, so the
                # drift of the machine's speed falls on both sides alike
                from tracing import Tracer

                tracer, layers = Tracer(), []
                while True:
                    if len(rounds) % 2 == 0:
                        _timed_round(work, rounds, sink)
                    layers.append(_traced_round(work, tracer, traced_rounds, sink))
                    if len(rounds) < len(traced_rounds):
                        _timed_round(work, rounds, sink)
                    if time.perf_counter() >= deadline:
                        break
                tracer.dump(args.scratch / "trace.json")
                result["layers"] = layers
            else:  # whole rounds until the time is up; at least one
                while True:
                    _timed_round(work, rounds, sink)
                    if time.perf_counter() >= deadline:
                        break
        except Exception:  # the program failed: report the round as failed
            traceback.print_exc()
            result.update(failed_rounds=1, correct=False)
        else:
            result.update(failed_rounds=0, peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result.update(rounds=rounds, traced_rounds=traced_rounds)
    # sizes are taken from the program measured, once the timed rounds are over
    result["ops_per_round"], result["audio_s_per_round"] = work.size()
    if result["failed_rounds"]:
        print(json.dumps(result), flush=True)
        return 0
    if isinstance(work, Train):
        result["contrast"] = work.contrast()
    try:
        refs.self_check()
        work.check()
        result["correct"] = True
    except AssertionError as err:  # a CheckFailed, or a reference failing its own check
        print(f"check failed: {err}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
