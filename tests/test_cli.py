import dataclasses
import json
import multiprocessing
import os
import re
from pathlib import Path

import numpy as np
import pytest

from ctctiming import cli, dataio, synth
from ctctiming.boundary import WordTiming
from ctctiming.cli import CONFIG_KEYS, main
from ctctiming.ctc import LabelSequence, LogitMatrix, align_spans
from ctctiming.boundary import WordMap
from ctctiming.metrics import peak_histogram, peak_items
from ctctiming.synth import (
    FRAME_MS,
    CorpusSpec,
    corpus_blank_occupancy,
    generate_corpus,
    inputs_for,
    model_forward,
    split_corpus,
)


def write_fixture(tmp_path):
    """Tiny alignment problem with unambiguous posteriors."""
    # two utterances, V=3 (blank, t1, t2), clear spans
    rng = np.random.default_rng(0)
    mats = []
    labels_items = []
    ref = {}
    layouts = {
        "u1": [(0, 2, 0), (3, 6, 1), (7, 8, 0), (9, 12, 2), (13, 14, 0)],
        "u2": [(0, 1, 0), (2, 5, 2), (6, 9, 0), (10, 13, 1), (14, 15, 0)],
    }
    for utt, segs in layouts.items():
        n = segs[-1][1] + 1
        logits = np.full((n, 3), -4.0)
        tokens = []
        words = []
        timings = []
        piece = 0
        for lo, hi, tok in segs:
            logits[lo : hi + 1, tok] = 4.0
            if tok != 0:
                tokens.append(tok)
                words.append((f"t{tok}", piece, piece))
                timings.append(WordTiming(f"t{tok}", lo * FRAME_MS, (hi + 1) * FRAME_MS))
                piece += 1
        mats.append(LogitMatrix(utt, logits + 0.01 * rng.normal(size=logits.shape), FRAME_MS))
        labels_items.append((utt, LabelSequence(tuple(tokens)), WordMap(tuple(words))))
        ref[utt] = timings
    dataio.write_logits_jsonl(tmp_path / "logits.jsonl", mats)
    dataio.write_labels_jsonl(tmp_path / "labels.jsonl", labels_items)
    dataio.write_timings_jsonl(tmp_path / "ref.jsonl", ref)
    dataio.write_vocab(tmp_path / "vocab.txt", ["t1", "t2"])
    return ref


class TestAlign:
    def test_align_then_metrics(self, tmp_path, capsys):
        write_fixture(tmp_path)
        rc = main([
            "align", "--logits", str(tmp_path / "logits.jsonl"),
            "--labels", str(tmp_path / "labels.jsonl"),
            "--vocab", str(tmp_path / "vocab.txt"),
            "--gamma-inf", "0.0", "--out", str(tmp_path / "hyp.jsonl"),
        ])
        assert rc == 0
        hyp = dataio.read_timings_jsonl(tmp_path / "hyp.jsonl")
        assert set(hyp) == {"u1", "u2"}

        rc = main([
            "metrics", "--hyp", str(tmp_path / "hyp.jsonl"),
            "--ref", str(tmp_path / "ref.jsonl"),
            "--thresholds", "20,80",
            "--out", str(tmp_path / "report.json"), "--no-timestamp",
        ])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ave_st_delta_ms"] == 0.0
        assert report["pct_ws"]["20.0"] == 100.0
        out = capsys.readouterr().out
        assert "ST 0.00" in out

    def test_offset_flag_shifts_output(self, tmp_path):
        write_fixture(tmp_path)
        for offset in ("0", "40"):
            main([
                "align", "--logits", str(tmp_path / "logits.jsonl"),
                "--labels", str(tmp_path / "labels.jsonl"),
                "--vocab", str(tmp_path / "vocab.txt"),
                "--gamma-inf", "0.0", "--offset-ms", offset,
                "--out", str(tmp_path / f"hyp{offset}.jsonl"),
            ])
        base = dataio.read_timings_jsonl(tmp_path / "hyp0.jsonl")
        shifted = dataio.read_timings_jsonl(tmp_path / "hyp40.jsonl")
        for utt in base:
            for a, b in zip(base[utt], shifted[utt]):
                assert b.start_ms - a.start_ms == pytest.approx(40.0)

    def test_malformed_logits_exit_2(self, tmp_path, capsys):
        write_fixture(tmp_path)
        (tmp_path / "logits.jsonl").write_text("{bad json\n")
        rc = main([
            "align", "--logits", str(tmp_path / "logits.jsonl"),
            "--labels", str(tmp_path / "labels.jsonl"),
            "--vocab", str(tmp_path / "vocab.txt"),
            "--out", str(tmp_path / "hyp.jsonl"),
        ])
        assert rc == 2
        assert ":1" in capsys.readouterr().err

    def test_too_large_integer_in_logits_exit_2(self, tmp_path, capsys):
        write_fixture(tmp_path)
        logits = tmp_path / "logits.jsonl"
        logits.write_text('{"utt": "u0", "frame_ms": 10.0, "frames": [[0, 0, 1%s]]}\n'
                          % ("0" * 400))
        rc = main([
            "align", "--logits", str(logits),
            "--labels", str(tmp_path / "labels.jsonl"),
            "--vocab", str(tmp_path / "vocab.txt"),
            "--out", str(tmp_path / "hyp.jsonl"),
        ])
        assert rc == 2
        assert "logits.jsonl:1: " in capsys.readouterr().err
        assert not (tmp_path / "hyp.jsonl").exists()

    def test_frame_ms_flag_stands_in_for_missing_field(self, tmp_path):
        write_fixture(tmp_path)
        logits = tmp_path / "logits.jsonl"
        records = [json.loads(line) for line in logits.read_text().splitlines()]
        for record in records:
            del record["frame_ms"]
        logits.write_text("".join(json.dumps(record) + "\n" for record in records))
        rc = main([
            "align", "--logits", str(tmp_path / "logits.jsonl"),
            "--labels", str(tmp_path / "labels.jsonl"),
            "--vocab", str(tmp_path / "vocab.txt"),
            "--gamma-inf", "0.0", "--frame-ms", str(2 * FRAME_MS),
            "--out", str(tmp_path / "hyp.jsonl"),
        ])
        assert rc == 0
        hyp = dataio.read_timings_jsonl(tmp_path / "hyp.jsonl")
        ref = dataio.read_timings_jsonl(tmp_path / "ref.jsonl")
        for utt in ref:
            assert [(w.start_ms, w.end_ms) for w in hyp[utt]] == [
                (2 * w.start_ms, 2 * w.end_ms) for w in ref[utt]
            ]

    def test_unalignable_utterance_goes_to_sidecar(self, tmp_path):
        write_fixture(tmp_path)
        # truncate u1 to fewer frames than labels need
        mats = list(dataio.iter_logits_jsonl(tmp_path / "logits.jsonl"))
        mats[0] = LogitMatrix("u1", mats[0].frames[:1], FRAME_MS)
        dataio.write_logits_jsonl(tmp_path / "logits.jsonl", mats)
        rc = main([
            "align", "--logits", str(tmp_path / "logits.jsonl"),
            "--labels", str(tmp_path / "labels.jsonl"),
            "--vocab", str(tmp_path / "vocab.txt"),
            "--gamma-inf", "0.0", "--out", str(tmp_path / "hyp.jsonl"),
        ])
        assert rc == 0
        errors = (tmp_path / "hyp.jsonl.errors").read_text()
        assert "u1" in errors and "no valid path" in errors
        assert set(dataio.read_timings_jsonl(tmp_path / "hyp.jsonl")) == {"u2"}

    def test_clean_rerun_removes_stale_sidecar(self, tmp_path):
        write_fixture(tmp_path)
        argv = [
            "align", "--logits", str(tmp_path / "logits.jsonl"),
            "--labels", str(tmp_path / "partial.jsonl"),
            "--vocab", str(tmp_path / "vocab.txt"),
            "--gamma-inf", "0.0", "--out", str(tmp_path / "hyp.jsonl"),
        ]
        labels = dataio.read_labels_jsonl(tmp_path / "labels.jsonl")
        dataio.write_labels_jsonl(tmp_path / "partial.jsonl", [("u2", *labels["u2"])])
        assert main(argv) == 0
        assert "u1" in (tmp_path / "hyp.jsonl.errors").read_text()
        argv[argv.index(str(tmp_path / "partial.jsonl"))] = str(tmp_path / "labels.jsonl")
        assert main(argv) == 0
        assert not (tmp_path / "hyp.jsonl.errors").exists()
        assert set(dataio.read_timings_jsonl(tmp_path / "hyp.jsonl")) == {"u1", "u2"}

    def test_abort_keeps_previous_output(self, tmp_path):
        write_fixture(tmp_path)
        out = tmp_path / "hyp.jsonl"
        out.write_text("previous run\n")
        labels = dataio.read_labels_jsonl(tmp_path / "labels.jsonl")
        dataio.write_labels_jsonl(tmp_path / "partial.jsonl", [("u2", *labels["u2"])])
        mats = list(dataio.iter_logits_jsonl(tmp_path / "logits.jsonl"))
        mats.append(LogitMatrix("u3", np.zeros((4, 4)), FRAME_MS))  # wrong width
        dataio.write_logits_jsonl(tmp_path / "logits.jsonl", mats)
        rc = main([
            "align", "--logits", str(tmp_path / "logits.jsonl"),
            "--labels", str(tmp_path / "partial.jsonl"),
            "--vocab", str(tmp_path / "vocab.txt"),
            "--gamma-inf", "0.0", "--out", str(out),
        ])
        assert rc == 2
        assert out.read_text() == "previous run\n"
        errors = [json.loads(line)
                  for line in (tmp_path / "hyp.jsonl.errors").read_text().splitlines()]
        assert errors[0] == {"utt": "u1", "error": "no labels for utterance"}
        assert errors[1]["utt"] is None and "u3 has width 4" in errors[1]["error"]
        assert len(errors) == 2
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("hyp")) == [
            "hyp.jsonl", "hyp.jsonl.errors"
        ]

    def test_vocab_width_mismatch_exit_2(self, tmp_path):
        write_fixture(tmp_path)
        dataio.write_vocab(tmp_path / "vocab.txt", ["t1", "t2", "t3"])
        rc = main([
            "align", "--logits", str(tmp_path / "logits.jsonl"),
            "--labels", str(tmp_path / "labels.jsonl"),
            "--vocab", str(tmp_path / "vocab.txt"),
            "--out", str(tmp_path / "hyp.jsonl"),
        ])
        assert rc == 2


class TestMetricsCommand:
    def test_id_mismatch_exit_2(self, tmp_path, capsys):
        dataio.write_timings_jsonl(tmp_path / "a.jsonl", {"u1": [WordTiming("x", 0, 10)]})
        dataio.write_timings_jsonl(tmp_path / "b.jsonl", {"u2": [WordTiming("x", 0, 10)]})
        rc = main(["metrics", "--hyp", str(tmp_path / "a.jsonl"),
                   "--ref", str(tmp_path / "b.jsonl")])
        assert rc == 2
        assert "u2" in capsys.readouterr().err

    def test_directory_path_exit_2(self, tmp_path, capsys):
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", {"u": [WordTiming("x", 0, 10)]})
        rc = main(["metrics", "--hyp", str(tmp_path), "--ref", str(tmp_path / "ref.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_constructed_shift(self, tmp_path):
        ref = {"u": [WordTiming("a", 100.0, 200.0)]}
        hyp = {"u": [WordTiming("a", 200.0, 300.0)]}
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", ref)
        dataio.write_timings_jsonl(tmp_path / "hyp.jsonl", hyp)
        rc = main(["metrics", "--hyp", str(tmp_path / "hyp.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"),
                   "--thresholds", "80,200",
                   "--out", str(tmp_path / "m.json"), "--no-timestamp"])
        assert rc == 0
        report = json.loads((tmp_path / "m.json").read_text())
        assert report["ave_st_delta_ms"] == 100.0
        assert report["pct_ws"]["80.0"] == 0.0
        assert report["pct_ws"]["200.0"] == 100.0

    def test_duplicate_hyp_utterance_exit_2(self, tmp_path, capsys):
        words = [WordTiming("a", 100.0, 200.0)]
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", {"a": words})
        line = (tmp_path / "ref.jsonl").read_text()
        (tmp_path / "hyp.jsonl").write_text(line + line)
        rc = main(["metrics", "--hyp", str(tmp_path / "hyp.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "duplicate utterance id 'a'" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_too_large_integer_in_timings_exit_2(self, tmp_path, capsys):
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", {"a": [WordTiming("a", 0.0, 10.0)]})
        (tmp_path / "hyp.jsonl").write_text(
            '{"utt": "a", "words": [{"w": "a", "start_ms": 0, "end_ms": 1%s}]}\n' % ("0" * 400))
        rc = main(["metrics", "--hyp", str(tmp_path / "hyp.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "hyp.jsonl:1: " in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


class TestGridsearchCommand:
    def test_bias_recovery(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        starts = np.arange(10) * 500.0 + 300.0
        jitter = rng.choice([-10.0, 0.0, 10.0], size=10)
        ref = {"u": [WordTiming(f"w{i}", s, s + 200.0) for i, s in enumerate(starts)]}
        hyp = {"u": [WordTiming(f"w{i}", s - 40.0 + j, s + 160.0 + j)
                     for i, (s, j) in enumerate(zip(starts, jitter))]}
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", ref)
        dataio.write_timings_jsonl(tmp_path / "hyp.jsonl", hyp)
        rc = main(["gridsearch", "--hyp", str(tmp_path / "hyp.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"),
                   "--range", "-200:200:10", "--threshold", "15",
                   "--out", str(tmp_path / "curve.csv")])
        assert rc == 0
        best = float(capsys.readouterr().out.split()[-1])
        assert abs(best - 40.0) <= 10.0
        lines = (tmp_path / "curve.csv").read_text().splitlines()
        assert lines[0] == "offset_ms,score" and len(lines) == 42

    def test_identical_files_offset_zero(self, tmp_path, capsys):
        ref = {"u": [WordTiming("a", 100.0, 300.0), WordTiming("b", 400.0, 600.0)]}
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", ref)
        rc = main(["gridsearch", "--hyp", str(tmp_path / "ref.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"),
                   "--out", str(tmp_path / "curve.csv")])
        assert rc == 0
        assert "best_offset_ms 0" in capsys.readouterr().out


    @pytest.mark.parametrize("hyp_ids", [("u1",), ("u1", "u2", "u3")])
    def test_id_mismatch_exit_2(self, tmp_path, capsys, hyp_ids):
        words = [WordTiming("a", 100.0, 300.0)]
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", {"u1": words, "u2": words})
        dataio.write_timings_jsonl(tmp_path / "hyp.jsonl", {u: words for u in hyp_ids})
        rc = main(["gridsearch", "--hyp", str(tmp_path / "hyp.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"),
                   "--out", str(tmp_path / "curve.csv")])
        assert rc == 2
        assert "utterance ids differ" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()


class TestAnalyzePeaks:
    def test_histogram_and_mean(self, tmp_path, capsys):
        write_fixture(tmp_path)
        rc = main(["analyze-peaks", "--logits", str(tmp_path / "logits.jsonl"),
                   "--labels", str(tmp_path / "labels.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"),
                   "--gamma-inf", "0.0", "--bins", "6",
                   "--out", str(tmp_path / "hist.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean_rel_pos" in out and "scored 4" in out
        lines = (tmp_path / "hist.csv").read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count" and len(lines) == 7

    @pytest.mark.parametrize("drop", ["labels", "ref", "path"])
    def test_dropped_utterance_goes_to_sidecar(self, tmp_path, capsys, drop):
        ref = write_fixture(tmp_path)
        if drop == "labels":
            labels = dataio.read_labels_jsonl(tmp_path / "labels.jsonl")
            dataio.write_labels_jsonl(tmp_path / "labels.jsonl", [("u2", *labels["u2"])])
        elif drop == "ref":
            dataio.write_timings_jsonl(tmp_path / "ref.jsonl", {"u2": ref["u2"]})
        else:  # fewer frames than labels: no valid path
            mats = list(dataio.iter_logits_jsonl(tmp_path / "logits.jsonl"))
            mats[0] = LogitMatrix("u1", mats[0].frames[:1], FRAME_MS)
            dataio.write_logits_jsonl(tmp_path / "logits.jsonl", mats)
        argv = ["analyze-peaks", "--logits", str(tmp_path / "logits.jsonl"),
                "--labels", str(tmp_path / "labels.jsonl"),
                "--ref", str(tmp_path / "ref.jsonl"),
                "--gamma-inf", "0.0", "--out", str(tmp_path / "hist.csv")]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert "scored 2  skipped 0" in out
        sidecar = tmp_path / "hist.csv.errors"
        assert f"1 failure(s); see {sidecar}" in err
        records = [json.loads(line) for line in sidecar.read_text().splitlines()]
        assert [r["utt"] for r in records] == ["u1"]
        want = {"labels": "no labels", "ref": "no reference", "path": "no valid path"}[drop]
        assert want in records[0]["error"]
        write_fixture(tmp_path)  # a clean rerun removes the sidecar
        assert main(argv) == 0
        assert not sidecar.exists()

    def test_bins_validation_exit_1(self, tmp_path):
        write_fixture(tmp_path)
        rc = main(["analyze-peaks", "--logits", str(tmp_path / "logits.jsonl"),
                   "--labels", str(tmp_path / "labels.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"),
                   "--bins", "0", "--out", str(tmp_path / "hist.csv")])
        assert rc == 1


@pytest.mark.parametrize("argv, flag", [
    (["metrics", "--hyp", "h.jsonl", "--ref", "r.jsonl", "--thresholds", "abc"],
     "--thresholds"),
    (["gridsearch", "--hyp", "h.jsonl", "--ref", "r.jsonl", "--range=5:1:1", "--out", "c.csv"],
     "--range"),
    (["synth", "gen", "--span-frames", "3", "--out-dir", "corpus"], "--span-frames"),
    (["gridsearch", "--hyp", "h.jsonl", "--ref", "r.jsonl", "--range=0:inf:1", "--out", "c.csv"],
     "--range"),
    (["gridsearch", "--hyp", "h.jsonl", "--ref", "r.jsonl", "--range=nan:5:1", "--out", "c.csv"],
     "--range"),
    (["metrics", "--hyp", "h.jsonl", "--ref", "r.jsonl", "--thresholds", "nan,80"],
     "--thresholds"),
    (["metrics", "--hyp", "h.jsonl", "--ref", "r.jsonl", "--thresholds", "80,-5"],
     "--thresholds"),
    (["synth", "eval", "--corpus-dir", "c", "--model", "m.npz", "--thresholds", "0"],
     "--thresholds"),
    (["gridsearch", "--hyp", "h.jsonl", "--ref", "r.jsonl", "--threshold", "nan",
      "--out", "c.csv"], "--threshold"),
    (["gridsearch", "--hyp", "h.jsonl", "--ref", "r.jsonl", "--threshold", "-5",
      "--out", "c.csv"], "--threshold"),
    (["gridsearch", "--hyp", "h.jsonl", "--ref", "r.jsonl", "--range=0:1e300:1e-300",
      "--out", "c.csv"], "--range"),
    (["gridsearch", "--hyp", "h.jsonl", "--ref", "r.jsonl", "--range=0:1e6:1",
      "--out", "c.csv"], "--range"),
], ids=["thresholds", "range", "span-frames", "range-inf", "range-nan", "thresholds-nan",
        "thresholds-negative", "thresholds-zero", "threshold-nan", "threshold-negative",
        "range-offsets-infinite", "range-offsets-above-bound"])
def test_malformed_flag_value_exit_1(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["synth", "gen", "--out-dir", "corpus"],
    ["synth", "sweep", "--kind", "gamma", "--out", "sweep.csv"],
], ids=["gen", "sweep"])
@pytest.mark.parametrize("flags, reason", [
    (["--span-frames", "5:1"], "span_frames: invalid range (5, 1)"),
    (["--n-utts", "0"], "need n_utts >= 1"),
], ids=["span-frames", "n-utts"])
def test_out_of_range_corpus_flag_exit_1(tmp_path, monkeypatch, capsys, command, flags, reason):
    monkeypatch.chdir(tmp_path)
    assert main(command + flags) == 1
    assert reason in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


class TestSynthCommands:
    def test_gen_train_eval_pipeline(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        rc = main(["synth", "gen", "--n-utts", "8", "--out-dir", str(corpus_dir)])
        assert rc == 0
        for name in ("features_lo.jsonl", "features_hi.jsonl", "labels.jsonl",
                     "ref_timings.jsonl", "vocab.txt"):
            assert (corpus_dir / name).exists()

        config = tmp_path / "train.cfg"
        config.write_text("method=npc\nepochs=30\nlearning_rate=0.1\nbatch_size=64\nseed=7\n")
        rc = main(["synth", "train", "--corpus-dir", str(corpus_dir),
                   "--config", str(config), "--model-out", str(tmp_path / "m.npz")])
        assert rc == 0

        rc = main(["synth", "eval", "--corpus-dir", str(corpus_dir),
                   "--model", str(tmp_path / "m.npz"), "--gamma-inf", "1.0",
                   "--report", str(tmp_path / "r.json"), "--no-timestamp",
                   "--dump-logits", str(tmp_path / "model_logits.jsonl"),
                   "--dump-hyp", str(tmp_path / "hyp.jsonl"),
                   "--dump-ref", str(tmp_path / "ref.jsonl")])
        assert rc == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["n_ref"] > 0

    def test_flag_overrides_config(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        main(["synth", "gen", "--n-utts", "6", "--out-dir", str(corpus_dir)])
        config = tmp_path / "train.cfg"
        config.write_text("method=peaky\nepochs=2\n")
        rc = main(["synth", "train", "--corpus-dir", str(corpus_dir),
                   "--config", str(config), "--method", "npc", "--epochs", "3",
                   "--model-out", str(tmp_path / "m.npz")])
        assert rc == 0

    def test_train_line_reports_final_model_occupancy(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        main(["synth", "gen", "--n-utts", "6", "--out-dir", str(corpus_dir)])
        capsys.readouterr()
        model = tmp_path / "m.npz"
        rc = main(["synth", "train", "--corpus-dir", str(corpus_dir), "--method", "npc",
                   "--epochs", "2", "--holdout-every", "3", "--model-out", str(model)])
        assert rc == 0
        train_split, _ = split_corpus(generate_corpus(CorpusSpec(n_utts=6)), 3)
        occupancy = corpus_blank_occupancy(dataio.load_classifier(model), train_split)
        assert re.fullmatch(
            rf"trained npc: final loss \d+\.\d{{4}}, blank occupancy {re.escape(f'{occupancy:.3f}')}; "
            rf"model at {re.escape(str(model))}\n",
            capsys.readouterr().out,
        )

    def test_gen_feature_dim_1_exit_1_without_output(self, tmp_path, capsys):
        rc = main(["synth", "gen", "--feature-dim", "1", "--out-dir", str(tmp_path / "corpus")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "feature_dim >= 2" in err
        assert "n_utts" not in err
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("flags, reason", [
        (["--method", "npc", "--epochs", "0"], "epochs"),
        (["--method", "cetc", "--alpha-left", "1.5"], "alpha_left"),
        (["--method", "pfr", "--lambda-pfr", "1", "--tau", "0"], "tau"),
        (["--method", "npc", "--learning-rate", "-1"], "learning_rate"),
        (["--method", "pfr"], "requires lambda_pfr"),
    ])
    def test_unusable_setting_exit_1(self, tmp_path, capsys, flags, reason):
        corpus_dir = tmp_path / "corpus"
        main(["synth", "gen", "--n-utts", "6", "--out-dir", str(corpus_dir)])
        model = tmp_path / "m.npz"
        rc = main(["synth", "train", "--corpus-dir", str(corpus_dir), *flags,
                   "--model-out", str(model)])
        assert rc == 1
        assert reason in capsys.readouterr().err
        assert not model.exists()

    def test_config_keys_are_train_config_fields(self):
        init_fields = {f.name for f in dataclasses.fields(synth.TrainConfig) if f.init}
        assert set(CONFIG_KEYS) == init_fields

    def test_missing_method_exit_1(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        main(["synth", "gen", "--n-utts", "6", "--out-dir", str(corpus_dir)])
        rc = main(["synth", "train", "--corpus-dir", str(corpus_dir),
                   "--model-out", str(tmp_path / "m.npz")])
        assert rc == 1

    def test_align_metrics_composition_matches_evaluate(self, tmp_path, capsys):
        """align + metrics over dumped logits equals the synth eval report."""
        corpus_dir = tmp_path / "corpus"
        main(["synth", "gen", "--n-utts", "8", "--out-dir", str(corpus_dir)])
        config = tmp_path / "train.cfg"
        config.write_text("method=npc\nepochs=30\nseed=7\n")
        main(["synth", "train", "--corpus-dir", str(corpus_dir),
              "--config", str(config), "--model-out", str(tmp_path / "m.npz")])
        main(["synth", "eval", "--corpus-dir", str(corpus_dir),
              "--model", str(tmp_path / "m.npz"), "--gamma-inf", "1.0",
              "--report", str(tmp_path / "direct.json"), "--no-timestamp",
              "--dump-logits", str(tmp_path / "logits.jsonl"),
              "--dump-ref", str(tmp_path / "ref.jsonl")])
        capsys.readouterr()

        rc = main(["align", "--logits", str(tmp_path / "logits.jsonl"),
                   "--labels", str(corpus_dir / "labels.jsonl"),
                   "--vocab", str(corpus_dir / "vocab.txt"),
                   "--gamma-inf", "1.0", "--out", str(tmp_path / "hyp.jsonl")])
        assert rc == 0
        rc = main(["metrics", "--hyp", str(tmp_path / "hyp.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"), "--thresholds", "20,80",
                   "--out", str(tmp_path / "composed.json"), "--no-timestamp"])
        assert rc == 0
        direct = json.loads((tmp_path / "direct.json").read_text())
        composed = json.loads((tmp_path / "composed.json").read_text())
        assert direct == composed

    def test_analyze_peaks_composition_matches_library(self, tmp_path, capsys):
        """analyze-peaks over dumped logits equals the library peak histogram."""
        corpus_dir = tmp_path / "corpus"
        main(["synth", "gen", "--n-utts", "8", "--out-dir", str(corpus_dir)])
        config = tmp_path / "train.cfg"
        config.write_text("method=npc\nepochs=30\nseed=7\n")
        main(["synth", "train", "--corpus-dir", str(corpus_dir),
              "--config", str(config), "--model-out", str(tmp_path / "m.npz")])
        main(["synth", "eval", "--corpus-dir", str(corpus_dir),
              "--model", str(tmp_path / "m.npz"),
              "--dump-logits", str(tmp_path / "logits.jsonl")])
        capsys.readouterr()

        rc = main(["analyze-peaks", "--logits", str(tmp_path / "logits.jsonl"),
                   "--labels", str(corpus_dir / "labels.jsonl"),
                   "--ref", str(corpus_dir / "ref_timings.jsonl"),
                   "--gamma-inf", "1.0", "--out", str(tmp_path / "hist.csv")])
        assert rc == 0
        clf = dataio.load_classifier(tmp_path / "m.npz")
        corpus = generate_corpus(CorpusSpec(n_utts=8))
        items = []
        for utt in corpus:
            logits, _ = model_forward(clf, inputs_for(clf, utt), utt.utt_id)
            spans = align_spans(logits, utt.labels, 1.0)
            items.extend(peak_items(spans, utt.word_map, utt.ref_timings, FRAME_MS))
        hist = peak_histogram(items, 10, (-1.0, 2.0))
        assert hist.n_scored > 0
        assert capsys.readouterr().out == (
            f"mean_rel_pos {hist.mean_rel_pos:.6g}  "
            f"scored {hist.n_scored}  skipped {hist.n_skipped}\n"
        )
        counts = [int(line.split(",")[2])
                  for line in (tmp_path / "hist.csv").read_text().splitlines()[1:]]
        assert counts == hist.counts.tolist()

    def test_align_metrics_idempotent_bytes(self, tmp_path):
        write_fixture(tmp_path)
        outputs = []
        for tag in ("a", "b"):
            main(["align", "--logits", str(tmp_path / "logits.jsonl"),
                  "--labels", str(tmp_path / "labels.jsonl"),
                  "--vocab", str(tmp_path / "vocab.txt"),
                  "--gamma-inf", "0.0", "--out", str(tmp_path / f"hyp_{tag}.jsonl")])
            main(["metrics", "--hyp", str(tmp_path / f"hyp_{tag}.jsonl"),
                  "--ref", str(tmp_path / "ref.jsonl"),
                  "--out", str(tmp_path / f"m_{tag}.json"), "--no-timestamp"])
            outputs.append(((tmp_path / f"hyp_{tag}.jsonl").read_bytes(),
                            (tmp_path / f"m_{tag}.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_metrics_timestamp_toggle(self, tmp_path):
        ref = {"u": [WordTiming("a", 100.0, 200.0)]}
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", ref)
        main(["metrics", "--hyp", str(tmp_path / "ref.jsonl"),
              "--ref", str(tmp_path / "ref.jsonl"), "--out", str(tmp_path / "m.json")])
        assert "generated_at" in json.loads((tmp_path / "m.json").read_text())
        main(["metrics", "--hyp", str(tmp_path / "ref.jsonl"),
              "--ref", str(tmp_path / "ref.jsonl"),
              "--out", str(tmp_path / "m.json"), "--no-timestamp"])
        assert "generated_at" not in json.loads((tmp_path / "m.json").read_text())

    def test_sweep_deterministic(self, tmp_path):
        args = ["synth", "sweep", "--kind", "gamma", "--n-utts", "6",
                "--vocab-size", "4", "--out"]
        main(args + [str(tmp_path / "a.csv")])
        main(args + [str(tmp_path / "b.csv")])
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        header = a.decode().splitlines()[0]
        assert header.startswith("gamma_train,gamma_inf")
        assert len(a.decode().splitlines()) == 11


class TestHoldout:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        """A 6-utterance corpus directory and a model trained on all of it."""
        out = tmp_path_factory.mktemp("holdout")
        corpus_dir = out / "corpus"
        assert main(["synth", "gen", "--n-utts", "6", "--out-dir", str(corpus_dir)]) == 0
        model = out / "m.npz"
        assert main(["synth", "train", "--corpus-dir", str(corpus_dir), "--method", "npc",
                     "--epochs", "2", "--model-out", str(model)]) == 0
        return corpus_dir, model

    def test_eval_with_nothing_held_out(self, trained, tmp_path, capsys):
        corpus_dir, model = trained
        capsys.readouterr()
        rc = main(["synth", "eval", "--corpus-dir", str(corpus_dir), "--model", str(model),
                   "--holdout-every", "100", "--report", str(tmp_path / "r.json")])
        assert rc == 0
        assert capsys.readouterr().out == "no matched words\n"
        report = json.loads((tmp_path / "r.json").read_text())
        assert (report["n_matched"], report["n_ref"]) == (0, 0)

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_negative_holdout_exit_1(self, trained, tmp_path, capsys, command):
        corpus_dir, model = trained
        capsys.readouterr()
        flags = (["--method", "npc", "--epochs", "1", "--model-out", str(tmp_path / "out.npz")]
                 if command == "train" else ["--model", str(model)])
        rc = main(["synth", command, "--corpus-dir", str(corpus_dir),
                   "--holdout-every", "-2", *flags])
        assert rc == 1
        assert "--holdout-every" in capsys.readouterr().err
        assert not (tmp_path / "out.npz").exists()

    def test_eval_aligns_each_utterance_once(self, trained, tmp_path, monkeypatch):
        corpus_dir, model = trained
        calls = []
        real = synth.align_spans
        monkeypatch.setattr(synth, "align_spans", lambda *a: calls.append(a) or real(*a))
        rc = main(["synth", "eval", "--corpus-dir", str(corpus_dir), "--model", str(model),
                   "--holdout-every", "2", "--dump-hyp", str(tmp_path / "hyp.jsonl")])
        assert rc == 0
        _, held = split_corpus(generate_corpus(CorpusSpec(n_utts=6)), 2)
        assert len(calls) == len(held)
        assert set(dataio.read_timings_jsonl(tmp_path / "hyp.jsonl")) == {u.utt_id for u in held}


# key -> (method the key applies to, a value off the base run's)
OFF_DEFAULT = {
    "method": ("peaky", "npc"),
    "gamma_train": ("npc", 0.75),
    "fuse_features": ("peaky", True),
    "hidden": ("peaky", 16),
    "epochs": ("peaky", 3),
    "batch_size": ("peaky", 2),
    "learning_rate": ("peaky", 0.05),
    "seed": ("peaky", 8),
    "alpha_left": ("cetc", 0.6),
    "alpha_right": ("cetc", 0.2),
    "beta": ("cetc", 0.9),
    "mu": ("pfr", 1),
    "tau": ("pfr", 3.0),
    "lambda_pfr": ("pfr", 2.0),
}


# key -> a method that does not read it, and a value to pass
INAPPLICABLE = [
    ("gamma_train", "peaky", 0.9),
    ("gamma_train", "cetc", 0.9),
    ("alpha_left", "npc", 0.9),
    ("alpha_right", "peaky", 0.2),
    ("beta", "pfr", 0.9),
    ("lambda_pfr", "npc", 2.0),
    ("mu", "npc", 1),
    ("tau", "cetc", 3.0),
]


class TestConfigKeys:
    @pytest.fixture(scope="class")
    def corpus_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("corpus")
        assert main(["synth", "gen", "--n-utts", "6", "--out-dir", str(out)]) == 0
        return out

    @staticmethod
    def trained_params(corpus_dir, tmp_path, config, tag):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(config))
        model = tmp_path / f"{tag}.npz"
        assert main(["synth", "train", "--corpus-dir", str(corpus_dir),
                     "--config", str(path), "--model-out", str(model)]) == 0
        return dataio.load_classifier(model).params()

    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_every_key_changes_training(self, corpus_dir, tmp_path, key):
        """No setting is accepted and then ignored."""
        assert key in OFF_DEFAULT, f"no off-default value for config key {key!r}"
        method, value = OFF_DEFAULT[key]
        base = {"method": method, "epochs": 2}
        if method == "pfr":
            base["lambda_pfr"] = 1.0
        a = self.trained_params(corpus_dir, tmp_path, base, "base")
        b = self.trained_params(corpus_dir, tmp_path, {**base, key: value}, "moved")
        assert any(a[k].shape != b[k].shape or not np.array_equal(a[k], b[k]) for k in a), key

    @pytest.mark.parametrize("key", ["gamma_inf", "lambda_ce"])
    def test_removed_keys_rejected(self, corpus_dir, tmp_path, capsys, key):
        config = tmp_path / "train.cfg"
        config.write_text(f"method=pfr\nlambda_pfr=1.0\n{key}=0.5\n")
        rc = main(["synth", "train", "--corpus-dir", str(corpus_dir),
                   "--config", str(config), "--model-out", str(tmp_path / "m.npz")])
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, method, value", INAPPLICABLE)
    def test_inapplicable_key_rejected(self, corpus_dir, tmp_path, capsys,
                                       key, method, value, source):
        """A setting the chosen method does not read is a usage error."""
        settings = {"method": method, "epochs": 2}
        if method == "pfr":
            settings["lambda_pfr"] = 1.0
        flags = []
        if source == "config":
            settings[key] = value
        else:
            flags = [f"--{key.replace('_', '-')}", str(value)]
        config = tmp_path / "train.json"
        config.write_text(json.dumps(settings))
        model = tmp_path / "m.npz"
        rc = main(["synth", "train", "--corpus-dir", str(corpus_dir), "--config", str(config),
                   "--model-out", str(model), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert key in err and repr(method) in err
        assert not model.exists()


def write_mixed_fixture(tmp_path, n_utts=40):
    """Utterances of 2 to ~150 frames over V=4 with planted token spans.

    u05 has no labels, u09 has fewer frames than its labels need (no valid
    path) and u13 has no reference timings, so each kind of skipped
    utterance appears once.
    """
    rng = np.random.default_rng(11)
    mats, labels_items, ref = [], [], {}
    for i in range(n_utts):
        utt = f"u{i:02d}"
        tokens = [int(t) for t in rng.integers(1, 4, size=int(rng.integers(1, 6)))]
        scale = 1 + 7 * (i % 4)  # short and long utterances side by side
        frames, timings, t = [], [], 0
        for tok in tokens:
            gap, span = (int(x) for x in rng.integers(1, 4 * scale, size=2))
            frames += [0] * gap + [tok] * span
            timings.append(WordTiming(f"w{tok}", (t + gap) * FRAME_MS,
                                      (t + gap + span) * FRAME_MS))
            t += gap + span
        frames.append(0)
        logits = np.full((len(frames), 4), -4.0)
        logits[np.arange(len(frames)), frames] = 4.0
        if utt == "u09":
            logits = logits[:2]
        mats.append(LogitMatrix(utt, logits + 0.01 * rng.normal(size=logits.shape), FRAME_MS))
        if utt != "u05":
            words = WordMap(tuple((f"w{tok}", k, k) for k, tok in enumerate(tokens)))
            labels_items.append((utt, LabelSequence(tuple(tokens)), words))
        if utt != "u13":
            ref[utt] = timings
    dataio.write_logits_jsonl(tmp_path / "logits.jsonl", mats)
    dataio.write_labels_jsonl(tmp_path / "labels.jsonl", labels_items)
    dataio.write_timings_jsonl(tmp_path / "ref.jsonl", ref)
    dataio.write_vocab(tmp_path / "vocab.txt", ["t1", "t2", "t3"])


def _run_on_cpus(monkeypatch, capsys, cpus, argv, out):
    """Exit code, stdout, stderr, --out bytes and sidecar bytes of one run
    with the process allowed cpus CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    out.write_text("previous run\n")
    capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    sidecar = Path(str(out) + ".errors")
    return (rc, captured.out, captured.err, out.read_bytes(),
            sidecar.read_bytes() if sidecar.exists() else None)


def _align_argv(tmp_path):
    return ["align", "--logits", str(tmp_path / "logits.jsonl"),
            "--labels", str(tmp_path / "labels.jsonl"), "--vocab", str(tmp_path / "vocab.txt"),
            "--out", str(tmp_path / "hyp.jsonl")]


def _peaks_argv(tmp_path):
    return ["analyze-peaks", "--logits", str(tmp_path / "logits.jsonl"),
            "--labels", str(tmp_path / "labels.jsonl"), "--ref", str(tmp_path / "ref.jsonl"),
            "--out", str(tmp_path / "hist.csv")]


def _range_of_line(path, n_ranges, lineno):
    return [i for i, r in enumerate(dataio.line_ranges(path, n_ranges)) if r[2] <= lineno][-1]


class TestParallelPipeline:
    """align and analyze-peaks give the same bytes on 1, 2 and 4 CPUs."""

    CPUS = (1, 2, 4)

    def test_outputs_identical_across_cpu_counts(self, tmp_path, monkeypatch, capsys):
        write_mixed_fixture(tmp_path)
        for argv, out in ((_align_argv(tmp_path), tmp_path / "hyp.jsonl"),
                          (_peaks_argv(tmp_path), tmp_path / "hist.csv")):
            runs = [_run_on_cpus(monkeypatch, capsys, cpus, argv, out)
                    for cpus in self.CPUS]
            assert runs[0][0] == 0
            assert all(run == runs[0] for run in runs[1:])
            errors = [json.loads(line) for line in runs[0][4].decode().splitlines()]
            assert [e["utt"] for e in errors] == (
                ["u05", "u09"] if argv[0] == "align" else ["u05", "u09", "u13"])
            assert "no valid path" in errors[1]["error"]
        assert len(dataio.read_timings_jsonl(tmp_path / "hyp.jsonl")) == 38

    def test_work_runs_in_workers_that_are_gone_on_return(self, tmp_path, monkeypatch, capsys):
        write_mixed_fixture(tmp_path)
        pids = tmp_path / "pids.txt"
        real = cli.align_spans

        def spy(*args):
            with open(pids, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return real(*args)

        monkeypatch.setattr(cli, "align_spans", spy)  # forked workers inherit the spy
        for cpus, want_rc in ((1, 0), (2, 0), (4, 0), (2, 2)):
            if want_rc:  # a record one column too wide near the end aborts the run
                path = tmp_path / "logits.jsonl"
                lines = path.read_text().splitlines()
                record = json.loads(lines[35])
                record["frames"] = [row + [0.0] for row in record["frames"]]
                lines[35] = json.dumps(record)
                path.write_text("\n".join(lines) + "\n")
            pids.write_text("")
            rc = _run_on_cpus(monkeypatch, capsys, cpus, _align_argv(tmp_path),
                              tmp_path / "hyp.jsonl")[0]
            assert rc == want_rc
            assert multiprocessing.active_children() == []
            seen = {int(line) for line in pids.read_text().split()}
            if cpus == 1:
                assert seen == {os.getpid()}
                continue
            assert seen and os.getpid() not in seen and len(seen) <= cpus
            for pid in seen:  # exited and reaped: neither running nor a zombie
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("case", ["malformed", "duplicate", "duplicate-invalid", "width",
                                      "nonfinite"])
    def test_failure_in_a_later_range_identical(self, tmp_path, monkeypatch, capsys, case):
        write_mixed_fixture(tmp_path)
        path = tmp_path / "logits.jsonl"
        lines = path.read_text().splitlines()
        bad = 36  # line number
        record = json.loads(lines[bad - 1])
        if case == "malformed":
            lines[bad - 1] = "{broken"
        elif case.startswith("duplicate"):
            record["utt"] = "u01"
            if case == "duplicate-invalid":  # the record's own error comes first
                record["frames"] = [[0.0]]
        elif case == "width":
            record["frames"] = [row + [0.0] for row in record["frames"]]
        else:  # the label-prior mean overflows to infinity
            record["frames"] = [[1.7e308] * 4 for _ in record["frames"]]
        if case != "malformed":
            lines[bad - 1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        for n_ranges in (8, 16):
            assert _range_of_line(path, n_ranges, bad) > _range_of_line(path, n_ranges, 2)
        want = {"malformed": "logits.jsonl:36: malformed JSON",
                "duplicate": "logits.jsonl:36: duplicate utterance id 'u01' (first on line 2)",
                "duplicate-invalid": "logits.jsonl:36: u01: need T >= 1 and V >= 2",
                "width": "u35 has width 5, vocab has 4 entries",
                "nonfinite": "u35: non-finite logit at frame 0"}[case]
        for argv, out in ((_align_argv(tmp_path), tmp_path / "hyp.jsonl"),
                          (_peaks_argv(tmp_path), tmp_path / "hist.csv")):
            runs = [_run_on_cpus(monkeypatch, capsys, cpus, argv, out)
                    for cpus in self.CPUS]
            assert all(run == runs[0] for run in runs[1:])
            assert multiprocessing.active_children() == []
            rc, _, err, out_bytes, sidecar = runs[0]
            if argv[0] == "analyze-peaks" and case == "width":
                assert rc == 0  # analyze-peaks reads no vocab
                continue
            assert rc == 2 and want in err
            assert out_bytes == b"previous run\n"
            if argv[0] == "align":
                errors = [json.loads(line) for line in sidecar.decode().splitlines()]
                assert [e["utt"] for e in errors] == ["u05", "u09", None]
                assert want in errors[-1]["error"]
