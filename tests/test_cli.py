import dataclasses
import json
import multiprocessing
import os
import re
import stat
import subprocess
import sys
import threading
import unicodedata
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest

from ctctiming import cli, dataio, synth
from ctctiming.boundary import gridsearch_offset
from ctctiming.cli import main
from ctctiming.ctc import (LabelSequence, LogitMatrix, align_spans, apply_label_prior,
                           log_softmax_rows)
from ctctiming.boundary import WordMap, words_from_spans
from ctctiming.metrics import _matched_times, peak_histogram, peak_items, timing_metrics
from ctctiming.synth import (
    FRAME_MS,
    Classifier,
    CorpusSpec,
    corpus_blank_occupancy,
    generate_corpus,
    inputs_for,
    model_forward,
    split_corpus,
)

from oracles import (TimedWord, forced_align_backpointers, object_gridsearch_offset,
                     object_match_words, object_metrics, object_pair_times, object_times_report,
                     read_timings_objects, token_spans_flatnonzero, word_objects, word_rows,
                     word_times)


def one_word(text, start_ms, end_ms):
    return word_times([(text, start_ms, end_ms)])


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
                timings.append((f"t{tok}", lo * FRAME_MS, (hi + 1) * FRAME_MS))
                piece += 1
        mats.append(LogitMatrix(utt, logits + 0.01 * rng.normal(size=logits.shape), FRAME_MS))
        labels_items.append((utt, LabelSequence(tuple(tokens)), WordMap(tuple(words))))
        ref[utt] = word_times(timings)
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
            for a, b in zip(base[utt].times[0].tolist(), shifted[utt].times[0].tolist()):
                assert b - a == pytest.approx(40.0)

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

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.update(frame_ms="10"), "frame_ms must be a number, got '10'"),
        (lambda r: r.update(frame_ms=True), "frame_ms must be a number, got True"),
        (lambda r: r.update(frame_ms=float("inf")), "frame_ms must be finite and > 0"),
        (lambda r: r["frames"][0].__setitem__(0, "-4.0"), "logits must be numbers, got dtype <U"),
        (lambda r: r.update(frames=[[True, False, False]] * 4),
         "logits must be numbers, got dtype bool"),
        # numpy would promote a bool beside numbers to 1.0 or 0.0
        (lambda r: r["frames"].__setitem__(0, [True, False, False]),
         "logit must be a number, got True"),
        (lambda r: r["frames"][-1].__setitem__(2, False), "logit must be a number, got False"),
        (lambda r: r.update(utt=1), "utt must be a string, got 1"),
    ], ids=["frame-ms-string", "frame-ms-true", "frame-ms-inf", "frame-string", "frame-bools",
            "frame-true-among-numbers", "frame-false-among-numbers", "utt-int"])
    @pytest.mark.parametrize("command", ["align", "analyze-peaks"])
    def test_non_number_logit_or_non_string_utt_exit_2(self, tmp_path, capsys, command,
                                                       edit, message):
        write_fixture(tmp_path)
        logits = tmp_path / "logits.jsonl"
        records = [json.loads(line) for line in logits.read_text().splitlines()]
        edit(records[1])
        logits.write_text("".join(json.dumps(record) + "\n" for record in records))
        source = ["--vocab", str(tmp_path / "vocab.txt")] if command == "align" else [
            "--ref", str(tmp_path / "ref.jsonl")]
        rc = main([command, "--logits", str(logits), "--labels", str(tmp_path / "labels.jsonl"),
                   *source, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "logits.jsonl:2: " in capsys.readouterr().err
        assert message in (tmp_path / "out.errors").read_text()
        assert not (tmp_path / "out").exists()

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
            assert [(s, e) for _, s, e in word_rows(hyp[utt])] == [
                (2 * s, 2 * e) for _, s, e in word_rows(ref[utt])
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

    def test_non_ascii_words_written_like_write_timings_jsonl(self, tmp_path):
        write_fixture(tmp_path)
        texts = {"u1": ("caf\u00e9", "na\u00efve"), "u2": ("\u65e5\u672c", "\u00fcber")}  # NFC
        labels = dataio.read_labels_jsonl(tmp_path / "labels.jsonl")
        renamed = {utt: WordMap(tuple((text, a, b) for text, (_, a, b)
                                      in zip(texts[utt], word_map.words)))
                   for utt, (_, word_map) in labels.items()}
        dataio.write_labels_jsonl(tmp_path / "labels.jsonl",
                                  [(utt, labels[utt][0], renamed[utt]) for utt in labels])
        rc = main(["align", "--logits", str(tmp_path / "logits.jsonl"),
                   "--labels", str(tmp_path / "labels.jsonl"),
                   "--vocab", str(tmp_path / "vocab.txt"),
                   "--gamma-inf", "0.0", "--out", str(tmp_path / "hyp.jsonl")])
        assert rc == 0
        expected = {
            mat.utt_id: words_from_spans(align_spans(mat, labels[mat.utt_id][0], 0.0),
                                         renamed[mat.utt_id], mat.frame_ms, n_frames=mat.n_frames)
            for mat in dataio.iter_logits_jsonl(tmp_path / "logits.jsonl")
        }
        dataio.write_timings_jsonl(tmp_path / "expected.jsonl", expected)
        got = (tmp_path / "hyp.jsonl").read_bytes()
        assert got == (tmp_path / "expected.jsonl").read_bytes()
        assert "caf\u00e9".encode() in got and b"\\u" not in got

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

    def test_fifo_out_written_in_place(self, tmp_path, monkeypatch):
        write_fixture(tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # no fork beside a thread
        argv = ["align", "--logits", str(tmp_path / "logits.jsonl"),
                "--labels", str(tmp_path / "labels.jsonl"),
                "--vocab", str(tmp_path / "vocab.txt"), "--gamma-inf", "0.0"]
        assert main(argv + ["--out", str(tmp_path / "hyp.jsonl")]) == 0
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            rc = main(argv + ["--out", str(fifo)])
        finally:
            try:  # a run that never opened the FIFO leaves the reader waiting for a writer
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:
                pass
            reader.join(timeout=30)
        assert rc == 0 and not reader.is_alive()
        assert received == [(tmp_path / "hyp.jsonl").read_bytes()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("pipe")) == ["pipe"]

    def test_stale_tmp_of_another_run_left_alone(self, tmp_path):
        write_fixture(tmp_path)
        stale = tmp_path / "hyp.jsonl.tmp"
        stale.write_text("another run\n")
        out = tmp_path / "hyp.jsonl"
        rc = main(["align", "--logits", str(tmp_path / "logits.jsonl"),
                   "--labels", str(tmp_path / "labels.jsonl"),
                   "--vocab", str(tmp_path / "vocab.txt"), "--out", str(out)])
        assert rc == 0
        assert stale.read_text() == "another run\n"
        assert set(dataio.read_timings_jsonl(out)) == {"u1", "u2"}
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("hyp")) == [
            "hyp.jsonl", "hyp.jsonl.tmp"
        ]
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


class TestMetricsCommand:
    def test_id_mismatch_exit_2(self, tmp_path, capsys):
        dataio.write_timings_jsonl(tmp_path / "a.jsonl", {"u1": one_word("x", 0, 10)})
        dataio.write_timings_jsonl(tmp_path / "b.jsonl", {"u2": one_word("x", 0, 10)})
        rc = main(["metrics", "--hyp", str(tmp_path / "a.jsonl"),
                   "--ref", str(tmp_path / "b.jsonl")])
        assert rc == 2
        assert "u2" in capsys.readouterr().err

    def test_directory_path_exit_2(self, tmp_path, capsys):
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", {"u": one_word("x", 0, 10)})
        rc = main(["metrics", "--hyp", str(tmp_path), "--ref", str(tmp_path / "ref.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_constructed_shift(self, tmp_path):
        ref = {"u": one_word("a", 100.0, 200.0)}
        hyp = {"u": one_word("a", 200.0, 300.0)}
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
        words = one_word("a", 100.0, 200.0)
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
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", {"a": one_word("a", 0.0, 10.0)})
        (tmp_path / "hyp.jsonl").write_text(
            '{"utt": "a", "words": [{"w": "a", "start_ms": 0, "end_ms": 1%s}]}\n' % ("0" * 400))
        rc = main(["metrics", "--hyp", str(tmp_path / "hyp.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "hyp.jsonl:1: " in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_words_not_an_array_exit_2(self, tmp_path, capsys):
        """An object in place of the words array is no empty utterance."""
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", {"a": one_word("a", 0.0, 10.0)})
        (tmp_path / "hyp.jsonl").write_text('{"utt": "a", "words": {}}\n')
        rc = main(["metrics", "--hyp", str(tmp_path / "hyp.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"), "--out", str(tmp_path / "m.json")])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert "hyp.jsonl:1: words must be a JSON array, got {}" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("start, end", [
        ("0", "Infinity"), ("Infinity", "Infinity"), ("0", "NaN"), ("NaN", "10"),
    ])
    @pytest.mark.parametrize("command", ["metrics", "gridsearch"])
    def test_non_finite_time_exit_2(self, tmp_path, capsys, command, start, end):
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", {"a": one_word("a", 0.0, 10.0)})
        (tmp_path / "hyp.jsonl").write_text(
            '{"utt": "a", "words": [{"w": "a", "start_ms": %s, "end_ms": %s}]}\n' % (start, end))
        rc = main([command, "--hyp", str(tmp_path / "hyp.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "hyp.jsonl:1: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("word", ["5", "null", '["a"]'], ids=["int", "null", "list"])
    @pytest.mark.parametrize("command", ["metrics", "gridsearch"])
    def test_non_string_word_exit_2(self, tmp_path, capsys, command, word):
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", {"a": one_word("a", 0.0, 10.0)})
        (tmp_path / "hyp.jsonl").write_text(
            '{"utt": "a", "words": [{"w": %s, "start_ms": 0, "end_ms": 10}]}\n' % word)
        rc = main([command, "--hyp", str(tmp_path / "hyp.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "hyp.jsonl:1: word text must be a string" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("start, end, utt, message", [
        ('"0"', "10", '"a"', "start_ms must be a number, got '0'"),
        ("0", "true", '"a"', "end_ms must be a number, got True"),
        ("false", "10", '"a"', "start_ms must be a number, got False"),
        ("0", "10", "5", "utt must be a string, got 5"),
        ("0", "10", "null", "utt must be a string, got None"),
    ], ids=["start-string", "end-true", "start-false", "utt-int", "utt-null"])
    @pytest.mark.parametrize("command", ["metrics", "gridsearch"])
    def test_non_number_time_or_non_string_utt_exit_2(self, tmp_path, capsys, command,
                                                      start, end, utt, message):
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", {"a": one_word("a", 0.0, 10.0)})
        (tmp_path / "hyp.jsonl").write_text(
            '{"utt": %s, "words": [{"w": "a", "start_ms": %s, "end_ms": %s}]}\n'
            % (utt, start, end))
        rc = main([command, "--hyp", str(tmp_path / "hyp.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"hyp.jsonl:1: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestGridsearchCommand:
    def test_bias_recovery(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        starts = np.arange(10) * 500.0 + 300.0
        jitter = rng.choice([-10.0, 0.0, 10.0], size=10)
        ref = {"u": word_times([(f"w{i}", s, s + 200.0) for i, s in enumerate(starts)])}
        hyp = {"u": word_times([(f"w{i}", s - 40.0 + j, s + 160.0 + j)
                                for i, (s, j) in enumerate(zip(starts, jitter))])}
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
        ref = {"u": word_times([("a", 100.0, 300.0), ("b", 400.0, 600.0)])}
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", ref)
        rc = main(["gridsearch", "--hyp", str(tmp_path / "ref.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"),
                   "--out", str(tmp_path / "curve.csv")])
        assert rc == 0
        assert "best_offset_ms 0" in capsys.readouterr().out


    @pytest.mark.parametrize("hyp_ids", [("u1",), ("u1", "u2", "u3")])
    def test_id_mismatch_exit_2(self, tmp_path, capsys, hyp_ids):
        words = one_word("a", 100.0, 300.0)
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", {"u1": words, "u2": words})
        dataio.write_timings_jsonl(tmp_path / "hyp.jsonl", {u: words for u in hyp_ids})
        rc = main(["gridsearch", "--hyp", str(tmp_path / "hyp.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"),
                   "--out", str(tmp_path / "curve.csv")])
        assert rc == 2
        assert "utterance ids differ" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()


def planted_documents(seed, n_utts=5):
    """Seeded reference and hypothesis timings with planted edits.

    Words come from 10 types, two with accents that the hypothesis spells
    decomposed (NFD) about half the time. The hypothesis drops, substitutes
    or inserts about one word in seven, and moves each word by a planted
    offset of -60..60 ms plus jitter, floored at 0 ms.
    """
    rng = np.random.default_rng(seed)
    types = [f"w{i}" for i in range(8)] + ["caf\u00e9", "\u00fcber"]
    offset = 10.0 * rng.integers(-6, 7)
    pred, ref = {}, {}
    for u in range(n_utts):
        n = int(rng.integers(20, 60))
        starts = np.cumsum(rng.integers(0, 150, size=n)).astype(float)
        ends = starts + rng.integers(0, 200, size=n)
        words = [types[t] for t in rng.integers(0, len(types), size=n)]
        ref[f"u{u}"] = word_times(zip(words, starts, ends))
        hyp = []
        for w, s, e in zip(words, starts, ends):
            edit = rng.random()
            if edit < 0.05:
                continue
            if edit < 0.1:
                w = "sub"
            elif not w.isascii() and rng.random() < 0.5:
                w = unicodedata.normalize("NFD", w)
            jitter = rng.integers(-4, 5) if rng.random() < 0.8 else rng.integers(-120, 121)
            shift = offset + jitter
            hyp.append(TimedWord(w, max(s + shift, 0.0), max(e + shift, 0.0)))
            if edit > 0.95:
                hyp.append(TimedWord("ins", max(e + shift, 0.0), max(e + shift, 0.0) + 50.0))
        pred[f"u{u}"] = word_times(hyp)
    return pred, ref


class TestObjectPathIdentity:
    """`metrics` and `gridsearch` write what the object path of scoring (one
    TimedWord per word, one WordPair per matched word) writes."""

    THRESHOLDS = [20.0, 80.0, 200.0]

    @staticmethod
    def _run(tmp_path, pred, ref):
        dataio.write_timings_jsonl(tmp_path / "hyp.jsonl", pred)
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", ref)
        files = ["--hyp", str(tmp_path / "hyp.jsonl"), "--ref", str(tmp_path / "ref.jsonl"),
                 "--no-timestamp"]
        assert main(["metrics", *files, "--thresholds", "20,80,200",
                     "--out", str(tmp_path / "metrics.json")]) == 0
        return main(["gridsearch", *files, "--range=-150:150:10", "--threshold", "25",
                     "--out", str(tmp_path / "curve.csv"), "--report", str(tmp_path / "grid.json")])

    @pytest.mark.parametrize("seed", range(4))
    def test_reports_and_curve(self, tmp_path, seed):
        pred, ref = planted_documents(seed)
        assert self._run(tmp_path, pred, ref) == 0
        hyp_words = read_timings_objects(tmp_path / "hyp.jsonl")
        ref_words = read_timings_objects(tmp_path / "ref.jsonl")
        want = tmp_path / "want"
        want.mkdir()
        dataio.write_metrics_json(want / "metrics.json",
                                  object_metrics(hyp_words, ref_words, self.THRESHOLDS),
                                  timestamp=False)
        best, report, curve = object_gridsearch_offset(
            hyp_words, ref_words, (-150.0, 150.0), 10.0, 25.0)
        (want / "curve.csv").write_text(dataio.rows_to_csv(
            [{"offset_ms": offset, "score": score} for offset, score in curve]))
        dataio.write_metrics_json(want / "grid.json", report, extra={"best_offset_ms": best},
                                  timestamp=False)
        for name in ("metrics.json", "curve.csv", "grid.json"):
            assert (tmp_path / name).read_bytes() == (want / name).read_bytes(), name
        assert json.loads((want / "metrics.json").read_text())["n_matched"] > 100

    @pytest.mark.parametrize("seed", range(4))
    def test_library_with_an_utterance_missing(self, seed):
        """gridsearch_offset, the matched times and timing_metrics equal the
        object path's when the hypothesis lacks an utterance, and when a
        hypothesis and a reference utterance in the middle have no words."""
        for case in ("missing", "empty"):
            pred, ref = planted_documents(seed)
            if case == "missing":
                del pred["u2"]
            else:
                pred["u1"] = ref["u3"] = word_times([])
            want_best, want_report, want_curve = object_gridsearch_offset(
                word_objects(pred), word_objects(ref), (-150.0, 150.0), 10.0, 25.0)
            pairs, n_hyp, n_ref = object_match_words(word_objects(pred), word_objects(ref))
            want_times = object_pair_times(pairs)
            want_metrics = object_times_report(*want_times, self.THRESHOLDS, n_hyp, n_ref)
            assert n_ref > want_metrics.n_matched > 0
            best, report, curve = gridsearch_offset(pred, ref, (-150.0, 150.0), 10.0, 25.0)
            assert (best, report.to_dict(), curve) == (
                want_best, want_report.to_dict(), want_curve)
            hyp_times, ref_times, *counts = _matched_times(pred, ref)
            assert np.array_equal(hyp_times, want_times[0])
            assert np.array_equal(ref_times, want_times[1])
            assert counts == [n_hyp, n_ref]
            got = timing_metrics(pred, ref, self.THRESHOLDS)
            assert got.to_dict() == want_metrics.to_dict()

    def test_nothing_to_score(self, tmp_path, capsys):
        pred = {"u": one_word("a", 0.0, 10.0)}
        ref = {"u": one_word("b", 0.0, 10.0)}
        with pytest.raises(ValueError) as want:
            object_gridsearch_offset(word_objects(pred), word_objects(ref),
                                     (-150.0, 150.0), 10.0, 25.0)
        with pytest.raises(ValueError) as got:
            gridsearch_offset(pred, ref, (-150.0, 150.0), 10.0, 25.0)
        assert str(got.value) == str(want.value)
        assert self._run(tmp_path, pred, ref) == 2
        out, err = capsys.readouterr()
        assert out == "no matched words\n" and err == f"error: {want.value}\n"
        dataio.write_metrics_json(tmp_path / "want.json",
                                  object_metrics(word_objects(pred), word_objects(ref),
                                                 self.THRESHOLDS), timestamp=False)
        assert (tmp_path / "metrics.json").read_bytes() == (tmp_path / "want.json").read_bytes()
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

    def test_abort_replaces_sidecar(self, tmp_path, capsys):
        write_fixture(tmp_path)
        labels = dataio.read_labels_jsonl(tmp_path / "labels.jsonl")
        dataio.write_labels_jsonl(tmp_path / "partial.jsonl", [("u2", *labels["u2"])])
        argv = ["analyze-peaks", "--logits", str(tmp_path / "logits.jsonl"),
                "--labels", str(tmp_path / "partial.jsonl"), "--ref", str(tmp_path / "ref.jsonl"),
                "--gamma-inf", "0.0", "--out", str(tmp_path / "hist.csv")]
        assert main(argv) == 0
        sidecar = tmp_path / "hist.csv.errors"
        assert [json.loads(line)["utt"] for line in sidecar.read_text().splitlines()] == ["u1"]
        logits = tmp_path / "logits.jsonl"
        logits.write_text(logits.read_text().splitlines()[0] + "\n{broken\n")
        assert main(argv) == 2
        records = [json.loads(line) for line in sidecar.read_text().splitlines()]
        assert records[0] == {"utt": "u1", "error": "no labels for utterance"}
        assert records[1]["utt"] is None
        assert records[1]["error"].startswith("aborted: ")
        assert "logits.jsonl:2: malformed JSON" in records[1]["error"]
        assert len(records) == 2
        assert "2 failure(s)" in capsys.readouterr().err

    def test_bins_validation_exit_1(self, tmp_path):
        write_fixture(tmp_path)
        rc = main(["analyze-peaks", "--logits", str(tmp_path / "logits.jsonl"),
                   "--labels", str(tmp_path / "labels.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"),
                   "--bins", "0", "--out", str(tmp_path / "hist.csv")])
        assert rc == 1

    @pytest.mark.parametrize("lo, hi", [("2", "1"), ("1", "1")])
    def test_empty_range_exit_1_before_aligning(self, tmp_path, capsys, lo, hi):
        write_fixture(tmp_path)
        rc = main(["analyze-peaks", "--logits", str(tmp_path / "logits.jsonl"),
                   "--labels", str(tmp_path / "labels.jsonl"),
                   "--ref", str(tmp_path / "ref.jsonl"),
                   "--range-lo", lo, "--range-hi", hi, "--out", str(tmp_path / "hist.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--range-lo" in err and "--range-hi" in err
        assert not (tmp_path / "hist.csv").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda r: r["pieces"].__setitem__(0, 1.7), "label id must be an integer, got 1.7"),
    (lambda r: r["pieces"].__setitem__(0, True), "label id must be an integer, got True"),
    (lambda r: r["words"][1].__setitem__("last", 1.9), "last piece must be an integer, got 1.9"),
    (lambda r: r["words"][0].__setitem__("w", 5), "word text must be a string, got 5"),
    (lambda r: r.update(pieces={"1": 2}), "pieces must be a JSON array, got {'1': 2}"),
    (lambda r: r["words"].__setitem__(0, ["t1", 0, 0]),
     "each of words must be a JSON object, got ['t1', 0, 0]"),
], ids=["float-piece", "bool-piece", "float-last", "int-word", "pieces-object", "word-list"])
@pytest.mark.parametrize("command", ["align", "analyze-peaks"])
def test_non_integer_label_field_exit_2(tmp_path, capsys, command, edit, message):
    write_fixture(tmp_path)
    labels = tmp_path / "labels.jsonl"
    records = [json.loads(line) for line in labels.read_text().splitlines()]
    edit(records[0])
    labels.write_text("".join(json.dumps(record) + "\n" for record in records))
    source = ["--vocab", str(tmp_path / "vocab.txt")] if command == "align" else [
        "--ref", str(tmp_path / "ref.jsonl")]
    rc = main([command, "--logits", str(tmp_path / "logits.jsonl"), "--labels", str(labels),
               *source, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"labels.jsonl:1: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, source", [
    ("align", "labels"), ("align", "vocab"), ("analyze-peaks", "labels"),
    ("analyze-peaks", "ref"),
])
def test_abort_on_an_input_file_replaces_sidecar(tmp_path, capsys, command, source):
    """A run that aborts before it aligns anything still replaces the
    sidecar of an earlier run, with only its aborted: record."""
    write_fixture(tmp_path)
    out = tmp_path / "out"
    sidecar = tmp_path / "out.errors"
    sidecar.write_text('{"utt": "u1", "error": "no labels for utterance"}\n')
    paths = {name: str(tmp_path / file) for name, file in (
        ("labels", "labels.jsonl"), ("vocab", "vocab.txt"), ("ref", "ref.jsonl"))}
    paths[source] = str(tmp_path / "bad")
    (tmp_path / "bad").write_text("{broken\n" if source != "vocab" else "t1\n<blank>\n")
    other = ["--vocab", paths["vocab"]] if command == "align" else ["--ref", paths["ref"]]
    rc = main([command, "--logits", str(tmp_path / "logits.jsonl"), "--labels", paths["labels"],
               *other, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    records = [json.loads(line) for line in sidecar.read_text().splitlines()]
    assert len(records) == 1 and records[0]["utt"] is None
    reason = "line 0 must be '<blank>'" if source == "vocab" else "bad:1: malformed JSON"
    assert records[0]["error"].startswith("aborted: ") and reason in records[0]["error"]
    assert f"1 failure(s); see {sidecar}" in err and reason in err
    assert not out.exists()


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        write_fixture(tmp_path)
        argv = ["metrics", "--hyp", str(tmp_path / "ref.jsonl"),
                "--ref", str(tmp_path / "ref.jsonl")]
        assert main(argv) == 0
        n_parsers = len(built)
        assert n_parsers > 0
        assert main(argv) == 0
        assert main(["metrics", "--hyp", "h", "--ref", "r", "--thresholds", "abc"]) == 1
        assert len(built) == n_parsers
    finally:
        cli.build_parser.cache_clear()  # later tests build theirs with the real __init__


def test_import_leaves_process_pools_out():
    """Importing the command line in a fresh interpreter loads neither
    multiprocessing nor concurrent.futures: `align` imports them only when it
    starts workers, so every command's start-up skips them."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, ctctiming.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_process_exit_codes(tmp_path):
    """The codes a shell sees from `python -m ctctiming.cli`."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    write_fixture(tmp_path)
    ref = str(tmp_path / "ref.jsonl")
    for argv, code, flag in [
        (["--help"], 0, None),
        (["metrics", "--hyp", ref, "--ref", ref, "--thresholds", "abc"], 1, "--thresholds"),
        (["analyze-peaks", "--logits", "l", "--labels", "b", "--ref", ref,
          "--range-lo", "2", "--range-hi", "1", "--out", "p.csv"], 1, "--range-lo"),
        (["metrics", "--hyp", str(tmp_path / "missing.jsonl"), "--ref", ref], 2, None),
        (["metrics", "--hyp", ref, "--ref", ref], 0, None),
    ]:
        done = subprocess.run([sys.executable, "-m", "ctctiming.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == code, (argv, done.stderr)
        if flag:
            assert flag in done.stderr
        assert "Traceback" not in done.stderr


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
    (["align", "--logits", "l.jsonl", "--labels", "b.jsonl", "--vocab", "v.txt",
      "--offset-ms", "inf", "--out", "h.jsonl"], "--offset-ms"),
    (["align", "--logits", "l.jsonl", "--labels", "b.jsonl", "--vocab", "v.txt",
      "--gamma-inf", "nan", "--out", "h.jsonl"], "--gamma-inf"),
    (["align", "--logits", "l.jsonl", "--labels", "b.jsonl", "--vocab", "v.txt",
      "--frame-ms", "0", "--out", "h.jsonl"], "--frame-ms"),
    (["analyze-peaks", "--logits", "l.jsonl", "--labels", "b.jsonl", "--ref", "r.jsonl",
      "--gamma-inf", "inf", "--out", "p.csv"], "--gamma-inf"),
    (["analyze-peaks", "--logits", "l.jsonl", "--labels", "b.jsonl", "--ref", "r.jsonl",
      "--frame-ms", "nan", "--out", "p.csv"], "--frame-ms"),
    (["analyze-peaks", "--logits", "l.jsonl", "--labels", "b.jsonl", "--ref", "r.jsonl",
      "--range-lo", "inf", "--out", "p.csv"], "--range-lo"),
    (["analyze-peaks", "--logits", "l.jsonl", "--labels", "b.jsonl", "--ref", "r.jsonl",
      "--range-hi", "nan", "--out", "p.csv"], "--range-hi"),
    (["synth", "eval", "--corpus-dir", "c", "--model", "m.npz", "--offset-ms", "inf"],
     "--offset-ms"),
    (["synth", "eval", "--corpus-dir", "c", "--model", "m.npz", "--gamma-inf", "nan"],
     "--gamma-inf"),
    (["gridsearch", "--hyp", "h.jsonl", "--ref", "r.jsonl", "--range=0:5:0", "--out", "c.csv"],
     "--range"),
    (["gridsearch", "--hyp", "h.jsonl", "--ref", "r.jsonl", "--range=0:5:-10", "--out", "c.csv"],
     "--range"),
    (["analyze-peaks", "--logits", "l.jsonl", "--labels", "b.jsonl", "--ref", "r.jsonl",
      "--bins", "2.5", "--out", "p.csv"], "--bins"),
    (["align", "--logits", "l.jsonl"], "--labels"),
    (["metrics", "--hyp", "h.jsonl", "--ref", "r.jsonl", "--no-such-flag"], "--no-such-flag"),
    ([], "command"),
    (["bogus"], "bogus"),
], ids=["thresholds", "range", "span-frames", "range-inf", "range-nan", "thresholds-nan",
        "thresholds-negative", "thresholds-zero", "threshold-nan", "threshold-negative",
        "range-offsets-infinite", "range-offsets-above-bound", "align-offset-inf",
        "align-gamma-nan", "align-frame-ms-zero", "peaks-gamma-inf", "peaks-frame-ms-nan",
        "peaks-range-lo-inf", "peaks-range-hi-nan", "eval-offset-inf", "eval-gamma-nan",
        "range-step-zero", "range-step-negative", "bins-not-int", "missing-flag",
        "unknown-flag", "no-command", "unknown-command"])
def test_malformed_flag_value_exit_1(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, given", [
    (["metrics", "--hyp", "h.jsonl"], ["--ref", "r.jsonl"]),
    (["align", "--logits", "l.jsonl", "--labels", "b.jsonl", "--vocab", "v.txt",
      "--out", "h.jsonl"], ["--gamma-inf", "0"]),
    (["gridsearch", "--hyp", "h.jsonl", "--ref", "r.jsonl", "--out", "c.csv"],
     ["--no-timestamp"]),
], ids=["metrics-ref", "align-gamma-inf", "gridsearch-no-timestamp"])
def test_flag_given_twice_exit_1(tmp_path, monkeypatch, capsys, command, given):
    """A repeated flag is a usage error, not a silent override."""
    monkeypatch.chdir(tmp_path)
    assert main(command + given + given) == 1
    assert capsys.readouterr().err == f"error: argument {given[0]}: given twice\n"
    assert not list(tmp_path.iterdir())
    # the cached parser kept nothing of that parse, and leaves nothing in the next
    args = cli.build_parser().parse_args(command + given)
    assert not [key for key in vars(args) if key.startswith("_")]


@pytest.mark.parametrize("command", [
    ["synth", "gen", "--out-dir", "corpus"],
    ["synth", "sweep", "--kind", "gamma", "--out", "sweep.csv"],
], ids=["gen", "sweep"])
@pytest.mark.parametrize("flags, reason", [
    (["--span-frames", "5:1"], "span_frames: invalid range (5, 1)"),
    (["--n-utts", "0"], "need n_utts >= 1"),
    (["--noise-sigma", "nan"], "noise_sigma must be finite"),
], ids=["span-frames", "n-utts", "noise-sigma-nan"])
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
        occupancy = corpus_blank_occupancy(Classifier.load(model), train_split)
        assert re.fullmatch(
            rf"trained npc: final loss \d+\.\d{{4}}, blank occupancy {re.escape(f'{occupancy:.3f}')}; "
            rf"model at {re.escape(str(model))}\n",
            capsys.readouterr().out,
        )

    @pytest.mark.parametrize("kind", ["npz-without-b3", "npy", "text"])
    def test_bad_model_file_exit_2(self, tmp_path, capsys, kind):
        corpus_dir = tmp_path / "corpus"
        assert main(["synth", "gen", "--n-utts", "4", "--out-dir", str(corpus_dir)]) == 0
        params = Classifier.init(8, 4, 9, seed=0).params()
        model = tmp_path / {"npz-without-b3": "m.npz", "npy": "m.npy", "text": "m.txt"}[kind]
        with open(model, "wb") as handle:
            if kind == "npz-without-b3":
                np.savez(handle, **{k: v for k, v in params.items() if k != "b3"})
            elif kind == "npy":
                np.save(handle, params["w1"])
            else:
                handle.write(b"w1 b1 w2 b2 w3 b3\n")
        capsys.readouterr()
        rc = main(["synth", "eval", "--corpus-dir", str(corpus_dir), "--model", str(model)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {model}: ")

    @pytest.mark.parametrize("kind", ["gamma", "pfr"])
    def test_sweep_without_held_out_split_exit_1(self, tmp_path, monkeypatch, capsys, kind):
        """Fewer than five utterances leave the sweeps' held-out split empty:
        refused before any training."""
        calls = []
        monkeypatch.setattr(synth, "train", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "sweep.csv"
        rc = main(["synth", "sweep", "--kind", kind, "--n-utts", "4", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --n-utts: need n_utts >= 5")
        assert calls == [] and not out.exists()

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
        (["--method", "pfr", "--lambda-pfr", "1", "--tau", "inf"], "tau must be finite"),
        (["--method", "npc", "--learning-rate", "nan"], "learning_rate must be finite"),
        (["--method", "npc", "--gamma-train", "inf"], "gamma_train must be finite"),
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

    def test_corpus_seed_flag_sets_corpus_seed(self, tmp_path):
        assert main(["synth", "gen", "--n-utts", "4", "--corpus-seed", "5",
                     "--out-dir", str(tmp_path / "flag")]) == 0
        cli._write_corpus(generate_corpus(CorpusSpec(n_utts=4, seed=5)), tmp_path / "lib", 8)
        cli._write_corpus(generate_corpus(CorpusSpec(n_utts=4)), tmp_path / "default", 8)
        for name in ("features_lo.jsonl", "labels.jsonl", "ref_timings.jsonl"):
            flag = (tmp_path / "flag" / name).read_bytes()
            assert flag == (tmp_path / "lib" / name).read_bytes()
            assert flag != (tmp_path / "default" / name).read_bytes()

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
        clf = Classifier.load(tmp_path / "m.npz")
        corpus = generate_corpus(CorpusSpec(n_utts=8))
        items = []
        for utt in corpus:
            logits, _ = model_forward(clf, inputs_for(clf, utt), utt.utt_id)
            spans = align_spans(logits, utt.labels, 1.0)
            items.append(peak_items(spans, utt.word_map, utt.ref_timings, FRAME_MS))
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
        ref = {"u": one_word("a", 100.0, 200.0)}
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

    @pytest.mark.parametrize("seed", [3, 8])
    def test_model_as_wide_as_vocab(self, tmp_path, seed):
        """A training split without the vocabulary's last token still gives
        a model as wide as vocab.txt, so the held-out split, which has that
        token, evaluates."""
        corpus_dir, model = tmp_path / "corpus", tmp_path / "m.npz"
        assert main(["synth", "gen", "--n-utts", "4", "--corpus-seed", str(seed),
                     "--out-dir", str(corpus_dir)]) == 0
        n_vocab = len((corpus_dir / "vocab.txt").read_text().splitlines())
        train_split, _ = split_corpus(generate_corpus(CorpusSpec(n_utts=4, seed=seed)), 2)
        assert max(max(u.labels.tokens) for u in train_split) < n_vocab - 1
        split = ["--corpus-dir", str(corpus_dir), "--holdout-every", "2"]
        assert main(["synth", "train", *split, "--method", "npc", "--epochs", "2",
                     "--model-out", str(model)]) == 0
        assert main(["synth", "eval", *split, "--model", str(model)]) == 0
        assert Classifier.load(model).w3.shape[1] == n_vocab

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

    @pytest.mark.parametrize("offset, shown", [("-35", "-35"), ("-0", "0")], ids=["-35", "-0"])
    def test_summary_line_names_the_applied_offset(self, trained, tmp_path, capsys,
                                                   offset, shown):
        corpus_dir, model = trained
        dumps = {name: str(tmp_path / f"{name}.jsonl") for name in ("hyp", "ref")}
        capsys.readouterr()
        assert main(["synth", "eval", "--corpus-dir", str(corpus_dir), "--model", str(model),
                     "--offset-ms", offset, "--thresholds", "20", "--dump-hyp", dumps["hyp"],
                     "--dump-ref", dumps["ref"]]) == 0
        eval_line = capsys.readouterr().out
        assert main(["metrics", "--hyp", dumps["hyp"], "--ref", dumps["ref"],
                     "--thresholds", "20"]) == 0
        metrics_line = capsys.readouterr().out
        assert eval_line.endswith(f"  offset {shown}\n") and metrics_line.endswith("  offset 0\n")
        assert eval_line.rsplit("offset", 1)[0] == metrics_line.rsplit("offset", 1)[0]

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


TRAIN_KEYS = [f.name for f in dataclasses.fields(synth.TrainConfig) if f.init]

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


# case -> (JSON config, key=value config, what stderr names besides the file)
BAD_CONFIGS = {
    "null-for-int": ('{"method": "npc", "epochs": null}', "method=npc\nepochs=null\n", "epochs"),
    "list-for-int": ('{"method": "npc", "epochs": [3]}', "method=npc\nepochs=[3]\n", "epochs"),
    "float-for-int": ('{"method": "npc", "epochs": 2.7}', "method=npc\nepochs=2.7\n", "epochs"),
    "bool-for-int": ('{"method": "npc", "epochs": true}', "method=npc\nepochs=true\n", "epochs"),
    "yes-for-bool": ('{"method": "npc", "fuse_features": "yes"}',
                     "method=npc\nfuse_features=yes\n", "fuse_features"),
    "malformed": ('{"method": "npc",}', "method npc\n", ""),
}


def _flags(settings: dict) -> list[str]:
    flags = []
    for key, value in settings.items():
        flag = f"--{key.replace('_', '-')}"
        flags += [flag] if value is True else [flag, str(value)]
    return flags


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
        return Classifier.load(model).params()

    @pytest.mark.parametrize("key", TRAIN_KEYS)
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

    def test_flag_json_and_key_value_build_equal_configs(self, tmp_path):
        """Each setting reaches TrainConfig the same way from a flag, a JSON
        config and a key=value config."""
        for key in TRAIN_KEYS:
            method, value = OFF_DEFAULT[key]
            settings = {"method": method, **({"lambda_pfr": 1.0} if method == "pfr" else {})}
            moved = {**settings, key: value}
            (tmp_path / "c.json").write_text(json.dumps(moved))
            (tmp_path / "c.cfg").write_text("".join(f"{k}={v}\n" for k, v in moved.items()))
            base = ["synth", "train", "--corpus-dir", "c", "--model-out", "m.npz"]
            configs = [cli._train_config_from_args(cli.build_parser().parse_args(argv))
                       for argv in (base + _flags(moved),
                                    base + ["--config", str(tmp_path / "c.json")],
                                    base + ["--config", str(tmp_path / "c.cfg")])]
            assert configs[0] == configs[1] == configs[2], key
            assert configs[0] != synth.TrainConfig(**settings), key

    @pytest.mark.parametrize("text, value", [
        ("true", True), ("TRUE", True), ("1", True), ("false", False), ("False", False), ("0", False),
    ])
    def test_bool_spellings(self, tmp_path, text, value):
        config = tmp_path / "train.cfg"
        config.write_text(f"method=npc\nfuse_features={text}\n")
        assert cli._read_config_file(str(config))["fuse_features"] is value

    @pytest.mark.parametrize("form", ["json", "key=value"])
    @pytest.mark.parametrize("case", list(BAD_CONFIGS))
    def test_unparsable_config_exit_2(self, corpus_dir, tmp_path, capsys, case, form):
        json_text, key_value_text, named = BAD_CONFIGS[case]
        config = tmp_path / "train.cfg"
        config.write_text(json_text if form == "json" else key_value_text)
        model = tmp_path / "m.npz"
        rc = main(["synth", "train", "--corpus-dir", str(corpus_dir),
                   "--config", str(config), "--model-out", str(model)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(config) in err and named in err
        assert "Traceback" not in err
        assert not model.exists()

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
            timings.append((f"w{tok}", (t + gap) * FRAME_MS, (t + gap + span) * FRAME_MS))
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
            ref[utt] = word_times(timings)
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

    def test_ranges_return_one_span_array_per_utterance(self, tmp_path):
        """Each aligned utterance comes back from its range as one int64 (3, U)
        array, the spans an independent Viterbi and span reading give."""
        write_mixed_fixture(tmp_path)
        path = tmp_path / "logits.jsonl"
        label_map = dataio.read_labels_jsonl(tmp_path / "labels.jsonl")
        job = cli._AlignJob(str(path), None, 1.0, label_map)
        logits = {m.utt_id: m for m in dataio.iter_logits_jsonl(path)}
        n_arrays = 0
        for byte_range in dataio.line_ranges(path, 4):
            for _, utt, _, _, outcome in cli._align_range(job, byte_range):
                if isinstance(outcome, str):
                    continue
                labels = label_map[utt][0]
                assert type(outcome) is np.ndarray and outcome.dtype == np.int64
                assert outcome.shape == (3, len(labels))
                log_probs = log_softmax_rows(apply_label_prior(logits[utt], 1.0).frames)
                states = forced_align_backpointers(log_probs, labels.tokens)
                want = token_spans_flatnonzero(states, labels.tokens, np.exp(log_probs))
                assert np.array_equal(outcome, want), utt
                n_arrays += 1
        assert n_arrays == 38

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


def _feed(fifo, data):
    try:
        with open(fifo, "wb") as handle:
            handle.write(data)
    except BrokenPipeError:  # the reader closed the pipe before the end
        pass


@contextmanager
def piped(directory, sources: dict):
    """For each {flag: file} of sources, a FIFO in directory that a writer
    thread feeds the file's bytes; yields {flag: FIFO path}."""
    fifos, writers = {}, []
    for k, (flag, source) in enumerate(sources.items()):
        fifo = directory / f"pipe{k}"
        os.mkfifo(fifo)
        writer = threading.Thread(target=_feed, args=(fifo, Path(source).read_bytes()),
                                  daemon=True)
        writer.start()
        fifos[flag] = str(fifo)
        writers.append(writer)
    try:
        yield fifos
    finally:
        for fifo, writer in zip(fifos.values(), writers):
            # a pipe the run never opened leaves its writer waiting for a reader
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=30)
            assert not writer.is_alive()
        for fifo in fifos.values():
            os.unlink(fifo)


PIPED_RUNS = {  # command: ({input flag: file}, other flags)
    "align": ({"--logits": "logits.jsonl", "--labels": "labels.jsonl", "--vocab": "vocab.txt"},
              ["--out", "hyp.jsonl"]),
    "analyze-peaks": ({"--logits": "logits.jsonl", "--labels": "labels.jsonl",
                       "--ref": "ref.jsonl"}, ["--out", "hist.csv"]),
    "metrics": ({"--hyp": "doc_hyp.jsonl", "--ref": "doc_ref.jsonl"},
                ["--out", "metrics.json", "--no-timestamp"]),
    "gridsearch": ({"--hyp": "doc_hyp.jsonl", "--ref": "doc_ref.jsonl"},
                   ["--range=-150:150:10", "--out", "curve.csv", "--report", "grid.json",
                    "--no-timestamp"]),
}


@pytest.mark.parametrize("command", list(PIPED_RUNS))
def test_inputs_read_from_pipes(tmp_path, monkeypatch, capsys, command):
    """Every input may be a pipe: the run writes the bytes, stdout and stderr
    of the run on regular files, on 2 CPUs, where only the regular logits
    file is split among workers."""
    write_mixed_fixture(tmp_path)
    pred, ref = planted_documents(0)
    dataio.write_timings_jsonl(tmp_path / "doc_hyp.jsonl", pred)
    dataio.write_timings_jsonl(tmp_path / "doc_ref.jsonl", ref)
    inputs, flags = PIPED_RUNS[command]
    sources = {flag: str(tmp_path / name) for flag, name in inputs.items()}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    runs = []
    for name in ("files", "pipes"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)  # outputs by relative name, so messages match
        with piped(run_dir, sources) if name == "pipes" else nullcontext(sources) as paths:
            rc = main([command, *(arg for flag, path in paths.items() for arg in (flag, path)),
                       *flags])
        captured = capsys.readouterr()
        written = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
        runs.append((rc, captured.out, captured.err, written))
    assert runs[0][0] == 0 and runs[0][3]
    assert runs[1] == runs[0]
