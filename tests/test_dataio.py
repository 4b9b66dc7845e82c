import json
import tracemalloc

import numpy as np
import pytest

from ctctiming import dataio
from ctctiming.boundary import WordMap, WordTiming
from ctctiming.ctc import LabelSequence, LogitMatrix
from ctctiming.dataio import DataFormatError
from ctctiming.synth import Classifier


class TestLogitsJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "logits.jsonl"
        rng = np.random.default_rng(0)
        mats = [
            LogitMatrix("u1", rng.normal(size=(3, 4)), 40.0),
            LogitMatrix("u2", rng.normal(size=(5, 4)), 40.0),
        ]
        dataio.write_logits_jsonl(path, mats)
        back = list(dataio.iter_logits_jsonl(path))
        assert [m.utt_id for m in back] == ["u1", "u2"]
        for a, b in zip(mats, back):
            assert np.array_equal(a.frames, b.frames)
            assert a.frame_ms == b.frame_ms

    def test_frame_ms_override(self, tmp_path):
        path = tmp_path / "logits.jsonl"
        dataio.write_logits_jsonl(path, [LogitMatrix("u", np.zeros((2, 2)), 40.0)])
        back = next(iter(dataio.iter_logits_jsonl(path, frame_ms=10.0)))
        assert back.frame_ms == 10.0
        # the override stands in for a record that has no frame_ms
        path.write_text(json.dumps({"utt": "u", "frames": [[0.0, 1.0]]}) + "\n")
        back = next(iter(dataio.iter_logits_jsonl(path, frame_ms=10.0)))
        assert back.frame_ms == 10.0
        assert np.array_equal(back.frames, [[0.0, 1.0]])

    def test_parsed_record_freed_before_yield(self, tmp_path):
        path = tmp_path / "logits.jsonl"
        rng = np.random.default_rng(3)
        dataio.write_logits_jsonl(
            path, [LogitMatrix(u, rng.normal(size=(2000, 32)), 10.0) for u in ("a", "b")]
        )
        tracemalloc.start()
        try:
            records = dataio.iter_logits_jsonl(path)
            before = tracemalloc.get_traced_memory()[0]
            first = next(records)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert first.utt_id == "a"
        # the returned frames, not the JSON text or its lists of floats
        assert held - first.frames.nbytes < first.frames.nbytes

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "logits.jsonl"
        good = json.dumps({"utt": "u", "frame_ms": 10.0, "frames": [[0.0, 0.0]]})
        for bad in [
            "{broken",
            json.dumps({"utt": "v", "frame_ms": None, "frames": [[0.0, 0.0]]}),
            json.dumps({"utt": "v", "frame_ms": 10.0, "frames": {"a": 1}}),
        ]:
            path.write_text(good + "\n" + bad + "\n")
            with pytest.raises(DataFormatError, match=r"logits.jsonl:2: "):
                list(dataio.iter_logits_jsonl(path))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "logits.jsonl"
        path.write_text(json.dumps({"utt": "u", "frames": [[0.0, 0.0]]}) + "\n")
        with pytest.raises(DataFormatError, match="frame_ms"):
            list(dataio.iter_logits_jsonl(path))

    def test_too_large_integer_rejected(self, tmp_path):
        path = tmp_path / "logits.jsonl"
        path.write_text('{"utt": "u", "frame_ms": 10.0, "frames": [[0.0, 1%s]]}\n' % ("0" * 400))
        with pytest.raises(DataFormatError, match=r"logits.jsonl:1: .*too large"):
            list(dataio.iter_logits_jsonl(path))

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "logits.jsonl"
        path.write_text('{"utt": "u", "frame_ms": 10.0, "frames": [[0.0, null]]}\n')
        with pytest.raises(DataFormatError):
            list(dataio.iter_logits_jsonl(path))


    def test_duplicate_utterance_rejected(self, tmp_path):
        path = tmp_path / "logits.jsonl"
        mat = LogitMatrix("a", np.zeros((2, 3)), 10.0)
        dataio.write_logits_jsonl(path, [mat, LogitMatrix("b", np.zeros((2, 3)), 10.0), mat])
        with pytest.raises(DataFormatError, match=r"logits.jsonl:3: duplicate .*'a'.* line 1"):
            list(dataio.iter_logits_jsonl(path))


class TestLabelsJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        items = [
            ("u1", LabelSequence((1, 2, 3)), WordMap((("ab", 0, 1), ("c", 2, 2)))),
        ]
        dataio.write_labels_jsonl(path, items)
        back = dataio.read_labels_jsonl(path)
        labels, word_map = back["u1"]
        assert labels.tokens == (1, 2, 3)
        assert word_map.words == (("ab", 0, 1), ("c", 2, 2))

    def test_word_map_mismatch_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        record = {"utt": "u", "pieces": [1, 2, 3],
                  "words": [{"w": "a", "first": 0, "last": 0}]}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DataFormatError):
            dataio.read_labels_jsonl(path)

    def test_duplicate_utterance_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        record = {"utt": "a", "pieces": [1], "words": [{"w": "x", "first": 0, "last": 0}]}
        other = dict(record, utt="b")
        path.write_text("\n".join(json.dumps(r) for r in (record, other, record)) + "\n")
        with pytest.raises(DataFormatError, match=r"labels.jsonl:3: duplicate .*'a'.* line 1"):
            dataio.read_labels_jsonl(path)


class TestTimingsJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "timings.jsonl"
        timings = {"u1": [WordTiming("hello", 10.0, 50.0), WordTiming("world", 60.0, 120.0)]}
        dataio.write_timings_jsonl(path, timings)
        assert dataio.read_timings_jsonl(path) == timings

    def test_invalid_timing_rejected(self, tmp_path):
        path = tmp_path / "timings.jsonl"
        record = {"utt": "u", "words": [{"w": "a", "start_ms": 50.0, "end_ms": 10.0}]}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DataFormatError, match=":1"):
            dataio.read_timings_jsonl(path)

    def test_too_large_integer_rejected(self, tmp_path):
        path = tmp_path / "timings.jsonl"
        path.write_text('{"utt": "u", "words": [{"w": "a", "start_ms": 0, "end_ms": 1%s}]}\n'
                        % ("0" * 400))
        with pytest.raises(DataFormatError, match=r"timings.jsonl:1: .*too large"):
            dataio.read_timings_jsonl(path)

    def test_duplicate_utterance_rejected(self, tmp_path):
        path = tmp_path / "timings.jsonl"
        first = {"utt": "a", "words": [{"w": "x", "start_ms": 0.0, "end_ms": 10.0}]}
        second = {"utt": "a", "words": [{"w": "y", "start_ms": 0.0, "end_ms": 10.0}]}
        path.write_text(json.dumps(first) + "\n\n" + json.dumps(second) + "\n")
        with pytest.raises(DataFormatError, match=r"timings.jsonl:3: duplicate .*'a'.* line 1"):
            dataio.read_timings_jsonl(path)


class TestVocab:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "vocab.txt"
        dataio.write_vocab(path, ["t1", "t2", "t3"])
        assert dataio.read_vocab(path) == ["<blank>", "t1", "t2", "t3"]

    def test_blank_must_lead(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("t1\n<blank>\n")
        with pytest.raises(DataFormatError, match="blank"):
            dataio.read_vocab(path)


class TestCsv:
    def test_histogram(self, tmp_path):
        path = tmp_path / "hist.csv"
        dataio.write_histogram_csv(path, np.array([1, 2]), np.array([0.0, 0.5, 1.0]))
        assert path.read_text() == "bin_lo,bin_hi,count\n0,0.5,1\n0.5,1,2\n"

    def test_curve(self, tmp_path):
        path = tmp_path / "curve.csv"
        dataio.write_curve_csv(path, [(-10.0, 50.0), (0.0, 75.5)])
        assert path.read_text() == "offset_ms,score\n-10,50\n0,75.5\n"

    def test_sweep_rows(self):
        rows = [{"gamma_train": 0.0, "pct": 12.345678}, {"gamma_train": 0.25, "pct": 99.0}]
        text = dataio.sweep_rows_to_csv(rows)
        assert text == "gamma_train,pct\n0,12.3457\n0.25,99\n"


class TestClassifierIo:
    def test_roundtrip(self, tmp_path):
        clf = Classifier.init(4, 8, 5, seed=3)
        path = tmp_path / "model.npz"
        dataio.save_classifier(path, clf)
        back = dataio.load_classifier(path)
        for key, value in clf.params().items():
            assert np.array_equal(value, back.params()[key])
