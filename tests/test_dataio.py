import ast
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ctctiming import boundary, dataio
from ctctiming.boundary import WordMap, WordTimes
from ctctiming.ctc import LabelSequence, LogitMatrix
from ctctiming.dataio import DataFormatError
from ctctiming.synth import Classifier

from oracles import TimedWord, word_rows, word_times


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
        [(_, back)] = dataio.numbered_logits(path, 10.0)
        assert back.frame_ms == 10.0
        # the override stands in for a record that has no frame_ms
        path.write_text(json.dumps({"utt": "u", "frames": [[0.0, 1.0]]}) + "\n")
        [(_, back)] = dataio.numbered_logits(path, 10.0)
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


class TestLineRanges:
    def _mixed_file(self, path):
        """Records of very different sizes, a blank line and no final newline."""
        rng = np.random.default_rng(5)
        lines = [json.dumps({"utt": f"u{i}", "frame_ms": 10.0,
                             "frames": rng.normal(size=(int(n), 3)).round(3).tolist()})
                 for i, n in enumerate(rng.integers(1, 60, size=25))]
        lines.insert(7, "")
        path.write_text("\n".join(lines), encoding="utf-8")
        return lines

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 40])
    def test_ranges_tile_the_file_on_line_boundaries(self, tmp_path, n):
        path = tmp_path / "logits.jsonl"
        lines = self._mixed_file(path)
        data = path.read_bytes()
        ranges = dataio.line_ranges(path, n)
        assert 1 <= len(ranges) <= n
        assert ranges[0][0] == 0 and ranges[-1][1] == len(data)
        for (start, end, first), nxt in zip(ranges, ranges[1:] + [None]):
            assert start < end
            assert start == 0 or data[start - 1:start] == b"\n"
            assert first == data[:start].count(b"\n") + 1
            if nxt is not None:
                assert nxt[0] == end
        # the ranges read back every record once, in order, with its absolute line
        got = [(line, m.utt_id) for span in ranges
               for line, m in dataio.numbered_logits(path, byte_range=span)]
        want = [(i + 1, json.loads(text)["utt"]) for i, text in enumerate(lines) if text]
        assert got == want

    def test_empty_file_has_no_ranges(self, tmp_path):
        path = tmp_path / "logits.jsonl"
        path.write_bytes(b"")
        assert dataio.line_ranges(path, 4) == []

    def test_error_in_a_later_range_names_its_absolute_line(self, tmp_path):
        path = tmp_path / "logits.jsonl"
        lines = self._mixed_file(path)
        lines[20] = "{broken"
        path.write_text("\n".join(lines), encoding="utf-8")
        span = [r for r in dataio.line_ranges(path, 4) if r[2] <= 21][-1]
        assert span[2] > 1
        with pytest.raises(DataFormatError, match=r"logits.jsonl:21: malformed JSON"):
            list(dataio.numbered_logits(path, byte_range=span))

    def test_invalid_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "logits.jsonl"
        good = json.dumps({"utt": "u", "frame_ms": 10.0, "frames": [[0.0, 0.0]]})
        path.write_bytes(good.encode() + b"\n" + b'{"utt": "\xff"}\n')
        with pytest.raises(DataFormatError, match=r"logits.jsonl:2: .*utf-8"):
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

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.update(pieces={"1": 2}), "pieces must be a JSON array, got {'1': 2}"),
        (lambda r: r.update(pieces=5), "pieces must be a JSON array, got 5"),
        (lambda r: r.update(pieces=None), "pieces must be a JSON array, got None"),
        (lambda r: r.update(words={"w": 1}), "words must be a JSON array, got {'w': 1}"),
        (lambda r: r.update(words="x"), "words must be a JSON array, got 'x'"),
        (lambda r: r["words"].__setitem__(1, ["x", 1, 1]),
         "each of words must be a JSON object, got ['x', 1, 1]"),
        (lambda r: r["words"].__setitem__(0, "x"),
         "each of words must be a JSON object, got 'x'"),
    ], ids=["pieces-object", "pieces-int", "pieces-null", "words-object", "words-string",
            "word-list", "word-string"])
    def test_non_array_or_non_object_rejected(self, tmp_path, edit, message):
        path = tmp_path / "labels.jsonl"
        record = {"utt": "u", "pieces": [1, 2],
                  "words": [{"w": "a", "first": 0, "last": 0}, {"w": "b", "first": 1, "last": 1}]}
        edit(record)
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DataFormatError) as err:
            dataio.read_labels_jsonl(path)
        assert str(err.value) == f"{path}:1: {message}"

    def test_label_ids_checked_against_a_given_vocab(self, tmp_path):
        """Given the vocabulary's width, the first record with a piece id
        past it is refused by file and line; without it, every id reads."""
        path = tmp_path / "labels.jsonl"
        dataio.write_labels_jsonl(path, [
            (utt, LabelSequence(tokens), WordMap(tuple((f"w{u}", u, u) for u in range(3))))
            for utt, tokens in (("a", (1, 2, 2)), ("b", (2, 3, 1)), ("c", (4, 1, 1)))
        ])
        assert dataio.read_labels_jsonl(path, 5)["c"][0].tokens == (4, 1, 1)
        assert set(dataio.read_labels_jsonl(path)) == {"a", "b", "c"}
        with pytest.raises(DataFormatError) as err:
            dataio.read_labels_jsonl(path, 3)
        assert str(err.value) == f"{path}:2: label id 3 out of range for V=3"

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
        timings = {"u1": word_times([("hello", 10.0, 50.0), ("world", 60.0, 120.0)])}
        dataio.write_timings_jsonl(path, timings)
        back = dataio.read_timings_jsonl(path)
        assert list(back) == ["u1"] and word_rows(back["u1"]) == word_rows(timings["u1"])

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


def first_word_error(words) -> str | None:
    """The message of the first word that fails to build as the oracles'
    TimedWord, in order, as a timings record's words were once read one
    object at a time; a word that is not a JSON object is refused by name."""
    try:
        for w in words:
            if type(w) is not dict:
                raise TypeError(f"each of words must be a JSON object, got {w!r}")
            TimedWord(w["w"], w["start_ms"], w["end_ms"])
    except (ValueError, KeyError, TypeError, OverflowError) as err:
        return str(err)
    return None


class TestTimingsColumns:
    """read_timings_jsonl checks a record's words in bulk and builds no word
    object; a bad word raises the error the per-word rule gives it."""

    N_WORDS = 200

    @classmethod
    def _words_text(cls, bad_at: int, bad_word: str) -> str:
        # integer and float times alternate; the words are spelled as JSON text
        # so that NaN, Infinity, 1e400 and a 400-digit integer reach the reader
        words = [
            f'{{"w": "w{i}", "start_ms": {10 * i if i % 2 else 10.0 * i}, "end_ms": {10 * i + 5}}}'
            for i in range(cls.N_WORDS)
        ]
        words[bad_at] = bad_word
        return "[" + ", ".join(words) + "]"

    BAD_TIMES = {"string": '"0"', "null": "null", "true": "true", "false": "false",
                 "nan": "NaN", "inf": "Infinity", "1e400": "1e400", "10**400": "1" + "0" * 400}
    BAD_WORDS = {
        **{f"text-{name}": f'{{"w": {text}, "start_ms": 0, "end_ms": 10}}'
           for name, text in [("int", "5"), ("null", "null"), ("list", '["a"]'),
                              ("true", "true")]},
        **{f"start-{name}": f'{{"w": "a", "start_ms": {value}, "end_ms": 10}}'
           for name, value in BAD_TIMES.items()},
        **{f"end-{name}": f'{{"w": "a", "start_ms": 0, "end_ms": {value}}}'
           for name, value in BAD_TIMES.items()},
        "negative-start": '{"w": "a", "start_ms": -5, "end_ms": 10}',
        "start-after-end": '{"w": "a", "start_ms": 50.5, "end_ms": 10}',
        "missing-key": '{"w": "a", "start_ms": 0}',
        "not-an-object": '["a", 0, 10]',
    }

    @pytest.mark.parametrize("bad_at", [0, 100, 199], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad_word", BAD_WORDS.values(), ids=BAD_WORDS.keys())
    def test_bad_word_raises_its_own_error(self, tmp_path, bad_at, bad_word):
        path = tmp_path / "timings.jsonl"
        words = self._words_text(bad_at, bad_word)
        path.write_text('{"utt": "a", "words": []}\n{"utt": "u", "words": %s}\n' % words)
        message = first_word_error(json.loads(words))
        assert message is not None
        with pytest.raises(DataFormatError) as err:
            dataio.read_timings_jsonl(path)
        assert str(err.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("words, expect", [
        # a bad word before a word without its keys raises its own error
        ('[{"w": "a", "start_ms": 9, "end_ms": 1}, {"w": "b"}]', "need 0 <= start"),
        ('[{"w": 5, "start_ms": 0, "end_ms": 1}, 7]', "word text must be a string"),
        ('[{"w": "a", "start_ms": 0, "end_ms": 1}, {"start_ms": true}]', "'w'"),
    ], ids=["range-before-missing-key", "text-before-non-object", "missing-text"])
    def test_record_errors_in_word_order(self, tmp_path, words, expect):
        path = tmp_path / "timings.jsonl"
        path.write_text('{"utt": "u", "words": %s}\n' % words)
        message = first_word_error(json.loads(words))
        assert expect in message
        with pytest.raises(DataFormatError) as err:
            dataio.read_timings_jsonl(path)
        assert str(err.value) == f"{path}:1: {message}"

    @pytest.mark.parametrize("words, message", [
        ("{}", "words must be a JSON array, got {}"),
        ('""', "words must be a JSON array, got ''"),
        ('{"w": 1}', "words must be a JSON array, got {'w': 1}"),
        ("5", "words must be a JSON array, got 5"),
        ("null", "words must be a JSON array, got None"),
        ('{"w": "a"}', "words must be a JSON array, got {'w': 'a'}"),
    ], ids=["object-empty", "string-empty", "object", "words-int", "words-null",
            "words-object"])
    def test_words_not_an_array_rejected(self, tmp_path, words, message):
        path = tmp_path / "timings.jsonl"
        path.write_text('{"utt": "a", "words": []}\n{"utt": "b", "words": %s}\n' % words)
        with pytest.raises(DataFormatError) as err:
            dataio.read_timings_jsonl(path)
        assert str(err.value) == f"{path}:2: {message}"
        path.write_text('{"utt": "a", "words": []}\n')
        empty = dataio.read_timings_jsonl(path)
        assert list(empty) == ["a"] and word_rows(empty["a"]) == []

    def test_builds_no_word_objects(self, tmp_path, monkeypatch):
        path = tmp_path / "timings.jsonl"
        path.write_text(
            '{"utt": "u", "words": %s}\n{"utt": "e", "words": []}\n' % self._words_text(
                0, '{"w": "caf\\u00e9", "start_ms": 0, "end_ms": 0}')
        )
        want = {r["utt"]: [tuple(TimedWord(w["w"], w["start_ms"], w["end_ms"]))
                           for w in r["words"]]
                for r in map(json.loads, path.read_text().splitlines())}
        walked = []  # WordTimes checks a word alone only when the bulk check fails
        number = boundary._number
        monkeypatch.setattr(boundary, "_number",
                            lambda value, what: walked.append(what) or number(value, what))
        timings = dataio.read_timings_jsonl(path)
        assert walked == []
        monkeypatch.undo()
        assert {utt: word_rows(words) for utt, words in timings.items()} == want
        assert list(timings) == ["u", "e"]
        words = timings["u"]
        assert isinstance(words, WordTimes) and len(words) == self.N_WORDS
        assert words.texts[:2] == ("caf\u00e9", "w1")
        assert words.times.dtype == np.float64 and words.times.shape == (2, self.N_WORDS)
        assert words.times[:, 1].tolist() == [10.0, 15.0]
        assert not words.times.flags.writeable
        assert word_rows(words)[-1] == ("w199", 1990.0, 1995.0)
        assert [type(x) for x in word_rows(words)[1][1:]] == [float, float]


class TestValueTypes:
    """Times and logits are JSON numbers and utt ids JSON strings: nothing is
    converted from text or from true/false."""

    LOGITS = {"utt": "u", "frame_ms": 10.0, "frames": [[0.0, 1.5], [2.0, -1.0]]}
    TIMINGS = {"utt": "u", "words": [{"w": "a", "start_ms": 0.0, "end_ms": 10.0}]}
    LABELS = {"utt": "u", "pieces": [1], "words": [{"w": "a", "first": 0, "last": 0}]}

    @staticmethod
    def _write(path, good, edit):
        bad = json.loads(json.dumps(good))
        edit(bad)
        path.write_text(json.dumps(dict(good, utt="first")) + "\n" + json.dumps(bad) + "\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.update(frame_ms="10"), "frame_ms must be a number, got '10'"),
        (lambda r: r.update(frame_ms=True), "frame_ms must be a number, got True"),
        (lambda r: r["frames"][0].__setitem__(1, "1.5"), "logits must be numbers, got dtype <U"),
        (lambda r: r.update(frames=[[True, False], [False, True]]),
         "logits must be numbers, got dtype bool"),
        (lambda r: r["frames"][1].__setitem__(0, None), "logit must be a number, got None"),
        (lambda r: r.update(utt=5), "utt must be a string, got 5"),
        (lambda r: r.update(utt=None), "utt must be a string, got None"),
    ], ids=["frame-ms-string", "frame-ms-bool", "frame-string", "frames-bool", "frame-null",
            "utt-int", "utt-null"])
    def test_logits(self, tmp_path, edit, message):
        path = tmp_path / "logits.jsonl"
        self._write(path, self.LOGITS, edit)
        with pytest.raises(DataFormatError, match=r"logits.jsonl:2: .*" + re.escape(message)):
            list(dataio.iter_logits_jsonl(path))

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r["words"][0].update(start_ms="0"), "start_ms must be a number, got '0'"),
        (lambda r: r["words"][0].update(end_ms=True), "end_ms must be a number, got True"),
        (lambda r: r["words"][0].update(start_ms=False), "start_ms must be a number, got False"),
        (lambda r: r["words"][0].update(end_ms="10.0"), "end_ms must be a number, got '10.0'"),
        (lambda r: r.update(utt=5), "utt must be a string, got 5"),
        (lambda r: r.update(utt=["u"]), "utt must be a string, got ['u']"),
    ], ids=["start-string", "end-bool", "start-bool", "end-string", "utt-int", "utt-list"])
    def test_timings(self, tmp_path, edit, message):
        path = tmp_path / "timings.jsonl"
        self._write(path, self.TIMINGS, edit)
        with pytest.raises(DataFormatError, match=r"timings.jsonl:2: " + re.escape(message)):
            dataio.read_timings_jsonl(path)

    @pytest.mark.parametrize("utt", [5, None, 1.5])
    def test_labels_utt(self, tmp_path, utt):
        path = tmp_path / "labels.jsonl"
        self._write(path, self.LABELS, lambda r: r.update(utt=utt))
        with pytest.raises(DataFormatError, match=r"labels.jsonl:2: utt must be a string"):
            dataio.read_labels_jsonl(path)

    def test_numbers_read_as_floats(self, tmp_path):
        """JSON integers stay valid numbers, stored and written back as floats."""
        path = tmp_path / "timings.jsonl"
        path.write_text('{"utt": "u", "words": [{"w": "a", "start_ms": 0, "end_ms": 10}]}\n')
        words = dataio.read_timings_jsonl(path)["u"]
        assert [type(x) for x in word_rows(words)[0][1:]] == [float, float]
        assert dataio.timings_line("u", words) == (
            '{"utt": "u", "words": [{"w": "a", "start_ms": 0.0, "end_ms": 10.0}]}\n')
        path.write_text('{"utt": "u", "frame_ms": 10, "frames": [[0, 1], [2, 3]]}\n')
        mat = next(dataio.iter_logits_jsonl(path))
        assert type(mat.frame_ms) is float and mat.frames.dtype == np.float64
        assert np.array_equal(mat.frames, [[0.0, 1.0], [2.0, 3.0]])


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
    def test_histogram(self):
        rows = [{"bin_lo": 0.0, "bin_hi": 0.5, "count": 1},
                {"bin_lo": 0.5, "bin_hi": 1.0, "count": 2}]
        assert dataio.rows_to_csv(rows) == "bin_lo,bin_hi,count\n0,0.5,1\n0.5,1,2\n"

    def test_curve(self):
        rows = [{"offset_ms": -10.0, "score": 50.0}, {"offset_ms": 0.0, "score": 75.5}]
        assert dataio.rows_to_csv(rows) == "offset_ms,score\n-10,50\n0,75.5\n"

    def test_sweep_rows(self):
        rows = [{"gamma_train": 0.0, "pct": 12.345678}, {"gamma_train": 0.25, "pct": 99.0}]
        text = dataio.rows_to_csv(rows)
        assert text == "gamma_train,pct\n0,12.3457\n0.25,99\n"


class TestClassifierIo:
    def test_roundtrip(self, tmp_path):
        """The model is written to the exact path given, with or without a suffix."""
        clf = Classifier.init(4, 8, 5, seed=3)
        for name in ("model", "model.npz"):
            path = tmp_path / name
            clf.save(path)
            assert {p.name for p in tmp_path.iterdir()} == {"model", name}
            back = Classifier.load(path)
            for key, value in clf.params().items():
                assert np.array_equal(value, back.params()[key])

    @pytest.mark.parametrize("kind", ["npz-without-b1", "npy", "text", "empty", "truncated-npz"])
    def test_load_refuses_other_files(self, tmp_path, kind):
        """Anything but an .npz archive holding all six parameters raises
        ValueError naming the file."""
        path = tmp_path / "model"
        params = Classifier.init(4, 8, 5, seed=3).params()
        with open(path, "wb") as handle:
            if kind == "npz-without-b1":
                np.savez(handle, **{k: v for k, v in params.items() if k != "b1"})
            elif kind == "npy":
                np.save(handle, params["w1"])
            elif kind == "text":
                handle.write(b"w1 b1 w2 b2 w3 b3\n")
            elif kind == "truncated-npz":
                np.savez(handle, **params)
        if kind == "truncated-npz":
            path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a saved classifier"):
            Classifier.load(path)


def test_imports_of_the_package_are_ctc_and_boundary():
    """dataio reads and writes files of the values ctc and boundary define;
    it depends on no other module of the package."""
    tree = ast.parse(Path(dataio.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "ctctiming"):
            module = (node.module or "").removeprefix("ctctiming").lstrip(".")
            modules |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.name.removeprefix("ctctiming.") for alias in node.names
                        if alias.name.split(".")[0] == "ctctiming"}
    assert modules == {"ctc", "boundary"}
