"""File formats: JSON-Lines utterance records, vocab lists and CSV tables.

Readers stream line by line so corpora larger than memory still process; a
malformed line raises with its file and line number.
"""
from __future__ import annotations

import json
import operator
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from .boundary import WordMap, WordTimes
from .ctc import LabelSequence, LogitMatrix

BLANK_TOKEN = "<blank>"


class DataFormatError(ValueError):
    """A data file failed to parse or validate."""


# (start byte, end byte or None for the end of the file, number of the first line)
WHOLE_FILE = (0, None, 1)


def line_ranges(path: str | Path, n: int) -> list[tuple[int, int, int]]:
    """Split path into at most n byte ranges of about equal size that start
    and end on line boundaries, in file order: (start, end, number of the
    range's first line) tuples that _records reads as its byte_range. A line
    longer than a range keeps its whole self; an empty file gives none."""
    ranges = []
    start, lineno = 0, 1
    with open(path, "rb") as handle:
        size = handle.seek(0, 2)
        for k in range(1, n + 1):
            if start >= size:
                break
            handle.seek(max(start, size * k // n - 1))
            handle.readline()  # to the start of the next line, past byte size*k//n - 1
            end = handle.tell()
            handle.seek(start)
            lines = sum(handle.read(min(1 << 20, end - pos)).count(b"\n")
                        for pos in range(start, end, 1 << 20))
            ranges.append((start, end, lineno))
            start, lineno = end, lineno + lines
    return ranges


def _records(path: str | Path, keys: tuple[str, ...], build,
             byte_range: tuple[int, int | None, int] = WHOLE_FILE,
             ) -> Iterator[tuple[int, str, Any]]:
    """(line number, utt, build(utt, record, line)) for each JSON object line
    that has keys, over the byte_range (start, end, first line number) of path,
    which must start on a line boundary; the default is the whole file.

    A malformed line, a missing key, a record that build rejects with
    ValueError, KeyError, TypeError or OverflowError (an integer too large
    for a float) or, after build, a repeated utt id raises DataFormatError
    naming the file and its absolute line. Neither the line nor its parsed
    record outlives build, so a caller holds only what it returns.
    """
    start, end, lineno = byte_range
    seen: dict[str, int] = {}
    # a larger buffer than the default 8 KB: lines of whole utterances are long
    with open(path, "rb", buffering=1 << 17) as handle:
        if start:  # a pipe cannot seek, and is only ever read whole
            handle.seek(start)
        pos = start
        lineno -= 1
        for raw in handle:  # not enumerate: its reused tuple would keep the line alive
            if end is not None and pos >= end:
                break
            pos += len(raw)
            lineno += 1
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("expected a JSON object")
                missing = [k for k in keys if k not in record]
                if missing:
                    raise ValueError(f"missing keys {missing}")
                utt = record["utt"]
                if not isinstance(utt, str):
                    raise TypeError(f"utt must be a string, got {utt!r}")
                value = build(utt, record, raw)
                first = seen.setdefault(utt, lineno)
                if first != lineno:
                    raise ValueError(f"duplicate utterance id {utt!r} (first on line {first})")
            except json.JSONDecodeError as err:
                raise DataFormatError(f"{path}:{lineno}: malformed JSON ({err.msg})") from err
            except (ValueError, KeyError, TypeError, OverflowError) as err:
                raise DataFormatError(f"{path}:{lineno}: {err}") from err
            del record, line, raw
            yield lineno, utt, value


def numbered_logits(path: str | Path, frame_ms: float | None = None,
                    byte_range: tuple[int, int | None, int] = WHOLE_FILE,
                    ) -> Iterator[tuple[int, LogitMatrix]]:
    """(line number, LogitMatrix) of each {"utt", "frame_ms", "frames"}
    record in the byte_range of path (see _records).

    A frame_ms given here overrides the records', which may then omit it.
    A JSON true or false among the numbers of frames raises TypeError: numpy
    would read it as 1.0 or 0.0. Only a line that spells one is walked.
    """
    def build(utt: str, record: dict, raw: bytes) -> LogitMatrix:
        logits = LogitMatrix(
            utt, record["frames"], frame_ms if frame_ms is not None else record["frame_ms"]
        )
        if b"true" in raw or b"false" in raw:
            # frames passed LogitMatrix, so it is a table of numbers and bools
            for row in record["frames"]:
                for value in row:
                    if type(value) is bool:
                        raise TypeError(f"{utt}: logit must be a number, got {value!r}")
        return logits

    keys = ("utt", "frames") if frame_ms is not None else ("utt", "frame_ms", "frames")
    for lineno, _, logits in _records(path, keys, build, byte_range):
        yield lineno, logits


def iter_logits_jsonl(path: str | Path) -> Iterator[LogitMatrix]:
    """Stream a logits file's records as LogitMatrix values (see numbered_logits)."""
    for _, logits in numbered_logits(path):
        yield logits


def write_logits_jsonl(path: str | Path, mats: Iterable[LogitMatrix]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for mat in mats:
            record = {
                "utt": mat.utt_id,
                "frame_ms": mat.frame_ms,
                "frames": mat.frames.tolist(),
            }
            handle.write(json.dumps(record) + "\n")


def _json_array(record: dict, key: str) -> list:
    """record[key], which must be a JSON array: an object, a string, a number
    or null raises TypeError naming the key."""
    value = record[key]
    if type(value) is not list:
        raise TypeError(f"{key} must be a JSON array, got {value!r}")
    return value


def _word_object(word):
    """One entry of a record's words, which must be a JSON object: anything
    else raises TypeError naming the field."""
    if type(word) is not dict:
        raise TypeError(f"each of words must be a JSON object, got {word!r}")
    return word


def read_labels_jsonl(
    path: str | Path, n_vocab: int | None = None
) -> dict[str, tuple[LabelSequence, WordMap]]:
    """{"utt", "pieces", "words": [{"w", "first", "last"}]} records; pieces
    and words are JSON arrays, and each word is a JSON object. Given n_vocab,
    the vocabulary's width, every piece id must be below it."""
    def build(utt: str, record: dict, _raw: bytes) -> tuple[LabelSequence, WordMap]:
        labels = LabelSequence(tuple(_json_array(record, "pieces")))
        if n_vocab is not None:
            labels.check_vocab(n_vocab)
        words = [_word_object(w) for w in _json_array(record, "words")]
        word_map = WordMap(tuple((w["w"], w["first"], w["last"]) for w in words))
        if word_map.n_pieces != len(labels):
            raise ValueError(f"word map covers {word_map.n_pieces} pieces, got {len(labels)}")
        return labels, word_map

    return {utt: value for _, utt, value in _records(path, ("utt", "pieces", "words"), build)}


def write_labels_jsonl(
    path: str | Path, items: Iterable[tuple[str, LabelSequence, WordMap]]
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for utt_id, labels, word_map in items:
            record = {
                "utt": utt_id,
                "pieces": list(labels.tokens),
                "words": [{"w": w, "first": a, "last": b} for w, a, b in word_map.words],
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


_WORD_FIELDS = operator.itemgetter("w", "start_ms", "end_ms")


def read_timings_jsonl(path: str | Path) -> dict[str, WordTimes]:
    """{"utt", "words": [{"w", "start_ms", "end_ms"}]} records, each read
    into one WordTimes.

    `words` must be a JSON array. Its words are gathered and checked by
    WordTimes all at once when each has its keys and int or float (not bool)
    times. Otherwise each word is checked alone, in order, for being a JSON
    object, for its keys and then by WordTimes, so the first bad word raises
    its own error.
    """
    def build(utt: str, record: dict, _raw: bytes) -> WordTimes:
        words = _json_array(record, "words")
        try:
            texts, starts, ends = zip(*map(_WORD_FIELDS, words)) if words else ((), (), ())
            if set(map(type, starts)) | set(map(type, ends)) <= {int, float}:
                return WordTimes(texts, np.array((starts, ends), dtype=np.float64))
        except (KeyError, TypeError, OverflowError):  # a word without its keys, a huge integer
            pass
        texts, times = [], np.empty((2, len(words)), dtype=object)  # values kept as they are
        for i, word in enumerate(words):
            text, times[0, i], times[1, i] = _WORD_FIELDS(_word_object(word))
            WordTimes((text,), times[:, i : i + 1])
            texts.append(text)
        return WordTimes(texts, times)

    return {utt: value for _, utt, value in _records(path, ("utt", "words"), build)}


def timings_line(utt_id: str, words: WordTimes) -> str:
    """One utterance's record of a timings file, newline included; word
    texts are written as they are, not as ASCII escapes."""
    words = [{"w": w, "start_ms": start, "end_ms": end}
             for w, start, end in zip(words.texts, *words.times.tolist())]
    return json.dumps({"utt": utt_id, "words": words}, ensure_ascii=False) + "\n"


def write_timings_jsonl(path: str | Path, timings: dict[str, WordTimes]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for utt_id, words in timings.items():
            handle.write(timings_line(utt_id, words))


def read_vocab(path: str | Path) -> list[str]:
    """One token per line; line 0 must be the blank literal."""
    with open(path, "r", encoding="utf-8") as handle:
        tokens = [line.rstrip("\n") for line in handle if line.strip()]
    if not tokens or tokens[0] != BLANK_TOKEN:
        raise DataFormatError(f"{path}: line 0 must be {BLANK_TOKEN!r}")
    return tokens


def write_vocab(path: str | Path, non_blank_tokens: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(BLANK_TOKEN + "\n")
        for token in non_blank_tokens:
            handle.write(token + "\n")


def rows_to_csv(rows: list[dict]) -> str:
    """CSV text of rows, one line each under a header of the first row's
    keys, in their order: floats as .6g with '.' decimals, anything else as
    its str. No rows give the empty string."""
    if not rows:
        return ""
    def cell(value) -> str:
        return f"{value:.6g}" if isinstance(value, float) else str(value)

    columns = list(rows[0])
    lines = [",".join(columns)] + [",".join(cell(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def write_metrics_json(path: str | Path, report, extra: dict | None = None,
                       timestamp: bool = True) -> None:
    payload = report.to_dict()
    if extra:
        payload.update(extra)
    if timestamp:
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
