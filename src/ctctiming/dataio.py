"""File formats: JSON-Lines utterance records, vocab lists and CSV tables.

Readers stream line by line so corpora larger than memory still process; a
malformed line raises with its file and line number.
"""
from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from .boundary import WordMap, WordTiming
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
    """(line number, utt, build(utt, record)) for each JSON object line that
    has keys, over the byte_range (start, end, first line number) of path,
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
                utt = str(record["utt"])
                value = build(utt, record)
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
    """
    def build(utt: str, record: dict) -> LogitMatrix:
        return LogitMatrix(
            utt,
            np.asarray(record["frames"], dtype=np.float64),
            float(frame_ms if frame_ms is not None else record["frame_ms"]),
        )

    keys = ("utt", "frames") if frame_ms is not None else ("utt", "frame_ms", "frames")
    for lineno, _, logits in _records(path, keys, build, byte_range):
        yield lineno, logits


def iter_logits_jsonl(path: str | Path, frame_ms: float | None = None) -> Iterator[LogitMatrix]:
    """Stream a logits file's records as LogitMatrix values (see numbered_logits)."""
    for _, logits in numbered_logits(path, frame_ms):
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


def read_labels_jsonl(path: str | Path) -> dict[str, tuple[LabelSequence, WordMap]]:
    """{"utt", "pieces", "words": [{"w", "first", "last"}]} records."""
    def build(utt: str, record: dict) -> tuple[LabelSequence, WordMap]:
        labels = LabelSequence(tuple(int(p) for p in record["pieces"]))
        word_map = WordMap(
            tuple((w["w"], int(w["first"]), int(w["last"])) for w in record["words"])
        )
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


def read_timings_jsonl(path: str | Path) -> dict[str, list[WordTiming]]:
    """{"utt", "words": [{"w", "start_ms", "end_ms"}]} records."""
    def build(utt: str, record: dict) -> list[WordTiming]:
        return [
            WordTiming(w["w"], float(w["start_ms"]), float(w["end_ms"]))
            for w in record["words"]
        ]

    return {utt: value for _, utt, value in _records(path, ("utt", "words"), build)}


def write_timings_jsonl(path: str | Path, timings: dict[str, list[WordTiming]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for utt_id, words in timings.items():
            record = {
                "utt": utt_id,
                "words": [
                    {"w": w.word, "start_ms": w.start_ms, "end_ms": w.end_ms} for w in words
                ],
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


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


def write_histogram_csv(path: str | Path, counts, bin_edges) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("bin_lo,bin_hi,count\n")
        for lo, hi, count in zip(bin_edges[:-1], bin_edges[1:], counts):
            handle.write(f"{lo:.6g},{hi:.6g},{int(count)}\n")


def write_curve_csv(path: str | Path, curve: list[tuple[float, float]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("offset_ms,score\n")
        for offset, score in curve:
            handle.write(f"{offset:.6g},{score:.6g}\n")


def sweep_rows_to_csv(rows: list[dict]) -> str:
    """Render sweep rows with a stable column order and '.' decimals."""
    if not rows:
        return ""
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            value = row[col]
            cells.append(f"{value:.6g}" if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
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


def save_classifier(path: str | Path, clf) -> None:
    np.savez(path, **clf.params())


def load_classifier(path: str | Path):
    from .synth import Classifier

    with np.load(path) as data:
        return Classifier(**{k: data[k].copy() for k in ("w1", "b1", "w2", "b2", "w3", "b3")})
