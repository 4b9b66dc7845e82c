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


def _records(path: str | Path, keys: tuple[str, ...], build) -> Iterator[tuple[str, Any]]:
    """(utt, build(utt, record)) for each JSON object line that has keys.

    A malformed line, a missing key, a repeated utt id or a record that
    build rejects with ValueError, KeyError, TypeError or OverflowError (an
    integer too large for a float) raises DataFormatError naming the file
    and line. Neither the line nor its parsed record outlives build, so a
    caller holds only what it returns.
    """
    seen: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        lineno = 0
        for line in handle:  # not enumerate: its reused tuple would keep the line alive
            lineno += 1
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("expected a JSON object")
                missing = [k for k in keys if k not in record]
                if missing:
                    raise ValueError(f"missing keys {missing}")
                utt = str(record["utt"])
                first = seen.setdefault(utt, lineno)
                if first != lineno:
                    raise ValueError(f"duplicate utterance id {utt!r} (first on line {first})")
                value = build(utt, record)
            except json.JSONDecodeError as err:
                raise DataFormatError(f"{path}:{lineno}: malformed JSON ({err.msg})") from err
            except (ValueError, KeyError, TypeError, OverflowError) as err:
                raise DataFormatError(f"{path}:{lineno}: {err}") from err
            del record, line
            yield utt, value


def iter_logits_jsonl(path: str | Path, frame_ms: float | None = None) -> Iterator[LogitMatrix]:
    """Stream {"utt", "frame_ms", "frames"} records as LogitMatrix values.

    A frame_ms given here overrides the records', which may then omit it.
    """
    def build(utt: str, record: dict) -> LogitMatrix:
        return LogitMatrix(
            utt,
            np.asarray(record["frames"], dtype=np.float64),
            float(frame_ms if frame_ms is not None else record["frame_ms"]),
        )

    keys = ("utt", "frames") if frame_ms is not None else ("utt", "frame_ms", "frames")
    for _, logits in _records(path, keys, build):
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

    return dict(_records(path, ("utt", "pieces", "words"), build))


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

    return dict(_records(path, ("utt", "words"), build))


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
