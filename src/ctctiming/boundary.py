"""Word boundaries from CTC peaks and spans, plus offset post-processing.

Two boundary routes are provided: expanding each peak toward its neighbors
and retraining on guided cross-entropy targets, or reading spans directly
off a non-peaky forced alignment. Both end in word timings in milliseconds,
optionally shifted by a grid-searched constant offset.
"""
from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .ctc import BLANK_ID, LabelSequence, LogitMatrix, _integer, _number, log_softmax_rows
from .metrics import _matched_times, _times_report

log = logging.getLogger(__name__)


class WordTimes:
    """One utterance's word timings as columns: `texts`, a tuple of the n
    word texts, and `times`, a read-only (2, n) float64 array whose rows are
    the start and end times in ms. It is the word-timing type the package
    produces and scores.

    WordTimes(texts, times) takes any (2, n) array of numbers (not bool or
    text) as the times, and keeps a float64 copy of it. Each text must be a
    str and each word's times must hold 0 <= start <= end < inf; the first
    word that breaks the rule, in order, raises: TypeError for a text or a
    time of the wrong type, ValueError for times out of order.
    """

    __slots__ = ("texts", "times")

    def __init__(self, texts: Iterable[str], times) -> None:
        texts = tuple(texts)
        times = np.asarray(times)
        if times.shape != (2, len(texts)):
            raise ValueError(f"times must have shape (2, {len(texts)}), got {times.shape}")
        if not (times.dtype.kind in "iuf" and set(map(type, texts)) <= {str}
                and (0 <= times[0]).all() and (times[0] <= times[1]).all()
                and (times[1] < np.inf).all()):
            for text, start, end in zip(texts, *times.tolist()):
                if not isinstance(text, str):
                    raise TypeError(f"word text must be a string, got {text!r}")
                start, end = _number(start, "start_ms"), _number(end, "end_ms")
                if not 0.0 <= start <= end < math.inf:  # also rejects nan
                    raise ValueError(
                        f"{text!r}: need 0 <= start <= end < inf, got ({start}, {end})"
                    )
        self.texts = texts
        self.times = times.astype(np.float64)  # a copy: the caller's array stays as it was
        self.times.flags.writeable = False

    def __len__(self) -> int:
        return len(self.texts)


@dataclass(frozen=True)
class WordMap:
    """Grouping of a wordpiece sequence into words.

    words is an ordered tuple of (word_text, first_piece, last_piece) with
    inclusive piece indices that partition [0, n_pieces) without gaps. Texts
    must be str and indices integers (numpy's too); others raise TypeError.
    """

    words: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(
            (w, _integer(a, "first piece"), _integer(b, "last piece")) for w, a, b in self.words
        ))
        if not self.words:
            raise ValueError("word map must contain at least one word")
        expect = 0
        for word, first, last in self.words:
            if not isinstance(word, str):
                raise TypeError(f"word text must be a string, got {word!r}")
            if first != expect or last < first:
                raise ValueError(
                    f"piece ranges must partition [0, U) in order; "
                    f"word {word!r} has range ({first}, {last}), expected start {expect}"
                )
            expect = last + 1

    @property
    def n_pieces(self) -> int:
        return self.words[-1][2] + 1

    def texts(self) -> list[str]:
        return [w for w, _, _ in self.words]


@dataclass(frozen=True)
class CetcParams:
    """Peak-expansion coefficients; defaults follow the (0.2, 0.7, 0.5) setting."""

    alpha_left: float = 0.2
    alpha_right: float = 0.7
    beta: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.alpha_left <= 1.0 and 0.0 <= self.alpha_right <= 1.0):
            raise ValueError("alpha_left and alpha_right must lie in [0, 1]")
        if not self.beta > 0:
            raise ValueError("beta must be positive")


def _frames(values, what: str) -> np.ndarray:
    """values as an int64 array; a dtype other than integer raises TypeError
    naming what, as ctc._integer does, so no frame is truncated."""
    frames = np.asarray(values)
    if frames.dtype.kind not in "iu":
        raise TypeError(f"{what} must be integer frames, got dtype {frames.dtype}")
    return frames.astype(np.int64, copy=False)


def cetc_boundaries(
    peaks: list[int] | np.ndarray, n_frames: int, params: CetcParams = CetcParams()
) -> np.ndarray:
    """Expand per-token peak frames into a (2, U) int64 array whose rows are
    the start and end frames, as token_spans' first two rows.

    Each start moves alpha_left of the way toward the previous peak, each
    end alpha_right of the way toward the next one; virtual neighbor peaks
    sit at frame 0 and frame T-1. Results round to the nearest frame
    (half-up). Peaks must be integers (TypeError), strictly increasing,
    with the first >= 0 and the last < T (ValueError).
    """
    if len(peaks) == 0:
        raise ValueError("need at least one peak")
    frames = _frames(peaks, "peaks")
    if frames[0] < 0 or n_frames <= frames[-1] or np.any(np.diff(frames) <= 0):
        raise ValueError(f"peaks must increase strictly within [0, T={n_frames}), "
                         f"got {frames.tolist()}")
    # gaps to the previous and the next peak; round half-up, keep each peak in its span
    gaps = np.diff(frames, prepend=0, append=n_frames - 1)
    starts = np.minimum(np.floor(frames - params.alpha_left * gaps[:-1] + 0.5), frames)
    ends = np.maximum(np.floor(frames + params.alpha_right * gaps[1:] + 0.5), frames)
    if params.alpha_left + params.alpha_right < 1.0:
        # rounding may collapse the left/right separation of the continuous
        # boundaries; pull each end back below the next start
        ends[:-1] = np.maximum(frames[:-1], np.minimum(ends[:-1], starts[1:] - 1))
    return np.array((starts, ends), dtype=np.int64)


def cetc_guided_targets(
    labels: LabelSequence,
    peaks: list[int] | np.ndarray,
    boundaries: np.ndarray,
    beta: float,
    n_frames: int,
    n_vocab: int,
) -> np.ndarray:
    """T x V float64 soft targets that ramp from each token's boundaries up
    to 1 at its peak.

    boundaries is cetc_boundaries' (2, U) array of start and end frames.
    Within [start, peak] the target is ((t-start)/(peak-start))**beta, within
    (peak, end] it is ((end-t)/(end-peak))**beta; a zero-length side assigns 1
    at the peak frame. On frames claimed by several tokens the later token
    wins. The blank row absorbs the remaining probability mass. Peaks and
    boundaries must be integers (TypeError); a label id >= n_vocab, or a
    token whose peak is not within 0 <= start <= peak <= end < T, raises
    ValueError.
    """
    peaks, boundaries = _frames(peaks, "peaks"), _frames(boundaries, "boundaries")
    if peaks.shape != (len(labels),) or boundaries.shape != (2, len(labels)):
        raise ValueError("peaks and boundaries must have one entry per label token")
    starts, ends = boundaries
    if max(labels.tokens) >= n_vocab:
        raise ValueError(f"label id {max(labels.tokens)} out of range for V={n_vocab}")
    bad = np.flatnonzero((starts < 0) | (starts > peaks) | (peaks > ends) | (ends >= n_frames))
    if len(bad):
        u = bad[0]
        raise ValueError(f"token {u}: need 0 <= start <= peak <= end < {n_frames}, "
                         f"got boundary ({starts[u]}, {ends[u]}) and peak {peaks[u]}")
    owner = np.full(n_frames, -1, dtype=np.int64)
    overlapped = 0
    for u, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
        overlapped += int(np.count_nonzero(owner[start : end + 1] >= 0))
        owner[start : end + 1] = u
    if overlapped:
        log.warning("guided targets: %d frames contested; later token wins", overlapped)

    frame = np.flatnonzero(owner >= 0)
    token = owner[frame]
    start, peak, end = starts[token], peaks[token], ends[token]
    num, den = np.where(frame <= peak, (frame - start, peak - start), (end - frame, end - peak))
    ramp = np.divide(num, den, out=np.ones(len(frame)), where=frame != peak)
    targets = np.zeros((n_frames, n_vocab))
    # Python's pow, not numpy's: numpy's SIMD power differs in the last bit on some CPUs
    targets[frame, np.asarray(labels.tokens)[token]] = [x ** beta for x in ramp.tolist()]
    targets[:, BLANK_ID] = np.clip(1.0 - targets[:, 1:].sum(axis=1), 0.0, 1.0)
    return targets


def guided_ce_grad(logits: LogitMatrix, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Frame-averaged cross-entropy between a T x V array of soft targets and
    the classifier.

    Returns the loss and its gradient w.r.t. the raw logits, which is exact
    for any nonnegative targets.
    """
    if logits.frames.shape != targets.shape:
        raise ValueError(
            f"shape mismatch: logits {logits.frames.shape} vs targets {targets.shape}"
        )
    n_frames = logits.n_frames
    log_probs = log_softmax_rows(logits.frames)
    loss = float(-(targets * log_probs).sum() / n_frames)
    mass = targets.sum(axis=1, keepdims=True)
    grad = (np.exp(log_probs) * mass - targets) / n_frames
    return loss, grad


def words_from_spans(
    spans: np.ndarray,
    word_map: WordMap,
    frame_ms: float,
    offset_ms: float = 0.0,
    n_frames: int | None = None,
) -> WordTimes:
    """Word timings from per-piece spans: first piece start to last piece end.

    spans is token_spans' (3, U) array, or any array whose first two rows are
    the pieces' start and end frames. The end time uses the exclusive frame
    edge ((end frame + 1) * frame_ms); both ends are shifted by offset_ms and
    clamped to [0, n_frames*frame_ms] (upper clamp skipped when n_frames is
    unknown).
    """
    if spans.shape[1] != word_map.n_pieces:
        raise ValueError(
            f"word map references {word_map.n_pieces} pieces but {spans.shape[1]} spans given"
        )
    hi = float("inf") if n_frames is None else n_frames * frame_ms
    texts, firsts, lasts = zip(*word_map.words)
    frames = np.array((spans[0, firsts], spans[1, lasts] + 1), dtype=np.float64)
    times = np.minimum(np.maximum(frames * frame_ms + offset_ms, 0.0), hi)
    return WordTimes(texts, times)


# most offsets one gridsearch_offset call tries: each costs a pass over the
# matched words and a row of the curve
MAX_OFFSETS = 100_000


def offset_count(range_ms: tuple[float, float], step_ms: float) -> int:
    """Number of offsets lo, lo + step, ... <= hi that gridsearch_offset tries.

    Raises ValueError for an empty range, a step that is not positive, or a
    count that is not finite or above MAX_OFFSETS.
    """
    lo, hi = range_ms
    if lo > hi:
        raise ValueError(f"empty offset range [{lo}, {hi}]")
    if step_ms <= 0:
        raise ValueError(f"step must be positive, got {step_ms}")
    count = np.floor((hi - lo) / step_ms + 1e-9) + 1
    if not count <= MAX_OFFSETS:  # also rejects inf and nan
        raise ValueError(
            f"offset range [{lo:g}, {hi:g}] in steps of {step_ms:g} needs {count:g} offsets, "
            f"more than {MAX_OFFSETS}"
        )
    return int(count)


def gridsearch_offset(
    pred: dict[str, WordTimes],
    ref: dict[str, WordTimes],
    range_ms: tuple[float, float],
    step_ms: float,
    threshold_ms: float,
):
    """Find the constant shift maximizing %WS<t + %WE<t over matched words.

    Returns (best_offset_ms, metrics at the best offset, offset->score curve).
    Ties prefer the smallest |offset|, then the smaller offset. The curve and
    the reported metrics clamp shifted times at 0, matching how offsets are
    applied when writing timing files. Both are computed from the matched
    words' time columns; no word object is built.
    """
    n_offsets = offset_count(range_ms, step_ms)
    common = sorted(set(pred) & set(ref))
    hyp, ref_times, n_hyp, n_ref = _matched_times(pred, {utt: ref[utt] for utt in common})
    if not hyp.shape[1]:
        raise ValueError("nothing to score: no matched word pairs")

    offsets = range_ms[0] + step_ms * np.arange(n_offsets)
    curve = []
    best = None
    for offset in offsets:
        hits = np.abs(np.maximum(hyp + offset, 0.0) - ref_times) < threshold_ms
        score = float(100.0 * np.mean(hits[0]) + 100.0 * np.mean(hits[1]))
        curve.append((float(offset), score))
        key = (-score, abs(offset), offset)
        if best is None or key < best[0]:
            best = (key, float(offset))
    best_offset = best[1]

    report = _times_report(
        np.maximum(hyp + best_offset, 0.0), ref_times, n_hyp, n_ref, [threshold_ms]
    )
    return best_offset, report, curve
