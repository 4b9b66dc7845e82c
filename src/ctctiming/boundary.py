"""Word boundaries from CTC peaks and spans, plus offset post-processing.

Two boundary routes are provided: expanding each peak toward its neighbors
and retraining on guided cross-entropy targets, or reading spans directly
off a non-peaky forced alignment. Both end in word timings in milliseconds,
optionally shifted by a grid-searched constant offset.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .ctc import BLANK_ID, LabelSequence, LogitMatrix, TokenSpan, log_softmax_rows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class WordTiming:
    """A word with start/end in milliseconds."""

    word: str
    start_ms: float
    end_ms: float

    def __post_init__(self):
        if not (0.0 <= self.start_ms <= self.end_ms):
            raise ValueError(
                f"{self.word!r}: need 0 <= start <= end, got ({self.start_ms}, {self.end_ms})"
            )

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class WordMap:
    """Grouping of a wordpiece sequence into words.

    words is an ordered tuple of (word_text, first_piece, last_piece) with
    inclusive piece indices that partition [0, n_pieces) without gaps.
    """

    words: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "words", tuple((str(w), int(a), int(b)) for w, a, b in self.words)
        )
        if not self.words:
            raise ValueError("word map must contain at least one word")
        expect = 0
        for word, first, last in self.words:
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


@dataclass(eq=False)
class GuidedTargets:
    """T x V soft classification targets ramping up to 1 at each token peak."""

    targets: np.ndarray

    def __post_init__(self):
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.targets.min() < 0.0 or self.targets.max() > 1.0:
            raise ValueError("guided targets must lie in [0, 1]")


def _round_half_up(x: np.ndarray | float) -> np.ndarray:
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5).astype(np.int64)


def cetc_boundaries(
    peaks: list[int] | np.ndarray, n_frames: int, params: CetcParams = CetcParams()
) -> list[tuple[int, int]]:
    """Expand per-token peak frames into (start, end) frames.

    Each start moves alpha_left of the way toward the previous peak, each
    end alpha_right of the way toward the next one; virtual neighbor peaks
    sit at frame 0 and frame T-1. Results round to the nearest frame
    (half-up).
    """
    peaks = np.asarray(peaks, dtype=np.float64)
    if len(peaks) == 0:
        raise ValueError("need at least one peak")
    if np.any(np.diff(peaks) <= 0):
        raise ValueError(f"peaks must be strictly increasing, got {peaks.tolist()}")
    if n_frames <= peaks[-1]:
        raise ValueError(f"T={n_frames} must exceed the last peak {peaks[-1]}")
    prev = np.concatenate(([0.0], peaks[:-1]))
    nxt = np.concatenate((peaks[1:], [float(n_frames - 1)]))
    starts = _round_half_up(peaks - params.alpha_left * (peaks - prev))
    ends = _round_half_up(peaks + params.alpha_right * (nxt - peaks))
    out = []
    for u, (start, peak, end) in enumerate(zip(starts, peaks.astype(np.int64), ends)):
        start, end = int(min(start, peak)), int(max(end, peak))
        if params.alpha_left + params.alpha_right < 1.0 and u + 1 < len(starts):
            # rounding may collapse the left/right separation of the
            # continuous boundaries; pull the end back below the next start
            end = max(peak, min(end, int(min(starts[u + 1], peaks[u + 1])) - 1))
        out.append((start, end))
    return out


def cetc_guided_targets(
    labels: LabelSequence,
    peaks: list[int] | np.ndarray,
    boundaries: list[tuple[int, int]],
    beta: float,
    n_frames: int,
    n_vocab: int,
) -> GuidedTargets:
    """Soft targets that ramp from each token's boundaries up to 1 at its peak.

    Within [start, peak] the target is ((t-start)/(peak-start))**beta, within
    (peak, end] it is ((end-t)/(end-peak))**beta; a zero-length side assigns 1
    at the peak frame. On frames claimed by several tokens the later token
    wins. The blank row absorbs the remaining probability mass.
    """
    if len(peaks) != len(labels) or len(boundaries) != len(labels):
        raise ValueError("peaks and boundaries must have one entry per label token")
    owner = np.full(n_frames, -1, dtype=np.int64)
    overlapped = 0
    for u, (start, end) in enumerate(boundaries):
        if not (0 <= start <= end < n_frames):
            raise ValueError(f"token {u}: boundary ({start}, {end}) outside [0, {n_frames})")
        overlapped += int(np.count_nonzero(owner[start : end + 1] >= 0))
        owner[start : end + 1] = u
    if overlapped:
        log.warning("guided targets: %d frames contested; later token wins", overlapped)

    targets = np.zeros((n_frames, n_vocab))
    for u, (start, end) in enumerate(boundaries):
        peak = int(peaks[u])
        token = labels.tokens[u]
        for t in range(start, end + 1):
            if owner[t] != u:
                continue
            if t <= peak:
                value = 1.0 if peak == start else ((t - start) / (peak - start)) ** beta
            else:
                value = ((end - t) / (end - peak)) ** beta
            targets[t, token] = value
    non_blank = targets[:, 1:].sum(axis=1)
    targets[:, BLANK_ID] = np.clip(1.0 - non_blank, 0.0, 1.0)
    return GuidedTargets(targets)


def guided_ce_grad(logits: LogitMatrix, targets: GuidedTargets) -> tuple[float, np.ndarray]:
    """Frame-averaged cross-entropy between soft targets and the classifier.

    Returns the loss and its gradient w.r.t. the raw logits.
    """
    if logits.frames.shape != targets.targets.shape:
        raise ValueError(
            f"shape mismatch: logits {logits.frames.shape} vs targets {targets.targets.shape}"
        )
    n_frames = logits.n_frames
    log_probs = log_softmax_rows(logits)
    loss = float(-(targets.targets * log_probs).sum() / n_frames)
    mass = targets.targets.sum(axis=1, keepdims=True)
    grad = (np.exp(log_probs) * mass - targets.targets) / n_frames
    return loss, grad


def words_from_spans(
    spans: list[TokenSpan],
    word_map: WordMap,
    frame_ms: float,
    offset_ms: float = 0.0,
    n_frames: int | None = None,
) -> list[WordTiming]:
    """Word timings from per-piece spans: first piece start to last piece end.

    The end time uses the exclusive frame edge ((end_frame + 1) * frame_ms);
    both ends are shifted by offset_ms and clamped to [0, n_frames*frame_ms]
    (upper clamp skipped when n_frames is unknown).
    """
    if len(spans) != word_map.n_pieces:
        raise ValueError(
            f"word map references {word_map.n_pieces} pieces but {len(spans)} spans given"
        )
    hi = float("inf") if n_frames is None else n_frames * frame_ms
    out = []
    for word, first, last in word_map.words:
        start = spans[first].start_frame * frame_ms + offset_ms
        end = (spans[last].end_frame + 1) * frame_ms + offset_ms
        out.append(WordTiming(word, min(max(start, 0.0), hi), min(max(end, 0.0), hi)))
    return out


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
    pred: dict[str, list[WordTiming]],
    ref: dict[str, list[WordTiming]],
    range_ms: tuple[float, float],
    step_ms: float,
    threshold_ms: float,
):
    """Find the constant shift maximizing %WS<t + %WE<t over matched words.

    Returns (best_offset_ms, metrics at the best offset, offset->score curve).
    Ties prefer the smallest |offset|, then the smaller offset. The curve and
    the reported metrics clamp shifted times at 0, matching how offsets are
    applied when writing timing files.
    """
    from .metrics import MatchedPair, match_words, timing_metrics

    n_offsets = offset_count(range_ms, step_ms)
    common = sorted(set(pred) & set(ref))
    matched, n_hyp, n_ref = match_words(pred, {utt: ref[utt] for utt in common})
    if not matched:
        raise ValueError("nothing to score: no matched word pairs")

    hyp_start = np.array([p.hyp.start_ms for p in matched])
    hyp_end = np.array([p.hyp.end_ms for p in matched])
    ref_start = np.array([p.ref.start_ms for p in matched])
    ref_end = np.array([p.ref.end_ms for p in matched])

    offsets = range_ms[0] + step_ms * np.arange(n_offsets)
    curve = []
    best = None
    for offset in offsets:
        start_hits = np.abs(np.maximum(hyp_start + offset, 0.0) - ref_start) < threshold_ms
        end_hits = np.abs(np.maximum(hyp_end + offset, 0.0) - ref_end) < threshold_ms
        score = float(100.0 * np.mean(start_hits) + 100.0 * np.mean(end_hits))
        curve.append((float(offset), score))
        key = (-score, abs(offset), offset)
        if best is None or key < best[0]:
            best = (key, float(offset))
    best_offset = best[1]

    pairs = [
        MatchedPair(
            WordTiming(h.word, max(h.start_ms + best_offset, 0.0), max(h.end_ms + best_offset, 0.0)),
            r,
        )
        for h, r in ((p.hyp, p.ref) for p in matched)
    ]
    report = timing_metrics(pairs, [threshold_ms], n_hyp=n_hyp, n_ref=n_ref)
    return best_offset, report, curve
