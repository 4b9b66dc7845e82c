"""Word-timing evaluation: edit-distance matching on bit-vector columns,
offset statistics, threshold percentages, durations and peak-position
distributions."""
from __future__ import annotations

import unicodedata
from dataclasses import asdict, dataclass, field
from typing import Iterator

import numpy as np

from .ctc import BLANK_ID


@dataclass
class MetricsReport:
    """Aggregate word-timing accuracy; statistics are None when nothing matched."""

    n_matched: int
    n_hyp: int
    n_ref: int
    ave_st_delta_ms: float | None = None
    ave_ed_delta_ms: float | None = None
    signed_st_delta_ms: float | None = None
    signed_ed_delta_ms: float | None = None
    pct_ws: dict[float, float] = field(default_factory=dict)
    pct_we: dict[float, float] = field(default_factory=dict)
    mean_ref_duration_ms: float | None = None
    mean_hyp_duration_ms: float | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("pct_ws", "pct_we"):
            d[key] = {str(k): v for k, v in d[key].items()}
        return d


@dataclass
class PeakHistogram:
    """Binned relative peak positions plus their unbinned mean."""

    counts: np.ndarray
    bin_edges: np.ndarray
    mean_rel_pos: float | None
    n_scored: int
    n_skipped: int


def _nfc(words: list[str]) -> list[str]:
    """words after Unicode NFC normalization; ASCII text is its own NFC form."""
    if "".join(words).isascii():
        return words
    return [w if w.isascii() else unicodedata.normalize("NFC", w) for w in words]


def _edit_columns(hyp: list[str], ref: list[str]) -> Iterator[tuple[int, int]]:
    """Columns j = 0..m of the unit-cost edit-distance table D as bit vectors.

    D[i][j] is the distance between the first i hypothesis and the first j
    reference words. Column j is yielded as (VP, VN): bit i-1 of VP (of VN)
    is set where D[i][j] - D[i-1][j] is +1 (is -1), so
    D[i][j] = j + popcount(VP & (2^i - 1)) - popcount(VN & (2^i - 1)).
    Each column follows from the last in a dozen Python int operations
    (Myers 1999, in Hyyrö's 2001 formulation; the top row D[0][j] = j shifts
    a +1 into the horizontal deltas).
    """
    peq: dict[str, int] = {}
    for i, word in enumerate(hyp):
        peq[word] = peq.get(word, 0) | 1 << i
    mask = (1 << len(hyp)) - 1
    vp, vn = mask, 0
    yield vp, vn
    for word in ref:
        eq = peq.get(word, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = (vn | ~(xh | vp)) << 1 | 1
        hn = (vp & xh) << 1
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
        yield vp, vn


def edit_align(hyp_words: list[str], ref_words: list[str]) -> list[tuple[int, int]]:
    """Minimum-edit-distance alignment; returns only the equal-text slots.

    Unit costs; the table is held as `_edit_columns` bit vectors, 2(m+1)
    ints of n bits, and each cell the backtrace visits is read back from
    its column. The backtrace prefers match > substitution > deletion >
    insertion, so the result is deterministic. Equal words are always a
    match: with unit costs, D[i][j] = D[i-1][j-1] whenever they are equal, so
    that step reads no cell. Word texts are compared after Unicode NFC
    normalization, byte-exact, no case folding.
    """
    hyp, ref = _nfc(hyp_words), _nfc(ref_words)
    vps, vns = zip(*_edit_columns(hyp, ref))

    def dist(i: int, j: int) -> int:
        low = (1 << i) - 1
        return j + (vps[j] & low).bit_count() - (vns[j] & low).bit_count()

    matches = []
    i, j = len(hyp), len(ref)
    while i > 0 and j > 0:
        if hyp[i - 1] == ref[j - 1]:
            matches.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif dist(i, j) == dist(i - 1, j - 1) + 1:
            i, j = i - 1, j - 1
        elif dist(i, j) == dist(i, j - 1) + 1:  # deletion: ref word unmatched
            j -= 1
        else:  # insertion: hyp word unmatched
            i -= 1
    matches.reverse()
    return matches


def edit_distance(hyp_words: list[str], ref_words: list[str]) -> int:
    """Levenshtein distance under the same normalization as edit_align.

    Only the running column is kept: D[n][m] is read off the last one.
    """
    hyp, ref = _nfc(hyp_words), _nfc(ref_words)
    for vp, vn in _edit_columns(hyp, ref):
        pass
    return len(ref) + vp.bit_count() - vn.bit_count()


def _matched_times(
    hyp: dict[str, WordTimes], ref: dict[str, WordTimes]
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The times of the words edit_align matches in every reference utterance
    that `hyp` has, in `ref` order: (hyp times, ref times, n_hyp, n_ref), each
    times array (2, n) with the starts and the ends as rows. n_hyp counts the
    words of the hypothesis utterances that have a reference, n_ref every
    reference word. The index pairs are offset to address all utterances'
    words at once, so the numpy calls do not grow with their number."""
    hids, rids = [], []
    hyp_cols, ref_cols = [np.empty((2, 0))], [np.empty((2, 0))]
    n_hyp = n_ref = 0
    for utt, ref_words in ref.items():
        hyp_words = hyp.get(utt)
        if hyp_words is not None:
            pairs = edit_align(hyp_words.texts, ref_words.texts)
            hids += [n_hyp + hid for hid, _ in pairs]
            rids += [n_ref + rid for _, rid in pairs]
            n_hyp += len(hyp_words)
            hyp_cols.append(hyp_words.times)
        n_ref += len(ref_words)
        ref_cols.append(ref_words.times)
    hyp_times = np.take(np.concatenate(hyp_cols, axis=1), hids, axis=1)
    ref_times = np.take(np.concatenate(ref_cols, axis=1), rids, axis=1)
    return hyp_times, ref_times, n_hyp, n_ref


def timing_metrics(
    hyp: dict[str, WordTimes], ref: dict[str, WordTimes], thresholds_ms: list[float]
) -> MetricsReport:
    """Offset statistics over the words edit_align matches in every reference
    utterance that `hyp` has, in `ref` order.

    Deltas are mean absolute start/end differences; pct_ws[t] is the
    percentage of matched words with |start delta| strictly below t (same
    for ends). Signed means (hyp - ref) are kept as a diagnostic. n_hyp
    counts the words of the hypothesis utterances that have a reference,
    n_ref every reference word.
    """
    return _times_report(*_matched_times(hyp, ref), thresholds_ms)


def _times_report(
    hyp: np.ndarray, ref: np.ndarray, n_hyp: int, n_ref: int, thresholds_ms: list[float],
) -> MetricsReport:
    """timing_metrics on the (start, end) rows of the matched words' times, as
    _matched_times gives them."""
    n = hyp.shape[1]
    report = MetricsReport(n_matched=n, n_hyp=n_hyp, n_ref=n_ref)
    if not n:
        return report
    d_start, d_end = hyp - ref
    abs_start, abs_end = np.abs(d_start), np.abs(d_end)
    report.ave_st_delta_ms = float(abs_start.mean())
    report.ave_ed_delta_ms = float(abs_end.mean())
    report.signed_st_delta_ms = float(d_start.mean())
    report.signed_ed_delta_ms = float(d_end.mean())
    for tau in thresholds_ms:
        report.pct_ws[float(tau)] = float(100.0 * np.mean(abs_start < tau))
        report.pct_we[float(tau)] = float(100.0 * np.mean(abs_end < tau))
    report.mean_ref_duration_ms = float(np.mean(ref[1] - ref[0]))
    report.mean_hyp_duration_ms = float(np.mean(hyp[1] - hyp[0]))
    return report


def peak_items(
    spans: np.ndarray, word_map: WordMap, ref_words: WordTimes, frame_ms: float
) -> np.ndarray:
    """A (3, n) array over every piece of every matched word: its peak time
    in ms, and the start and end of its reference word. spans is
    token_spans' (3, U) array of the aligned pieces.

    The word map's words are paired with the reference words by edit_align,
    so a reference transcript that differs from the aligned one scores only
    its equal-text words; on the aligned transcript itself the pairing is the
    identity.
    """
    pieces, rids = [], []
    for wid, rid in edit_align(word_map.texts(), ref_words.texts):
        _, first, last = word_map.words[wid]
        pieces += range(first, last + 1)
        rids += [rid] * (last + 1 - first)
    peaks = spans[2, pieces].astype(np.float64) * frame_ms
    return np.vstack((peaks, ref_words.times[:, rids]))


def peak_histogram(
    items: list[np.ndarray],
    n_bins: int,
    value_range: tuple[float, float] = (-1.0, 2.0),
) -> PeakHistogram:
    """Distribution of peak position relative to the reference word.

    items are peak_items' arrays, one per utterance; each piece's relative
    position is (peak - ref start) / (ref end - ref start), so 0 sits at the
    word start and 1 at its end. Zero-duration references are skipped and
    counted. Values outside value_range land in the edge bins so every
    scored item is counted.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    lo, hi = value_range
    if not lo < hi:
        raise ValueError(f"empty histogram range [{lo}, {hi}]")
    peak, start, end = np.concatenate([np.empty((3, 0)), *items], axis=1)
    duration = end - start
    scored = duration > 0
    values = (peak[scored] - start[scored]) / duration[scored]
    counts, edges = np.histogram(np.clip(values, lo, hi), bins=n_bins, range=(lo, hi))
    mean = float(values.mean()) if len(values) else None
    return PeakHistogram(counts, edges, mean, len(values), len(peak) - len(values))


def blank_occupancy(posteriors: np.ndarray) -> float:
    """Fraction of frames whose argmax token is the blank."""
    posteriors = np.asarray(posteriors)
    return float(np.mean(posteriors.argmax(axis=1) == BLANK_ID))
