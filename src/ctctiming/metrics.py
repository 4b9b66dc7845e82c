"""Word-timing evaluation: edit-distance matching on bit-vector columns,
offset statistics, threshold percentages, durations and peak-position
distributions."""
from __future__ import annotations

import unicodedata
from dataclasses import asdict, dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .ctc import BLANK_ID, TokenSpan


def _norm(word: str) -> str:
    return unicodedata.normalize("NFC", word)


@dataclass(frozen=True)
class MatchedPair:
    """Hypothesis/reference word pair from an equal-text alignment slot.

    The two words are equal after NFC by construction: match_words builds
    pairs only from edit_align's equal-text slots.
    """

    hyp: WordTiming
    ref: WordTiming


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


def _word_ids(hyp_words: list[str], ref_words: list[str]) -> tuple[list[int], list[int]]:
    """Integer ids shared by words that are equal after NFC normalization."""
    ids: dict[str, int] = {}
    # an ASCII word is its own NFC form
    hyp = [ids.setdefault(w if w.isascii() else _norm(w), len(ids)) for w in hyp_words]
    ref = [ids.setdefault(w if w.isascii() else _norm(w), len(ids)) for w in ref_words]
    return hyp, ref


def _edit_columns(hyp: list[int], ref: list[int]) -> Iterator[tuple[int, int]]:
    """Columns j = 0..m of the unit-cost edit-distance table D as bit vectors.

    D[i][j] is the distance between the first i hypothesis and the first j
    reference words. Column j is yielded as (VP, VN): bit i-1 of VP (of VN)
    is set where D[i][j] - D[i-1][j] is +1 (is -1), so
    D[i][j] = j + popcount(VP & (2^i - 1)) - popcount(VN & (2^i - 1)).
    Each column follows from the last in a dozen Python int operations
    (Myers 1999, in Hyyrö's 2001 formulation; the top row D[0][j] = j shifts
    a +1 into the horizontal deltas).
    """
    peq: dict[int, int] = {}
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
    hyp, ref = _word_ids(hyp_words, ref_words)
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
    hyp, ref = _word_ids(hyp_words, ref_words)
    for vp, vn in _edit_columns(hyp, ref):
        pass
    return len(ref) + vp.bit_count() - vn.bit_count()


def _pairings(
    hyp: dict[str, Sequence[WordTiming]], ref: dict[str, Sequence[WordTiming]]
) -> tuple[list[tuple[Sequence, Sequence, list[tuple[int, int]]]], int, int]:
    """edit_align's equal-text index pairs of every reference utterance that
    `hyp` has, in `ref` order, each with both utterances' words as given:
    (hyp words, ref words, pairs). Returns them with n_hyp and n_ref; an
    utterance missing from `hyp` adds its reference words to n_ref and
    nothing else."""
    from .boundary import WordTimes  # here: boundary imports this module

    def texts(words):
        return words.texts if isinstance(words, WordTimes) else [w.word for w in words]

    matched = []
    n_hyp = n_ref = 0
    for utt, ref_words in ref.items():
        n_ref += len(ref_words)
        hyp_words = hyp.get(utt)
        if hyp_words is None:
            continue
        n_hyp += len(hyp_words)
        matched.append((hyp_words, ref_words, edit_align(texts(hyp_words), texts(ref_words))))
    return matched, n_hyp, n_ref


def _times(utterances: list[Sequence[WordTiming]]) -> np.ndarray:
    """The (2, N) start and end rows of every word of the utterances, in
    order: WordTimes columns are joined, other words read in one pass."""
    from .boundary import WordTimes

    if all(isinstance(words, WordTimes) for words in utterances):
        return np.concatenate([np.empty((2, 0)), *(words.times for words in utterances)], axis=1)
    rows = [(w.start_ms, w.end_ms) for words in utterances for w in words]
    return np.array(rows, dtype=np.float64).reshape(-1, 2).T


def match_words(
    hyp: dict[str, Sequence[WordTiming]], ref: dict[str, Sequence[WordTiming]]
) -> tuple[list[MatchedPair], int, int]:
    """Equal-text word pairs of every reference utterance, in `ref` order.

    Returns (pairs, n_hyp, n_ref). An utterance missing from `hyp` adds its
    reference words to n_ref and nothing else.
    """
    matched, n_hyp, n_ref = _pairings(hyp, ref)
    pairs = [MatchedPair(hyp_words[hid], ref_words[rid])
             for hyp_words, ref_words, ids in matched for hid, rid in ids]
    return pairs, n_hyp, n_ref


def _matched_times(
    hyp: dict[str, Sequence[WordTiming]], ref: dict[str, Sequence[WordTiming]]
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The times of match_words' pairs, in its order, read off the words'
    columns without building a pair: (hyp times, ref times, n_hyp, n_ref),
    each times array (2, n) with the starts and the ends as rows. The pairs
    index the words of all matched utterances at once, so the numpy calls
    do not grow with the number of utterances."""
    matched, n_hyp, n_ref = _pairings(hyp, ref)
    hids, rids = [], []
    n_hyp_words = n_ref_words = 0
    for hyp_words, ref_words, ids in matched:
        hids += [n_hyp_words + hid for hid, _ in ids]
        rids += [n_ref_words + rid for _, rid in ids]
        n_hyp_words += len(hyp_words)
        n_ref_words += len(ref_words)
    hyp_times = np.take(_times([words for words, _, _ in matched]), hids, axis=1)
    ref_times = np.take(_times([words for _, words, _ in matched]), rids, axis=1)
    return hyp_times, ref_times, n_hyp, n_ref


def _pair_times(pairs: list[MatchedPair]) -> tuple[np.ndarray, np.ndarray]:
    """The pairs' hypothesis and reference times in ms, read in one pass:
    two (2, n) arrays whose rows are the starts and the ends."""
    rows = [(p.hyp.start_ms, p.hyp.end_ms, p.ref.start_ms, p.ref.end_ms) for p in pairs]
    times = np.array(rows, dtype=np.float64).reshape(-1, 4).T.copy()
    return times[:2], times[2:]


def timing_metrics(
    pairs: list[MatchedPair],
    thresholds_ms: list[float],
    n_hyp: int | None = None,
    n_ref: int | None = None,
) -> MetricsReport:
    """Offset statistics over matched pairs.

    Deltas are mean absolute start/end differences; pct_ws[t] is the
    percentage of pairs with |start delta| strictly below t (same for ends).
    Signed means (hyp - ref) are kept as a diagnostic.
    """
    return _times_report(*_pair_times(pairs), n_hyp, n_ref, thresholds_ms)


def _times_report(
    hyp: np.ndarray, ref: np.ndarray, n_hyp: int | None, n_ref: int | None,
    thresholds_ms: list[float],
) -> MetricsReport:
    """timing_metrics on the (start, end) rows of the matched words' times, as
    _pair_times and _matched_times give them."""
    n = hyp.shape[1]
    report = MetricsReport(
        n_matched=n, n_hyp=n if n_hyp is None else n_hyp, n_ref=n if n_ref is None else n_ref
    )
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
    spans: list[TokenSpan], word_map: WordMap, ref_words: list[WordTiming], frame_ms: float
) -> list[tuple[float, WordTiming]]:
    """(peak_ms, reference word) for every piece of every matched word.

    The word map's words are paired with the reference words by edit_align,
    so a reference transcript that differs from the aligned one scores only
    its equal-text words; on the aligned transcript itself the pairing is the
    identity.
    """
    ref_words = list(ref_words)  # a WordTimes builds each of its words once, here
    items = []
    for wid, rid in edit_align(word_map.texts(), [w.word for w in ref_words]):
        _, first, last = word_map.words[wid]
        for span in spans[first : last + 1]:
            items.append((span.peak_frame * frame_ms, ref_words[rid]))
    return items


def peak_histogram(
    items: list[tuple[float, WordTiming]],
    n_bins: int,
    value_range: tuple[float, float] = (-1.0, 2.0),
) -> PeakHistogram:
    """Distribution of peak position relative to the reference word.

    Each item is (peak_ms, reference word timing); the relative position is
    (peak - ref.start) / ref.duration, so 0 sits at the word start and 1 at
    its end. Zero-duration references are skipped and counted. Values outside
    value_range land in the edge bins so every scored item is counted.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    lo, hi = value_range
    if not lo < hi:
        raise ValueError(f"empty histogram range [{lo}, {hi}]")
    rel = []
    skipped = 0
    for peak_ms, ref in items:
        if ref.duration_ms <= 0:
            skipped += 1
            continue
        rel.append((peak_ms - ref.start_ms) / ref.duration_ms)
    values = np.asarray(rel)
    counts, edges = np.histogram(np.clip(values, lo, hi), bins=n_bins, range=(lo, hi))
    mean = float(values.mean()) if len(values) else None
    return PeakHistogram(counts, edges, mean, len(values), skipped)


def blank_occupancy(posteriors: np.ndarray) -> float:
    """Fraction of frames whose argmax token is the blank."""
    posteriors = np.asarray(posteriors)
    return float(np.mean(posteriors.argmax(axis=1) == BLANK_ID))
