"""Independent reference implementations used only to check the library.

Everything here is deliberately brute-force: path enumeration instead of
forward-backward, central finite differences instead of analytic gradients,
a plain DP for edit distance. None of it shares code with the package,
except gridsearch_rebuilt, which checks the offset search's arrays against
word-timing objects scored by the package's timing_metrics, and the object
path of scoring (read_timings_objects to object_gridsearch_offset), which
scores word timings as one TimedWord per word and one WordPair per matched
word. TimedWord checks one word by the rule WordTimes applies to each.
cetc_boundaries_loop and guided_targets_loop are the per-token and
per-frame loops that built CETC boundaries and guided targets before the
package built them as arrays.
"""
from __future__ import annotations

import itertools
import math
import unicodedata
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np


def collapse(path: tuple[int, ...]) -> tuple[int, ...]:
    """CTC collapse: drop consecutive duplicates, then blanks (id 0)."""
    out = []
    prev = None
    for tok in path:
        if tok != prev:
            out.append(tok)
        prev = tok
    return tuple(t for t in out if t != 0)


def emitted(states, labels) -> tuple[int, ...]:
    """Per-frame token ids of an alignment path's states (blank included):
    even states emit blank, odd state 2u+1 emits labels.tokens[u]."""
    tokens = labels.tokens
    return tuple(0 if s % 2 == 0 else tokens[(s - 1) // 2] for s in states)


def path_score(log_probs: np.ndarray, states, labels) -> float:
    """Sum of per-frame emission log-probs along an alignment path."""
    tokens = emitted(states, labels)
    return float(np.asarray(log_probs)[np.arange(len(tokens)), tokens].sum())


def logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) shifted by the maximum; all -inf gives -inf."""
    values = np.asarray(values, dtype=np.float64)
    hi = values.max()
    if not np.isfinite(hi):
        return float(hi)
    return float(np.log(np.exp(values - hi).sum()) + hi)


@lru_cache(maxsize=None)
def paths_by_collapse(n_frames: int, n_vocab: int) -> dict[tuple[int, ...], np.ndarray]:
    """Group every length-T sequence over [0, V) by its collapsed form."""
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for path in itertools.product(range(n_vocab), repeat=n_frames):
        groups.setdefault(collapse(path), []).append(path)
    return {key: np.asarray(paths, dtype=np.int64) for key, paths in groups.items()}


def brute_force_ctc_loss(log_probs: np.ndarray, labels: tuple[int, ...]) -> float:
    """-log sum over all valid paths of the product of per-frame probabilities."""
    log_probs = np.asarray(log_probs, dtype=np.float64)
    n_frames, n_vocab = log_probs.shape
    valid = paths_by_collapse(n_frames, n_vocab).get(tuple(labels))
    if valid is None or len(valid) == 0:
        raise ValueError("no valid path")
    scores = log_probs[np.arange(n_frames)[None, :], valid].sum(axis=1)
    hi = scores.max()
    return float(-(np.log(np.exp(scores - hi).sum()) + hi))


def cellwise_lattices(
    log_probs: np.ndarray, labels: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward CTC lattices of one utterance, one cell at a time.

    Both are (2U+1) x T and include the emission at their own frame. Each
    cell combines its predecessors as logaddexp(stay, step), then the skip
    term, so its value is reproducible to the last bit.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    n_frames = log_probs.shape[0]
    syms = [0] * (2 * len(labels) + 1)
    syms[1::2] = list(labels)
    n_states = len(syms)
    emit = log_probs[:, syms].T
    neg_inf = np.float64(-np.inf)

    def skip_ok(src: int, dst: int) -> bool:
        return dst % 2 == 1 and src >= 0 and syms[dst] != syms[src]

    alpha = np.full((n_states, n_frames), neg_inf)
    alpha[:2, 0] = emit[:2, 0]
    for t in range(1, n_frames):
        for s in range(n_states):
            acc = np.logaddexp(alpha[s, t - 1], alpha[s - 1, t - 1] if s >= 1 else neg_inf)
            acc = np.logaddexp(acc, alpha[s - 2, t - 1] if skip_ok(s - 2, s) else neg_inf)
            alpha[s, t] = acc + emit[s, t]

    beta = np.full((n_states, n_frames), neg_inf)
    beta[-2:, -1] = emit[-2:, -1]
    for t in range(n_frames - 2, -1, -1):
        for s in range(n_states):
            nxt = beta[:, t + 1]
            acc = np.logaddexp(nxt[s], nxt[s + 1] if s + 1 < n_states else neg_inf)
            jump = s + 2 < n_states and skip_ok(s, s + 2)
            acc = np.logaddexp(acc, nxt[s + 2] if jump else neg_inf)
            beta[s, t] = acc + emit[s, t]
    return alpha, beta


def enumerate_valid_paths(n_frames: int, n_vocab: int, labels: tuple[int, ...]) -> np.ndarray:
    """All token paths collapsing to labels, one row per path."""
    valid = paths_by_collapse(n_frames, n_vocab).get(tuple(labels))
    return np.empty((0, n_frames), dtype=np.int64) if valid is None else valid


def central_difference_grad(fn, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function at x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(x.size):
        orig = xf[i]
        xf[i] = orig + step
        hi = fn(x)
        xf[i] = orig - step
        lo = fn(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def grad_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max-norm relative disagreement between two gradients."""
    diff = np.abs(analytic - numeric).max()
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-12)
    return float(diff / scale)


def log_softmax(rows: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a T x V score matrix."""
    shifted = rows - rows.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class NonFinitePrior(ArithmeticError):
    """The label prior made logit (frame, vocab) non-finite."""

    def __init__(self, frame: int, vocab: int):
        super().__init__(frame, vocab)
        self.frame, self.vocab = frame, vocab


def per_utterance_ctc_grad(frames: np.ndarray, labels: tuple[int, ...], gamma: float):
    """CTC loss and gradient w.r.t. raw logits of one utterance, by the
    per-utterance chain: label prior, log-softmax, the cell-wise lattices,
    np.add.at occupancy, then the prior's chain rule.

    Returns (loss, grad), or None when no path is valid (too few frames, or
    zero total probability). Raises NonFinitePrior at the first logit the
    prior makes non-finite.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if gamma:
        prior = frames.mean(axis=0, keepdims=True)
        frames = frames - gamma * prior
        bad = np.argwhere(~np.isfinite(frames))
        if len(bad):
            raise NonFinitePrior(int(bad[0][0]), int(bad[0][1]))
    log_probs = log_softmax(frames)
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    if len(log_probs) < len(labels) + repeats:
        return None
    alpha, beta = cellwise_lattices(log_probs, labels)
    log_like = float(np.logaddexp(alpha[-1, -1], alpha[-2, -1]))
    if not np.isfinite(log_like):
        return None
    syms = np.zeros(2 * len(labels) + 1, dtype=np.int64)
    syms[1::2] = labels
    joint = alpha + beta - log_probs[:, syms].T
    state_post = np.exp(joint - log_like)
    occ = np.zeros_like(log_probs)
    np.add.at(occ.T, syms, state_post)
    grad = np.exp(log_probs) - occ
    if gamma:
        grad = grad - (gamma / log_probs.shape[0]) * grad.sum(axis=0, keepdims=True)
    return -log_like, grad


def frozen_teacher_kd_loss(
    frames: np.ndarray, mu: int, tau: float, teacher_frames: np.ndarray
) -> float:
    """Summed KL(teacher(t+mu) || student(t)) with the teacher read from
    fixed logits; reference for stop-gradient checks."""
    log_p = log_softmax(np.asarray(frames) / tau)
    log_q = log_softmax(np.asarray(teacher_frames) / tau)
    q = np.exp(log_q)
    total = 0.0
    n_frames = frames.shape[0]
    for t in range(n_frames):
        s = t + mu
        if 0 <= s < n_frames:
            total += float((q[s] * (log_q[s] - log_p[t])).sum())
    return total


def levenshtein_cost(a: list[str], b: list[str]) -> int:
    """Plain Wagner-Fischer distance with unit costs, no backtrace."""
    prev = list(range(len(b) + 1))
    for i, wa in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, wb in enumerate(b, start=1):
            sub = prev[j - 1] + (0 if wa == wb else 1)
            cur[j] = min(sub, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[len(b)]


def edit_align_cellwise(hyp_words: list[str], ref_words: list[str]) -> list[tuple[int, int]]:
    """Minimum-edit-distance alignment filled one cell at a time; returns
    only the equal-text slots.

    The reference for the package's bit-vector columns: unit costs, backtrace
    preferring match > substitution > deletion > insertion, words compared
    after NFC.
    """
    hyp = [unicodedata.normalize("NFC", w) for w in hyp_words]
    ref = [unicodedata.normalize("NFC", w) for w in ref_words]
    n, m = len(hyp), len(ref)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1, j - 1] + (0 if hyp[i - 1] == ref[j - 1] else 1)
            dist[i, j] = min(sub, dist[i, j - 1] + 1, dist[i - 1, j] + 1)

    matches = []
    i, j = n, m
    while i > 0 and j > 0:
        if hyp[i - 1] == ref[j - 1] and dist[i, j] == dist[i - 1, j - 1]:
            matches.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif dist[i, j] == dist[i - 1, j - 1] + 1:
            i, j = i - 1, j - 1
        elif dist[i, j] == dist[i, j - 1] + 1:  # deletion: ref word unmatched
            j -= 1
        else:  # insertion: hyp word unmatched
            i -= 1
    matches.reverse()
    return matches


def gridsearch_rebuilt(pred, ref, range_ms, step_ms, threshold_ms):
    """gridsearch_offset from word-timing objects: each offset b is scored by
    the package's timing_metrics over the matched pairs, as one utterance of
    their reference words against one of their hypothesis words, each rebuilt
    as TimedWord(w, max(s + b, 0), max(e + b, 0)). The report keeps the
    word counts of pred and ref.

    Returns (best offset, its report, curve); the best offset has the highest
    %WS<t + %WE<t, then the smallest |b|, then the smaller b.
    """
    from ctctiming.boundary import offset_count
    from ctctiming.metrics import timing_metrics

    common = sorted(set(pred) & set(ref))
    matched, n_hyp, n_ref = object_match_words(
        word_objects(pred), word_objects({utt: ref[utt] for utt in common}))
    ref_words = {"matched": word_times(p.ref for p in matched)}

    def report_at(b: float):
        hyp_words = word_times(
            TimedWord(p.hyp.word, max(p.hyp.start_ms + b, 0.0), max(p.hyp.end_ms + b, 0.0))
            for p in matched
        )
        report = timing_metrics({"matched": hyp_words}, ref_words, [threshold_ms])
        assert report.n_matched == len(matched)
        return replace(report, n_hyp=n_hyp, n_ref=n_ref)

    curve = []
    for k in range(offset_count(range_ms, step_ms)):
        b = range_ms[0] + step_ms * k
        report = report_at(b)
        curve.append((b, report.pct_ws[threshold_ms] + report.pct_we[threshold_ms]))
    best = min(curve, key=lambda point: (-point[1], abs(point[0]), point[0]))[0]
    return best, report_at(best), curve


def sample_valid_path(
    rng: np.random.Generator, n_frames: int, labels: tuple[int, ...]
) -> np.ndarray:
    """Uniform-ish random walk through the blank-interleaved state topology.

    At every frame one of the feasible moves {stay, +1, +2} is drawn at
    random, where feasibility means the walk can still reach a final state
    in the frames that remain.
    """
    n_states = 2 * len(labels) + 1
    syms = [0] * n_states
    syms[1::2] = list(labels)

    def skip_ok(state: int) -> bool:
        target = state + 2
        return target < n_states and target % 2 == 1 and syms[target] != syms[state]

    def min_frames_needed(state: int) -> int:
        # each extra frame advances at most 2 states, skips only between
        # distinct labels; walk greedily to get the exact bound
        steps = 0
        while state < n_states - 2:
            state = state + 2 if skip_ok(state) else state + 1
            steps += 1
        return steps

    starts = [s for s in (0, 1) if min_frames_needed(s) <= n_frames - 1]
    state = int(starts[rng.integers(0, len(starts))])
    path = [state]
    for t in range(1, n_frames):
        remaining = n_frames - 1 - t
        options = [
            nxt
            for nxt in (state, state + 1, state + 2)
            if nxt < n_states
            and (nxt - state != 2 or skip_ok(state))
            and min_frames_needed(nxt) <= remaining
        ]
        state = int(options[rng.integers(0, len(options))])
        path.append(state)
    return np.asarray(path, dtype=np.int64)


def forced_align_backpointers(log_probs: np.ndarray, labels: tuple[int, ...]) -> np.ndarray:
    """Viterbi states of the most probable valid CTC path, from a stored
    backpointer table.

    Each cell records its predecessor as the recursion runs: stay wins ties
    with step, and that winner wins ties with skip; the final frame prefers
    the trailing blank. The reference for a backtrace that recomputes
    predecessors from the score lattice instead.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    n_frames = log_probs.shape[0]
    syms = np.zeros(2 * len(labels) + 1, dtype=np.int64)
    syms[1::2] = labels
    skip = np.zeros(len(syms), dtype=bool)
    skip[3::2] = syms[3::2] != syms[1:-2:2]
    emit = log_probs[:, syms].T
    n_states = len(syms)
    neg_inf = float("-inf")

    score = np.full((n_states, n_frames), neg_inf)
    back = np.zeros((n_states, n_frames), dtype=np.int64)
    score[0, 0] = emit[0, 0]
    score[1, 0] = emit[1, 0]
    back[:, 0] = np.arange(n_states)
    for t in range(1, n_frames):
        prev = score[:, t - 1]
        stay = prev
        step = np.concatenate(([neg_inf], prev[:-1]))
        jump = np.where(skip, np.concatenate(([neg_inf, neg_inf], prev[:-2])), neg_inf)
        best = np.where(stay >= step, stay, step)
        pred = np.where(stay >= step, np.arange(n_states), np.arange(n_states) - 1)
        pred = np.where(best >= jump, pred, np.arange(n_states) - 2)
        best = np.where(best >= jump, best, jump)
        score[:, t] = best + emit[:, t]
        back[:, t] = pred

    if not (np.isfinite(score[-1, -1]) or np.isfinite(score[-2, -1])):
        raise ValueError("no valid path: final states unreachable")
    state = n_states - 1 if score[-1, -1] >= score[-2, -1] else n_states - 2
    states = np.empty(n_frames, dtype=np.int64)
    states[-1] = state
    for t in range(n_frames - 1, 0, -1):
        state = back[state, t]
        states[t - 1] = state
    return states


def token_spans_flatnonzero(
    states: np.ndarray, labels: tuple[int, ...], posteriors: np.ndarray
) -> np.ndarray:
    """A (3, U) int64 array of each token's start, end and peak frame: the
    first and last frame whose state is the token's emitting state 2u+1,
    found by scanning the whole path, and the first maximum of the token's
    posterior between them."""
    states = np.asarray(states)
    spans = []
    for u, token in enumerate(labels):
        frames = np.flatnonzero(states == 2 * u + 1)
        start, end = int(frames[0]), int(frames[-1])
        column = [float(posteriors[t, token]) for t in range(start, end + 1)]
        spans.append((start, end, start + column.index(max(column))))
    return np.array(spans, dtype=np.int64).T


def cetc_boundaries_loop(
    peaks, n_frames: int, alpha_left: float, alpha_right: float
) -> list[tuple[int, int]]:
    """Each token's (start, end) frames from its peak, one token at a time:
    the start alpha_left of the way to the previous peak, the end
    alpha_right of the way to the next (virtual neighbors at frames 0 and
    T-1), rounded half-up and clipped to include the peak; when
    alpha_left + alpha_right < 1 each end is pulled back below the next
    token's (clipped) start."""
    peaks = np.asarray(peaks, dtype=np.float64)
    prev = np.concatenate(([0.0], peaks[:-1]))
    nxt = np.concatenate((peaks[1:], [float(n_frames - 1)]))
    starts = np.floor(peaks - alpha_left * (peaks - prev) + 0.5).astype(np.int64)
    ends = np.floor(peaks + alpha_right * (nxt - peaks) + 0.5).astype(np.int64)
    out = []
    for u, (start, peak, end) in enumerate(zip(starts, peaks.astype(np.int64), ends)):
        start, end = int(min(start, peak)), int(max(end, peak))
        if alpha_left + alpha_right < 1.0 and u + 1 < len(starts):
            end = max(peak, min(end, int(min(starts[u + 1], peaks[u + 1])) - 1))
        out.append((start, end))
    return out


def guided_targets_loop(
    tokens: tuple[int, ...], peaks, boundaries, beta: float, n_frames: int, n_vocab: int
) -> np.ndarray:
    """T x V guided targets filled one frame at a time: each frame goes to
    the last token whose (start, end) covers it, and takes that token's ramp
    ((t-start)/(peak-start))**beta up to the peak (1 on a zero-length left
    side) and ((end-t)/(end-peak))**beta after it; the blank column (id 0)
    gets the rest of each frame's mass."""
    owner = np.full(n_frames, -1, dtype=np.int64)
    for u, (start, end) in enumerate(boundaries):
        owner[start : end + 1] = u
    targets = np.zeros((n_frames, n_vocab))
    for u, (start, end) in enumerate(boundaries):
        peak = int(peaks[u])
        for t in range(start, end + 1):
            if owner[t] != u:
                continue
            if t <= peak:
                value = 1.0 if peak == start else ((t - start) / (peak - start)) ** beta
            else:
                value = ((end - t) / (end - peak)) ** beta
            targets[t, tokens[u]] = value
    targets[:, 0] = np.clip(1.0 - targets[:, 1:].sum(axis=1), 0.0, 1.0)
    return targets


# The object path of scoring, kept as the package had it before it scored
# each utterance's words as columns: the outputs of `metrics` and
# `gridsearch` must not change. It uses the package's edit_align, report type
# and offset_count, and a word type and a pair type of its own.

@dataclass(frozen=True)
class TimedWord:
    """A word with start/end in milliseconds, stored as floats, built only
    when it passes the per-word rule: a str text, then int or float (not
    bool) start and end, then 0 <= start <= end < inf."""

    word: str
    start_ms: float
    end_ms: float

    def __post_init__(self):
        if not isinstance(self.word, str):
            raise TypeError(f"word text must be a string, got {self.word!r}")
        for name in ("start_ms", "end_ms"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                    value, (int, float, np.integer, np.floating)):
                raise TypeError(f"{name} must be a number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not (0.0 <= self.start_ms <= self.end_ms < math.inf):  # also rejects nan
            raise ValueError(f"{self.word!r}: need 0 <= start <= end < inf, "
                             f"got ({self.start_ms}, {self.end_ms})")

    def __iter__(self):
        return iter((self.word, self.start_ms, self.end_ms))


def word_times(words):
    """One WordTimes from (text, start_ms, end_ms) triples, such as TimedWords."""
    from ctctiming.boundary import WordTimes

    rows = [tuple(w) for w in words]
    return WordTimes([r[0] for r in rows],
                     np.array([[r[1] for r in rows], [r[2] for r in rows]]).reshape(2, len(rows)))


def word_rows(words) -> list[tuple[str, float, float]]:
    """A WordTimes as one (text, start_ms, end_ms) triple per word."""
    return list(zip(words.texts, *words.times.tolist()))


def word_objects(timings: dict) -> dict:
    """{utt: WordTimes} as {utt: [TimedWord, ...]}."""
    return {utt: [TimedWord(*row) for row in word_rows(words)]
            for utt, words in timings.items()}


class WordPair(NamedTuple):
    """A hypothesis word and the reference word edit_align matched it to."""

    hyp: object
    ref: object


def read_timings_objects(path) -> dict:
    """A timings JSONL file as one TimedWord per word, read line by line."""
    import json

    timings = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                timings[record["utt"]] = [
                    TimedWord(w["w"], w["start_ms"], w["end_ms"]) for w in record["words"]
                ]
    return timings


def object_match_words(hyp, ref):
    """(WordPairs of every reference utterance that hyp has, in ref order,
    n_hyp, n_ref) over lists of TimedWords."""
    from ctctiming.metrics import edit_align

    pairs = []
    n_hyp = n_ref = 0
    for utt, ref_words in ref.items():
        n_ref += len(ref_words)
        hyp_words = hyp.get(utt)
        if hyp_words is None:
            continue
        n_hyp += len(hyp_words)
        for hid, rid in edit_align([w.word for w in hyp_words], [w.word for w in ref_words]):
            pairs.append(WordPair(hyp_words[hid], ref_words[rid]))
    return pairs, n_hyp, n_ref


def object_pair_times(pairs):
    rows = [(p.hyp.start_ms, p.hyp.end_ms, p.ref.start_ms, p.ref.end_ms) for p in pairs]
    times = np.array(rows, dtype=np.float64).reshape(-1, 4).T.copy()
    return times[:2], times[2:]


def object_times_report(hyp, ref, thresholds_ms, n_hyp, n_ref):
    from ctctiming.metrics import MetricsReport

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


def object_metrics(hyp, ref, thresholds_ms):
    """The report of `ctctiming metrics`: every reference utterance in id order."""
    pairs, n_hyp, n_ref = object_match_words(hyp, dict(sorted(ref.items())))
    return object_times_report(*object_pair_times(pairs), thresholds_ms, n_hyp, n_ref)


def object_gridsearch_offset(pred, ref, range_ms, step_ms, threshold_ms):
    from ctctiming.boundary import offset_count

    n_offsets = offset_count(range_ms, step_ms)
    common = sorted(set(pred) & set(ref))
    matched, n_hyp, n_ref = object_match_words(pred, {utt: ref[utt] for utt in common})
    if not matched:
        raise ValueError("nothing to score: no matched word pairs")
    hyp, ref_times = object_pair_times(matched)

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

    report = object_times_report(
        np.maximum(hyp + best_offset, 0.0), ref_times, [threshold_ms], n_hyp, n_ref
    )
    return best_offset, report, curve
