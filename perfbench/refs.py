"""Reference computations that the workload checks compare the program with.

Nothing here imports the program. The CTC forward recursion and the Viterbi
max-product recursion are written over the blank-interleaved state list
(Graves et al., ICML 2006); `self_check` proves both against exhaustive
enumeration of every frame labelling on tiny (T, V, U) cases.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


def log_softmax(frames: np.ndarray) -> np.ndarray:
    top = frames.max(axis=1, keepdims=True)
    return frames - (top + np.log(np.exp(frames - top).sum(axis=1, keepdims=True)))


def prior_log_probs(frames: np.ndarray, gamma: float) -> np.ndarray:
    """Log-softmax after subtracting gamma times each label's time-mean."""
    return log_softmax(frames - gamma * frames.mean(axis=0, keepdims=True))


def _states(tokens) -> list[int]:
    out = [0]
    for tok in tokens:
        out += [int(tok), 0]
    return out


def _predecessors(states: list[int], s: int) -> list[int]:
    """Lattice states that may precede state s, highest index first."""
    preds = [s]
    if s >= 1:
        preds.append(s - 1)
    if s >= 2 and states[s] != 0 and states[s] != states[s - 2]:
        preds.append(s - 2)
    return preds


def ctc_nll(log_probs: np.ndarray, tokens) -> float:
    """-log P(tokens | log_probs) by the forward recursion."""
    states = _states(tokens)
    n_frames = log_probs.shape[0]
    alpha = [-math.inf] * len(states)
    alpha[0] = float(log_probs[0, states[0]])
    alpha[1] = float(log_probs[0, states[1]])
    for t in range(1, n_frames):
        row = log_probs[t]
        new = []
        for s, sym in enumerate(states):
            terms = [alpha[p] for p in _predecessors(states, s) if alpha[p] > -math.inf]
            if not terms:
                new.append(-math.inf)
                continue
            top = max(terms)
            new.append(top + math.log(sum(math.exp(x - top) for x in terms)) + float(row[sym]))
        alpha = new
    a, b = alpha[-1], alpha[-2]
    top = max(a, b)
    return -(top + math.log(math.exp(a - top) + math.exp(b - top)))


def viterbi_states(log_probs: np.ndarray, tokens) -> list[int]:
    """Best lattice-state path; ties go to the higher predecessor state and,
    on the last frame, to the trailing blank."""
    states = _states(tokens)
    n_states = len(states)
    n_frames = log_probs.shape[0]
    score = np.full(n_states, -np.inf)
    score[0] = log_probs[0, states[0]]
    score[1] = log_probs[0, states[1]]
    emit_cols = np.asarray(states)
    back = np.zeros((n_frames, n_states), dtype=np.int64)
    # vectorised over states: candidate predecessors s, s-1, s-2 in that order
    can_jump = np.zeros(n_states, dtype=bool)
    for s in range(2, n_states):
        can_jump[s] = states[s] != 0 and states[s] != states[s - 2]
    idx = np.arange(n_states)
    for t in range(1, n_frames):
        stay = score
        step = np.concatenate(([-np.inf], score[:-1]))
        jump = np.where(can_jump, np.concatenate(([-np.inf, -np.inf], score[:-2])), -np.inf)
        best, arg = stay.copy(), idx.copy()
        better = step > best
        best[better], arg[better] = step[better], idx[better] - 1
        better = jump > best
        best[better], arg[better] = jump[better], idx[better] - 2
        score = best + log_probs[t, emit_cols]
        back[t] = arg
    state = n_states - 1 if score[-1] >= score[-2] else n_states - 2
    path = [state]
    for t in range(n_frames - 1, 0, -1):
        state = int(back[t, state])
        path.append(state)
    return path[::-1]


def token_frames(path: list[int], n_tokens: int) -> list[tuple[int, int]]:
    """(first, last) frame of each token's emitting state on a state path."""
    first, last = [None] * n_tokens, [None] * n_tokens
    for t, s in enumerate(path):
        if s % 2:
            u = s // 2
            first[u] = t if first[u] is None else first[u]
            last[u] = t
    return list(zip(first, last))


def word_times(spans, words, frame_ms: float, offset_ms: float = 0.0):
    """(text, start_ms, end_ms) per word: first piece start to last piece end."""
    return [(w, spans[a][0] * frame_ms + offset_ms, (spans[b][1] + 1) * frame_ms + offset_ms)
            for w, a, b in words]


def _collapse(labelling) -> tuple[int, ...]:
    out = []
    prev = None
    for sym in labelling:
        if sym != prev and sym != 0:
            out.append(sym)
        prev = sym
    return tuple(out)


def _path_to_states(labelling, tokens) -> list[int] | None:
    """The unique lattice-state path of a frame labelling that collapses to tokens."""
    states, u, prev = [], -1, None
    for sym in labelling:
        if sym == 0:
            states.append(2 * (u + 1))
        else:
            if sym != prev:
                u += 1
            states.append(2 * u + 1)
        prev = sym
    return states if _collapse(labelling) == tuple(tokens) else None


def self_check() -> None:
    """Compare both recursions with enumeration of all V**T labellings."""
    rng = np.random.default_rng(0)
    cases = [(1, 2, (1,)), (3, 3, (1, 2)), (4, 3, (1, 1)), (5, 3, (2, 1, 2)),
             (6, 4, (3, 3, 1)), (6, 3, (1,)), (5, 4, (1, 2, 3))]
    for n_frames, n_vocab, tokens in cases:
        log_probs = log_softmax(rng.normal(scale=2.0, size=(n_frames, n_vocab)))
        total, best, best_path = -math.inf, -math.inf, None
        for labelling in itertools.product(range(n_vocab), repeat=n_frames):
            path = _path_to_states(labelling, tokens)
            if path is None:
                continue
            score = float(sum(log_probs[t, sym] for t, sym in enumerate(labelling)))
            total = np.logaddexp(total, score)
            if score > best:
                best, best_path = score, path
        nll = ctc_nll(log_probs, tokens)
        if not math.isclose(nll, -total, rel_tol=1e-12, abs_tol=1e-12):
            raise AssertionError(f"forward reference {nll} != enumeration {-total} on {tokens}")
        path = viterbi_states(log_probs, tokens)
        states = _states(tokens)
        got = float(sum(log_probs[t, states[s]] for t, s in enumerate(path)))
        if path != best_path or not math.isclose(got, best, rel_tol=1e-12, abs_tol=1e-12):
            raise AssertionError(f"viterbi reference {path} != enumeration {best_path} on {tokens}")
