"""Log-space CTC loss, gradients, label priors and Viterbi forced alignment.

All lattice computations run over the standard blank-interleaved topology:
a label sequence of length U expands to S = 2U+1 states, even states emit
blank (id 0) and odd state 2u+1 emits the u-th label. Probabilities are
kept in natural-log domain throughout; impossible cells hold -inf.

One padded recursion fills every lattice: summed, it gives the loss's
forward and backward lattices; maximised, the Viterbi scores. Each lattice
is one float64 array that starts out holding its own emissions, so a
(T, S) lattice costs T x (S + 2) x 8 bytes and no emission copy beside it.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

BLANK_ID = 0

NEG_INF = float("-inf")


class NoValidPathError(ValueError):
    """The CTC topology admits no valid path for the given (T, labels)."""


class NonFiniteError(ValueError):
    """A logit matrix holds NaN or an infinity at (frame, vocab); utt_id
    names its utterance. Pickles, so it can come back from a worker process."""

    def __init__(self, utt_id: str, frame: int, vocab: int):
        super().__init__(f"{utt_id}: non-finite logit at frame {frame}, vocab {vocab}")
        self.utt_id, self.frame, self.vocab = utt_id, frame, vocab

    def __reduce__(self):
        return type(self), (self.utt_id, self.frame, self.vocab)


@dataclass(eq=False)
class LogitMatrix:
    """Raw (pre-softmax) frame-level classifier scores for one utterance.

    frames is a T x V float64 array; frame_ms is the duration of one frame
    in milliseconds. Building one is where logits are checked: a NaN or an
    infinity raises NonFiniteError naming the utterance, frame and vocab.
    """

    utt_id: str
    frames: np.ndarray
    frame_ms: float

    def __post_init__(self):
        frames = np.asarray(self.frames)  # numpy's own dtype, which shows strings and bools
        if frames.dtype.kind == "O":  # such as None, or an integer wider than 64 bits
            for value in frames.flat:
                _number(value, f"{self.utt_id}: logit")
        elif frames.dtype.kind not in "iuf":
            raise TypeError(f"{self.utt_id}: logits must be numbers, got dtype {frames.dtype}")
        self.frames = frames.astype(np.float64, copy=False)
        self.frame_ms = _number(self.frame_ms, "frame_ms")
        if self.frames.ndim != 2:
            raise ValueError(f"{self.utt_id}: frames must be 2-D, got shape {self.frames.shape}")
        t, v = self.frames.shape
        if t < 1 or v < 2:
            raise ValueError(f"{self.utt_id}: need T >= 1 and V >= 2, got T={t}, V={v}")
        if not 0 < self.frame_ms < np.inf:  # also rejects nan
            raise ValueError(f"{self.utt_id}: frame_ms must be finite and > 0, got {self.frame_ms}")
        _check_finite(self.utt_id, self.frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_vocab(self) -> int:
        return self.frames.shape[1]


def _check_finite(utt_id: str, frames: np.ndarray) -> None:
    """Raise NonFiniteError at the first NaN or infinity of frames, if any."""
    if not np.isfinite(frames).all():
        t, v = np.argwhere(~np.isfinite(frames))[0]
        raise NonFiniteError(utt_id, int(t), int(v))


def _integer(value, what: str) -> int:
    """value as an int: ints and numpy integers pass, while bool, float, str
    and anything else raise TypeError naming what, so nothing is truncated."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def _number(value, what: str) -> float:
    """value as a float: ints, floats and numpy's pass, while bool, str and
    anything else raise TypeError naming what, so no text or truth value is
    read as a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


class _Topology(NamedTuple):
    """What the lattice code reads off a label sequence of length U."""

    syms: np.ndarray  # vocab id emitted by each of the S = 2U + 1 states
    # additive s - 2 -> s masks (0 legal, -inf not) behind two -inf columns,
    # for the states in order and for the lattice reversed in states and time
    skip: np.ndarray
    skip_reversed: np.ndarray
    max_id: int


@dataclass(frozen=True)
class LabelSequence:
    """Token id sequence; ids live in [1, V-1], blank (0) is never a label."""

    tokens: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(_integer(t, "label id") for t in self.tokens))
        if len(self.tokens) < 1:
            raise ValueError("label sequence must contain at least one token")
        if any(t < 1 for t in self.tokens):
            raise ValueError(f"labels must be >= 1 (0 is the blank id), got {self.tokens}")

    def __len__(self) -> int:
        return len(self.tokens)

    @cached_property
    def n_repeats(self) -> int:
        """Count of adjacent equal labels; each one forces a mandatory blank."""
        return sum(1 for a, b in zip(self.tokens, self.tokens[1:]) if a == b)

    @cached_property
    def _topology(self) -> _Topology:
        """The lattice arrays of this sequence, built on first use and kept."""
        n_states = 2 * len(self.tokens) + 1
        syms = np.full(n_states, BLANK_ID, dtype=np.int64)
        syms[1::2] = self.tokens
        skip = np.full(n_states + 2, NEG_INF)
        skip[5::2][syms[3::2] != syms[1:-2:2]] = 0.0
        # reversed row r = S-1-s takes the backward s+2 -> s term, legal when skip[s+4] is 0
        skip_reversed = np.full(n_states + 2, NEG_INF)
        skip_reversed[4:] = skip[:3:-1]
        for array in (syms, skip, skip_reversed):
            array.flags.writeable = False  # shared by every lattice of this sequence
        return _Topology(syms, skip, skip_reversed, max(self.tokens))


def log_softmax_rows(frames: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a finite T x V score matrix (LogitMatrix
    checks finiteness where logits enter)."""
    frames = np.asarray(frames, dtype=np.float64)
    shifted = frames - frames.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _symbols(log_probs: np.ndarray, labels: LabelSequence) -> np.ndarray:
    """Vocab id emitted by each of the 2U+1 states of labels on a T x V
    log-prob matrix. Raises ValueError for a label id >= V, then
    NoValidPathError when T < U + repeats, the fewest frames a path needs."""
    n_frames, n_vocab = log_probs.shape
    topology = labels._topology
    if topology.max_id >= n_vocab:
        raise ValueError(f"label id {topology.max_id} out of range for V={n_vocab}")
    needed = len(labels) + labels.n_repeats
    if n_frames < needed:
        raise NoValidPathError(
            f"no valid path: T={n_frames} < U + repeats = {needed} "
            f"for labels of length {len(labels)}"
        )
    return topology.syms


def _recursion(lattice: np.ndarray, jump_mask: np.ndarray, combine) -> np.ndarray:
    """Fill a C-contiguous (T, R, S + 2) lattice in place, given (R, S + 2)
    skip masks whose two leading columns are -inf.

    The lattice arrives holding its own emissions: state s of row r at frame
    t sits in column s + 2, the two leading columns and all padding are -inf,
    and at frame 0 only states 0 and 1 are finite. Each later cell becomes
    emit + combine(combine(stay, step), skip): np.logaddexp sums over paths,
    np.maximum keeps the best. Each frame is one contiguous vector of its R
    rows, so stay, step and skip are the previous frame's vector shifted by
    0, 1 and 2. A row's leading -inf columns are the step and skip
    predecessors of its first states; they are computed too, from the row
    before, but their -inf emission keeps them -inf.
    """
    frames = lattice.reshape(len(lattice), -1)
    mask = jump_mask.reshape(-1)[2:]
    best = np.empty(mask.shape)
    jump = np.empty(mask.shape)
    # iterating an array yields one frame view at a time, so no per-frame
    # view list is ever held; zip pairs frame t - 1's three views with t's
    states = frames[:, 2:]
    for stay, step, skip, cur in zip(states, frames[:, 1:-1], frames[:, :-2], states[1:]):
        combine(stay, step, out=best)
        np.add(skip, mask, out=jump)
        combine(best, jump, out=best)
        cur += best
    return lattice


def _forward_backward(log_probs: list[np.ndarray], labels: list[LabelSequence]):
    """Forward and backward lattices of a batch from one padded recursion.

    log_probs[i] is utterance i's T_i x V log-prob matrix. Each utterance
    with enough frames fills two rows of one (T_max, 2B, S_max + 2) lattice:
    row k, itself, and row B + k, a copy reversed in both states and time,
    whose forward recursion is the backward one. Emissions are written
    straight into those rows. Padding is -inf and only ever feeds padded
    cells (higher states, later frames), so every real cell is computed by
    the same operations as an unpadded single-utterance recursion.

    Returns (results, live): results holds the NoValidPathError of each
    utterance without a valid path and None elsewhere; live lists
    (i, log_alpha, log_beta, log-likelihood) for the others, whose two
    lattices are (2U+1, T_i) views into the padded one, the backward one
    turned back into state and time order.
    """
    results: list = [None] * len(log_probs)
    todo = []
    for i, (lp, lab) in enumerate(zip(log_probs, labels, strict=True)):
        try:
            _symbols(lp, lab)
            todo.append(i)
        except NoValidPathError as err:
            results[i] = err
    if not todo:
        return results, []
    n_rows = len(todo)
    ends = np.array([(len(log_probs[i]), 2 * len(labels[i]) + 1) for i in todo])
    lattice = np.full((ends[:, 0].max(), 2 * n_rows, ends[:, 1].max() + 2), NEG_INF)
    jump_mask = np.full(lattice.shape[1:], NEG_INF)
    for k, (i, (t, s)) in enumerate(zip(todo, ends.tolist())):
        topology = labels[i]._topology
        lattice[:t, k, 2 : 2 + s] = log_probs[i][:, topology.syms]
        lattice[:t, n_rows + k, 2 : 2 + s] = lattice[t - 1 :: -1, k, 1 + s : 1 : -1]
        jump_mask[k, : s + 2] = topology.skip
        jump_mask[n_rows + k, : s + 2] = topology.skip_reversed
    lattice[0, :, 4:] = NEG_INF

    _recursion(lattice, jump_mask, np.logaddexp)
    last = (ends[:, 0] - 1, np.arange(n_rows))
    log_likes = np.logaddexp(lattice[(*last, ends[:, 1] + 1)], lattice[(*last, ends[:, 1])])
    live = []
    for k, (i, (t, s), log_like) in enumerate(zip(todo, ends.tolist(), log_likes.tolist())):
        if np.isfinite(log_like):
            live.append((i, lattice[:t, k, 2 : 2 + s].T,
                         lattice[t - 1 :: -1, n_rows + k, 1 + s : 1 : -1].T, log_like))
        else:
            results[i] = NoValidPathError("no valid path: zero total path probability")
    return results, live


def _segment_sums(array: np.ndarray, bounds: list[int]) -> np.ndarray:
    """(B, V) column sums of array's row segments; segment j is rows
    bounds[j]:bounds[j + 1]."""
    sums = np.empty((len(bounds) - 1, array.shape[1]))
    for row, lo, hi in zip(sums, bounds, bounds[1:]):
        np.add.reduce(array[lo:hi], axis=0, out=row)
    return sums


def _stacked(logits: list[LogitMatrix], gamma: float) -> tuple[list[int], np.ndarray]:
    """A batch's logits, all of one vocab width, stacked as one (sum T, V)
    array and label-prior-adjusted when gamma is not 0. Returns (row bounds,
    stack); utterance j holds rows bounds[j]:bounds[j + 1].

    A batch of mixed vocab widths raises ValueError naming them. A prior
    that overflows raises NonFiniteError for the first such utterance in
    batch order, at its own frame and vocab.
    """
    widths = sorted({x.n_vocab for x in logits})
    if len(widths) > 1:
        raise ValueError(f"a batch takes one vocab width, got widths {widths}")
    bounds = np.cumsum([0] + [x.n_frames for x in logits]).tolist()
    frames = np.concatenate([x.frames for x in logits])
    if gamma:
        frames = _minus_prior(frames, bounds, gamma)
        if not np.isfinite(frames).all():
            for x, lo, hi in zip(logits, bounds, bounds[1:]):
                _check_finite(x.utt_id, frames[lo:hi])
    return bounds, frames


def ctc_grad_batch(
    logits: list[LogitMatrix], labels: list[LabelSequence], gamma_train: float = 0.0
) -> list[tuple[float, np.ndarray] | NoValidPathError]:
    """CTC losses and gradients w.r.t. raw logits for a batch of utterances
    of one vocab width.

    With gamma_train != 0 the loss is taken on label-prior-adjusted logits
    and the gradient chains through the per-label mean (see prior_ctc_grad).
    Entries are (loss, grad) or the utterance's NoValidPathError.

    The batch's logits are stacked into one (sum T, V) array, so the prior,
    softmax, exp and chain-rule correction each run once over it; each
    utterance's log-probs and returned gradient are row slices of the
    stacked arrays, and one padded recursion fills every lattice.
    """
    if not logits:
        return []
    bounds, frames = _stacked(logits, gamma_train)
    lp = log_softmax_rows(frames)
    # grad[t, v] = softmax(logits)[t, v] - occupancy(v, t); rows sum to zero
    grad = np.exp(lp)
    log_probs = [lp[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    results, live = _forward_backward(log_probs, labels)
    for i, log_alpha, log_beta, log_like in live:
        syms = labels[i]._topology.syms
        post = np.add(log_alpha, log_beta, out=np.empty(log_alpha.shape))
        post -= log_probs[i][:, syms].T
        post -= log_like
        # a column's occupancy: its states' posteriors, added in state order
        occ = np.zeros((grad.shape[1], post.shape[1]))
        np.add.at(occ, syms, np.exp(post, out=post))
        rows = grad[bounds[i] : bounds[i + 1]]
        rows -= occ.T
        results[i] = (-log_like, rows)

    if gamma_train:
        # d/dO[t, v] = g[t, v] - (gamma/T) * sum_t' g[t', v], per utterance
        n_frames = np.diff(bounds)
        sums = _segment_sums(grad, bounds)
        grad -= np.repeat((gamma_train / n_frames)[:, None] * sums, n_frames, axis=0)
    return results


def _single(results: list):
    """The entry of a batch of one, its NoValidPathError raised."""
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def ctc_loss(
    log_probs: np.ndarray, labels: LabelSequence
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """CTC negative log-likelihood of labels under a T x V log-prob matrix.

    Returns (loss, (log_alpha, log_beta)): the forward and backward
    lattices, each a C-contiguous (2U+1, T) array, so that occupancy
    posteriors can be derived without recomputation. Each includes the
    emission at its own frame, so for every frame t
    logsumexp_s(log_alpha[s, t] + log_beta[s, t] - emit[s, t]) == -loss.
    Raises NoValidPathError when labels have no valid path.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    (error,), live = _forward_backward([log_probs], [labels])
    if error is not None:
        raise error
    [(_, log_alpha, log_beta, log_like)] = live
    # copies, C-contiguous, that do not hold on to the padded lattice
    return -log_like, (log_alpha.copy(), log_beta.copy())


def ctc_grad(logits: LogitMatrix, labels: LabelSequence) -> tuple[float, np.ndarray]:
    """CTC loss and its gradient w.r.t. raw logits.

    grad[t, v] = softmax(logits)[t, v] - occupancy(v, t); rows sum to zero.
    """
    return _single(ctc_grad_batch([logits], [labels]))


def _minus_prior(frames: np.ndarray, bounds: list[int], gamma: float) -> np.ndarray:
    """frames minus gamma times each segment's per-label time-mean; segment j
    is rows bounds[j]:bounds[j + 1]. The one form of the label prior."""
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    prior = _segment_sums(frames, bounds)
    n_frames = np.diff(bounds)
    prior /= n_frames[:, None]  # ndarray.mean's own sum and division
    prior *= gamma
    return frames - np.repeat(prior, n_frames, axis=0)


def apply_label_prior(logits: LogitMatrix, gamma: float) -> LogitMatrix:
    """Subtract gamma times the per-label time-mean of the raw logits.

    The prior is computed from the utterance's own frames, one mean per
    vocabulary entry; gamma=0 returns logits itself. Otherwise the result is
    a new LogitMatrix, so a mean that overflows raises NonFiniteError.
    """
    if gamma == 0:
        return logits
    frames = _minus_prior(logits.frames, [0, logits.n_frames], gamma)
    return LogitMatrix(logits.utt_id, frames, logits.frame_ms)


def prior_ctc_grad(
    logits: LogitMatrix, labels: LabelSequence, gamma_train: float
) -> tuple[float, np.ndarray]:
    """CTC loss/grad evaluated on label-prior-adjusted logits.

    The gradient chains through the per-label mean:
    dL/dO[t, v] = g[t, v] - (gamma/T) * sum_t' g[t', v], where g is the
    gradient w.r.t. the adjusted logits.
    """
    return _single(ctc_grad_batch([logits], [labels], gamma_train))


def forced_align(log_probs: np.ndarray, labels: LabelSequence) -> np.ndarray:
    """Viterbi search for the most probable valid CTC path: the (T,) int64
    array of its lattice states, one per frame. Even states emit blank, odd
    state 2u+1 emits labels.tokens[u].

    Ties are resolved at backtrace, from the score lattice, toward entering
    the next token as early as possible: each step takes the first maximum of
    (stay, step, skip), and the final frame prefers the trailing blank.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    syms = _symbols(log_probs, labels)
    mask = labels._topology.skip
    n_frames = len(log_probs)
    # gather the emissions into the lattice itself; mode="clip" writes out
    # directly (_symbols checked the label range), "raise" would buffer it
    lattice = np.empty((n_frames, 1, len(syms) + 2))
    np.take(log_probs, [BLANK_ID, BLANK_ID, *syms], axis=1, out=lattice[:, 0], mode="clip")
    lattice[:, 0, :2] = NEG_INF
    lattice[0, 0, 4:] = NEG_INF
    score = _recursion(lattice, mask[None], np.maximum)[:, 0]

    if not (np.isfinite(score[-1, -1]) or np.isfinite(score[-1, -2])):
        raise NoValidPathError("no valid path: final states unreachable")
    state = len(syms) - 1 if score[-1, -1] >= score[-1, -2] else len(syms) - 2
    states = np.empty(n_frames, dtype=np.int64)
    states[-1] = state
    # back-trace over Python floats: a flat view of the C-contiguous lattice
    # holds state s of frame t at t * width + s + 2. Where the mask is 0 the
    # skip term prev + 0.0 equals prev, elsewhere it is -inf and never wins.
    width = len(syms) + 2
    flat = lattice.reshape(-1).data
    skippable = (mask[2:] == 0).tolist()
    for t in range(n_frames - 2, -1, -1):
        i = t * width + state
        stay, step = flat[i + 2], flat[i + 1]
        if skippable[state] and flat[i] > stay and flat[i] > step:
            state -= 2
        elif step > stay:
            state -= 1
        states[t] = state
    return states


def token_spans(states: np.ndarray, labels: LabelSequence, posteriors: np.ndarray) -> np.ndarray:
    """Per-token frames read off forced_align's states of labels: a (3, U)
    int64 array whose rows are the start, end and peak frame of each token.

    start/end bound the frames spent in the token's emitting state; the peak
    is the within-span argmax of the token's posterior (first frame on ties).
    The path must never return to an earlier state; being sorted, it gives
    every token's frames by binary search.
    """
    posteriors = np.asarray(posteriors)
    states = np.asarray(states)
    back = np.flatnonzero(states[1:] < states[:-1])
    if len(back):
        raise ValueError(f"path state decreases at frame {back[0] + 1}; not a valid alignment")
    odd = np.arange(1, 2 * len(labels), 2)
    starts = np.searchsorted(states, odd, side="left")
    stops = np.searchsorted(states, odd, side="right")
    unvisited = np.flatnonzero(starts == stops)
    if len(unvisited):
        raise ValueError(f"path never visits token {unvisited[0]}; not a valid alignment")
    peaks = [start + posteriors[start:stop, token].argmax()
             for token, start, stop in zip(labels.tokens, starts.tolist(), stops.tolist())]
    return np.array((starts, stops - 1, peaks), dtype=np.int64)


def align_spans(logits: LogitMatrix, labels: LabelSequence, gamma_inf: float) -> np.ndarray:
    """Token spans of the Viterbi path under label-prior-adjusted posteriors,
    as token_spans' (3, U) array of start, end and peak frames.

    The one alignment chain: apply_label_prior, log_softmax_rows,
    forced_align, then token_spans with the adjusted posteriors picking the
    peaks. gamma_inf=0 aligns the plain posteriors. Raises NoValidPathError
    as forced_align does.
    """
    log_probs = log_softmax_rows(apply_label_prior(logits, gamma_inf).frames)
    return token_spans(forced_align(log_probs, labels), labels, np.exp(log_probs))
