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

from dataclasses import dataclass

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
    in milliseconds.
    """

    utt_id: str
    frames: np.ndarray
    frame_ms: float

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ValueError(f"{self.utt_id}: frames must be 2-D, got shape {self.frames.shape}")
        t, v = self.frames.shape
        if t < 1 or v < 2:
            raise ValueError(f"{self.utt_id}: need T >= 1 and V >= 2, got T={t}, V={v}")
        if not (self.frame_ms > 0):
            raise ValueError(f"{self.utt_id}: frame_ms must be positive, got {self.frame_ms}")
        _check_finite(self.frames, self.utt_id)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_vocab(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class LabelSequence:
    """Token id sequence; ids live in [1, V-1], blank (0) is never a label."""

    tokens: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))
        if len(self.tokens) < 1:
            raise ValueError("label sequence must contain at least one token")
        if any(t < 1 for t in self.tokens):
            raise ValueError(f"labels must be >= 1 (0 is the blank id), got {self.tokens}")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def n_repeats(self) -> int:
        """Count of adjacent equal labels; each one forces a mandatory blank."""
        return sum(1 for a, b in zip(self.tokens, self.tokens[1:]) if a == b)


@dataclass(eq=False)
class CtcLattice:
    """Forward/backward log-domain lattices, both of shape (2U+1) x T.

    alpha and beta each include the emission term at their own frame, so the
    per-frame consistency identity reads
    logsumexp_s(alpha[s,t] + beta[s,t] - emit[s,t]) == log_likelihood.
    """

    log_alpha: np.ndarray
    log_beta: np.ndarray
    log_likelihood: float


@dataclass(eq=False)
class AlignmentPath:
    """Length-T sequence of lattice states for one utterance.

    Even states emit blank, odd state 2u+1 emits labels.tokens[u].
    """

    states: np.ndarray
    labels: LabelSequence


@dataclass(frozen=True)
class TokenSpan:
    """Frame extent of one label token on an alignment path."""

    token_index: int
    start_frame: int
    end_frame: int
    peak_frame: int

    def __post_init__(self):
        if not (self.start_frame <= self.peak_frame <= self.end_frame):
            raise ValueError(
                f"token {self.token_index}: need start <= peak <= end, got "
                f"({self.start_frame}, {self.peak_frame}, {self.end_frame})"
            )


def _check_finite(frames: np.ndarray, utt_id: str = "<input>") -> None:
    if not np.isfinite(frames).all():
        bad = np.argwhere(~np.isfinite(np.asarray(frames)))
        t, v = bad[0]
        raise NonFiniteError(utt_id, int(t), int(v))


def log_softmax_rows(logits: LogitMatrix | np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a T x V score matrix."""
    frames = logits.frames if isinstance(logits, LogitMatrix) else np.asarray(logits, dtype=np.float64)
    _check_finite(frames, logits.utt_id if isinstance(logits, LogitMatrix) else "<input>")
    shifted = frames - frames.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _state_symbols(labels: LabelSequence) -> np.ndarray:
    """Vocab id emitted by each of the 2U+1 states."""
    syms = np.full(2 * len(labels) + 1, BLANK_ID, dtype=np.int64)
    syms[1::2] = labels.tokens
    return syms


def _skip_mask(syms: np.ndarray) -> np.ndarray:
    """Additive mask: 0 where s-2 -> s is legal (distinct labels), else -inf."""
    mask = np.full(len(syms), NEG_INF)
    mask[3::2][syms[3::2] != syms[1:-2:2]] = 0.0
    return mask


def _check_path_exists(n_frames: int, labels: LabelSequence) -> None:
    needed = len(labels) + labels.n_repeats
    if n_frames < needed:
        raise NoValidPathError(
            f"no valid path: T={n_frames} < U + repeats = {needed} "
            f"for labels of length {len(labels)}"
        )


def _recursion(lattice: np.ndarray, jump_mask: np.ndarray, combine) -> np.ndarray:
    """Fill a (T, R, S + 2) lattice in place, given (R, S) skip masks.

    The lattice arrives holding its own emissions: state s of row r at frame
    t sits in column s + 2, the two leading columns and all padding are -inf,
    and at frame 0 only states 0 and 1 are finite. Each later cell becomes
    emit + combine(combine(stay, step), skip): np.logaddexp sums over paths,
    np.maximum keeps the best. The leading -inf columns turn the s-1 and s-2
    predecessors into views.
    """
    best = np.empty(jump_mask.shape)
    jump = np.empty(jump_mask.shape)
    for t in range(1, len(lattice)):
        prev, cur = lattice[t - 1], lattice[t, :, 2:]
        combine(prev[:, 2:], prev[:, 1:-1], out=best)
        np.add(prev[:, :-2], jump_mask, out=jump)
        combine(best, jump, out=best)
        cur += best
    return lattice


def _lattices(
    log_probs: list[np.ndarray], syms: list[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Forward and backward lattices of a batch from one padded recursion.

    log_probs[i] is utterance i's T_i x V log-prob matrix and syms[i] the
    vocab id of each of its S_i states. Each utterance fills two rows of one
    (T_max, 2B, S_max + 2) lattice: itself, and a copy reversed in both
    states and time, whose forward recursion is the backward one. Emissions
    are written straight into those rows. Padding is -inf and only ever
    feeds padded cells (higher states, later frames), so every real cell is
    computed by the same operations as an unpadded single-utterance
    recursion. Returns one (alpha, beta) pair of S_i x T_i arrays per
    utterance, copied out so that a kept result does not hold on to the
    whole batch.
    """
    n_utts = len(log_probs)
    n_frames = max(len(lp) for lp in log_probs)
    n_states = max(len(sym) for sym in syms)
    lattice = np.full((n_frames, 2 * n_utts, n_states + 2), NEG_INF)
    jump_mask = np.full((2 * n_utts, n_states), NEG_INF)
    for i, (lp, sym) in enumerate(zip(log_probs, syms)):
        t_i, s_i = len(lp), len(sym)
        lattice[:t_i, i, 2 : 2 + s_i] = lp[:, sym]
        lattice[:t_i, n_utts + i, 2 : 2 + s_i] = lattice[t_i - 1 :: -1, i, 1 + s_i : 1 : -1]
        mask = _skip_mask(sym)
        jump_mask[i, :s_i] = mask
        # reversed row r = S-1-s takes the backward s+2 -> s term, legal when mask[s+2] is 0
        jump_mask[n_utts + i, 2:s_i] = mask[:1:-1]
    lattice[0, :, 4:] = NEG_INF

    _recursion(lattice, jump_mask, np.logaddexp)
    out = []
    for i, (lp, sym) in enumerate(zip(log_probs, syms)):
        t_i, s_i = len(lp), len(sym)
        alpha = np.ascontiguousarray(lattice[:t_i, i, 2 : 2 + s_i].T)
        beta = np.ascontiguousarray(lattice[:t_i, n_utts + i, 2 : 2 + s_i][::-1, ::-1].T)
        out.append((alpha, beta))
    return out


def ctc_loss_batch(
    log_probs: list[np.ndarray], labels: list[LabelSequence]
) -> list[tuple[float, CtcLattice] | NoValidPathError]:
    """CTC negative log-likelihoods of a batch of utterances.

    Runs one padded forward-backward recursion over the whole batch. Each
    entry is (loss, lattice) as from ctc_loss, or the NoValidPathError of an
    utterance that has no valid path; the other utterances are unaffected.
    """
    results: list = [None] * len(log_probs)
    todo = []
    for i, (lp, lab) in enumerate(zip(log_probs, labels, strict=True)):
        lp = np.asarray(lp, dtype=np.float64)
        n_frames, n_vocab = lp.shape
        if max(lab.tokens) >= n_vocab:
            raise ValueError(f"label id {max(lab.tokens)} out of range for V={n_vocab}")
        try:
            _check_path_exists(n_frames, lab)
        except NoValidPathError as err:
            results[i] = err
            continue
        todo.append((i, lp, _state_symbols(lab)))
    if todo:
        lattices = _lattices([lp for _, lp, _ in todo], [syms for _, _, syms in todo])
        for (i, _, _), (alpha, beta) in zip(todo, lattices):
            log_like = float(np.logaddexp(alpha[-1, -1], alpha[-2, -1]))
            if np.isfinite(log_like):
                results[i] = (-log_like, CtcLattice(alpha, beta, log_like))
            else:
                results[i] = NoValidPathError("no valid path: zero total path probability")
    return results


def ctc_grad_batch(
    logits: list[LogitMatrix], labels: list[LabelSequence], gamma_train: float = 0.0
) -> list[tuple[float, np.ndarray] | NoValidPathError]:
    """CTC losses and gradients w.r.t. raw logits for a batch of utterances.

    With gamma_train != 0 the loss is taken on label-prior-adjusted logits
    and the gradient chains through the per-label mean (see prior_ctc_grad).
    Entries are (loss, grad) or the utterance's NoValidPathError.
    """
    if gamma_train:
        logits = [apply_label_prior(x, gamma_train) for x in logits]
    log_probs = [log_softmax_rows(x) for x in logits]
    results = ctc_loss_batch(log_probs, labels)
    for i, (lp, lab, result) in enumerate(zip(log_probs, labels, results, strict=True)):
        if isinstance(result, NoValidPathError):
            continue
        loss, lattice = result
        # grad[t, v] = softmax(logits)[t, v] - occupancy(v, t); rows sum to zero
        syms = _state_symbols(lab)
        joint = lattice.log_alpha + lattice.log_beta - lp[:, syms].T
        state_post = np.exp(joint - lattice.log_likelihood)
        occ = np.zeros_like(lp)
        np.add.at(occ.T, syms, state_post)
        g = np.exp(lp) - occ
        if gamma_train:
            g = g - (gamma_train / lp.shape[0]) * g.sum(axis=0, keepdims=True)
        results[i] = (loss, g)
    return results


def _single(results: list):
    """The entry of a batch of one, its NoValidPathError raised."""
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def ctc_loss(log_probs: np.ndarray, labels: LabelSequence) -> tuple[float, CtcLattice]:
    """CTC negative log-likelihood of labels under a T x V log-prob matrix.

    Returns the loss together with the full forward/backward lattice so that
    occupancy posteriors can be derived without recomputation.
    """
    return _single(ctc_loss_batch([log_probs], [labels]))


def ctc_grad(logits: LogitMatrix, labels: LabelSequence) -> tuple[float, np.ndarray]:
    """CTC loss and its gradient w.r.t. raw logits.

    grad[t, v] = softmax(logits)[t, v] - occupancy(v, t); rows sum to zero.
    """
    return _single(ctc_grad_batch([logits], [labels]))


def apply_label_prior(logits: LogitMatrix, gamma: float) -> LogitMatrix:
    """Subtract gamma times the per-label time-mean of the raw logits.

    The prior is computed from the utterance's own frames, one mean per
    vocabulary entry; gamma=0 is the identity.
    """
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    prior = logits.frames.mean(axis=0, keepdims=True)
    return LogitMatrix(logits.utt_id, logits.frames - gamma * prior, logits.frame_ms)


def prior_ctc_grad(
    logits: LogitMatrix, labels: LabelSequence, gamma_train: float
) -> tuple[float, np.ndarray]:
    """CTC loss/grad evaluated on label-prior-adjusted logits.

    The gradient chains through the per-label mean:
    dL/dO[t, v] = g[t, v] - (gamma/T) * sum_t' g[t', v], where g is the
    gradient w.r.t. the adjusted logits.
    """
    return _single(ctc_grad_batch([logits], [labels], gamma_train))


def forced_align(log_probs: np.ndarray, labels: LabelSequence) -> AlignmentPath:
    """Viterbi search for the most probable valid CTC path.

    Ties are resolved at backtrace, from the score lattice, toward entering
    the next token as early as possible: each step takes the first maximum of
    (stay, step, skip), and the final frame prefers the trailing blank.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    n_frames, n_vocab = log_probs.shape
    if max(labels.tokens) >= n_vocab:
        raise ValueError(f"label id {max(labels.tokens)} out of range for V={n_vocab}")
    _check_path_exists(n_frames, labels)

    syms = _state_symbols(labels)
    mask = _skip_mask(syms)
    # gather the emissions into the lattice itself; mode="clip" writes out
    # directly (the label range is checked above), "raise" would buffer it
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
    for t in range(n_frames - 1, 0, -1):
        prev = score[t - 1]
        candidates = (prev[state + 2], prev[state + 1], prev[state] + mask[state])
        state -= candidates.index(max(candidates))
        states[t - 1] = state
    return AlignmentPath(states, labels)


def token_spans(path: AlignmentPath, posteriors: np.ndarray) -> list[TokenSpan]:
    """Per-token (start, end, peak) frames read off an alignment path.

    start/end bound the frames spent in the token's emitting state; the peak
    is the within-span argmax of the token's posterior (first frame on ties).
    """
    posteriors = np.asarray(posteriors)
    spans = []
    for u, token in enumerate(path.labels.tokens):
        frames = np.flatnonzero(path.states == 2 * u + 1)
        if len(frames) == 0:
            raise ValueError(f"path never visits token {u}; not a valid alignment")
        start, end = int(frames[0]), int(frames[-1])
        peak = start + int(np.argmax(posteriors[start : end + 1, token]))
        spans.append(TokenSpan(u, start, end, peak))
    return spans


def align_spans(logits: LogitMatrix, labels: LabelSequence, gamma_inf: float) -> list[TokenSpan]:
    """Token spans of the Viterbi path under label-prior-adjusted posteriors.

    The one alignment chain: apply_label_prior, log_softmax_rows,
    forced_align, then token_spans with the adjusted posteriors picking the
    peaks. gamma_inf=0 aligns the plain posteriors. Raises NoValidPathError
    as forced_align does.
    """
    log_probs = log_softmax_rows(apply_label_prior(logits, gamma_inf))
    return token_spans(forced_align(log_probs, labels), np.exp(log_probs))
