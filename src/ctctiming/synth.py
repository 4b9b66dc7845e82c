"""Synthetic corpus generation and a small trainable frame-level classifier.

The generator lays out wordpiece spans separated by silence gaps, emits a
token-specific mean vector plus Gaussian noise on every frame, and keeps the
construction as ground-truth word timings. Two feature streams are produced:
the raw frames (local, sharp) and a moving-average of them (utterance-level
context with smeared boundaries), so classifiers can be trained on the
smoothed stream alone or on both concatenated.

The classifier is a two-hidden-layer tanh network trained with manual
backpropagation and plain SGD; training methods cover plain CTC, CTC with a
label prior, guided cross-entropy retargeting, and the peak regularizer.
"""
from __future__ import annotations

import logging
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .boundary import (
    CetcParams,
    WordMap,
    WordTimes,
    cetc_boundaries,
    cetc_guided_targets,
    gridsearch_offset,
    guided_ce_grad,
    words_from_spans,
)
from .ctc import (
    LabelSequence,
    LogitMatrix,
    NonFiniteError,
    NoValidPathError,
    _integer,
    align_spans,
    ctc_grad_batch,
    log_softmax_rows,
)
from .metrics import blank_occupancy, peak_histogram, peak_items, timing_metrics
from .pfr import PfrParams, pfr_loss_grad

log = logging.getLogger(__name__)

FRAME_MS = 10.0

# token means are pulled toward the silence mean by this factor; full
# separation makes every method trivially accurate, full overlap makes the
# task unlearnable -- 0.6 keeps the blank/token race competitive
TOKEN_SILENCE_PULL = 0.6

METHODS = ("peaky", "npc", "cetc", "pfr")


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class CorpusSpec:
    """Layout and randomness knobs for one synthetic corpus.

    All (lo, hi) ranges are inclusive; the seed fully determines the corpus.
    """

    n_utts: int = 48
    vocab_size: int = 8
    pieces_per_word: tuple[int, int] = (1, 3)
    words_per_utt: tuple[int, int] = (2, 4)
    span_frames: tuple[int, int] = (3, 8)
    gap_frames: tuple[int, int] = (2, 4)
    feature_dim: int = 8
    noise_sigma: float = 0.5
    context_window: int = 6
    seed: int = 20240601

    def __post_init__(self):
        for name in ("n_utts", "vocab_size", "feature_dim", "context_window", "seed"):
            setattr(self, name, _integer(getattr(self, name), name))
        # features are stored in the logits format, which needs two columns
        for name, least in (("n_utts", 1), ("vocab_size", 2), ("feature_dim", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"need {name} >= {least}, got {getattr(self, name)}")
        for name in ("pieces_per_word", "words_per_utt", "span_frames", "gap_frames"):
            lo, hi = (_integer(x, name) for x in getattr(self, name))
            setattr(self, name, (lo, hi))
            if not 0 < lo <= hi:
                raise ValueError(f"{name}: invalid range ({lo}, {hi})")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.context_window < 1:
            raise ValueError("context_window must be >= 1")


@dataclass(eq=False)
class SynthUtterance:
    """One generated utterance with ground-truth alignment."""

    utt_id: str
    features_lo: np.ndarray
    features_hi: np.ndarray
    labels: LabelSequence
    word_map: WordMap
    ref_timings: WordTimes

    @property
    def n_frames(self) -> int:
        return self.features_lo.shape[0]


def _moving_average(frames: np.ndarray, window: int) -> np.ndarray:
    """Boundary-clipped running mean; even windows take the extra frame
    from the future side (encoder lookahead analog)."""
    n = frames.shape[0]
    back = (window - 1) // 2
    ahead = window // 2
    csum = np.vstack([np.zeros((1, frames.shape[1])), np.cumsum(frames, axis=0)])
    lo = np.maximum(np.arange(n) - back, 0)
    hi = np.minimum(np.arange(n) + ahead + 1, n)
    return (csum[hi] - csum[lo]) / (hi - lo)[:, None]


def token_text(token_id: int) -> str:
    return f"t{token_id}"


def word_text(piece_ids: list[int]) -> str:
    return "-".join(token_text(p) for p in piece_ids)


def generate_corpus(spec: CorpusSpec) -> list[SynthUtterance]:
    """Deterministically generate a corpus from its spec."""
    rng = np.random.default_rng(spec.seed)
    means = rng.normal(size=(spec.vocab_size + 1, spec.feature_dim))
    means[1:] = means[0] + TOKEN_SILENCE_PULL * (means[1:] - means[0])

    def draw(bounds: tuple[int, int]) -> int:
        return int(rng.integers(bounds[0], bounds[1] + 1))

    utts = []
    for i in range(spec.n_utts):
        pieces: list[int] = []
        words = []
        for _ in range(draw(spec.words_per_utt)):
            first = len(pieces)
            for _ in range(draw(spec.pieces_per_word)):
                tok = draw((1, spec.vocab_size))
                while pieces and tok == pieces[-1]:
                    tok = draw((1, spec.vocab_size))
                pieces.append(tok)
            words.append((word_text(pieces[first:]), first, len(pieces) - 1))

        # one frame id per frame, 0 for silence: a gap before every word and
        # after the last, each piece's span (start and end frame) right after
        # the previous one
        ids: list[int] = []
        spans = []
        for _, first, last in words:
            ids += [0] * draw(spec.gap_frames)
            for u in range(first, last + 1):
                n = draw(spec.span_frames)
                spans.append((len(ids), len(ids) + n - 1))
                ids += [pieces[u]] * n
        ids += [0] * draw(spec.gap_frames)

        clean = means[ids]
        features_lo = clean + spec.noise_sigma * rng.normal(size=clean.shape)
        word_map = WordMap(tuple(words))
        utts.append(
            SynthUtterance(
                utt_id=f"synth-{i:04d}",
                features_lo=features_lo,
                features_hi=_moving_average(features_lo, spec.context_window),
                labels=LabelSequence(tuple(pieces)),
                word_map=word_map,
                ref_timings=words_from_spans(
                    np.array(spans).T, word_map, FRAME_MS, n_frames=len(ids)
                ),
            )
        )
    return utts


# split_corpus's default, the sweeps' split: every fifth utterance is held out
HOLDOUT_EVERY = 5


def split_corpus(
    corpus: list[SynthUtterance], holdout_every: int = HOLDOUT_EVERY
) -> tuple[list[SynthUtterance], list[SynthUtterance]]:
    """Deterministic train/heldout split: every holdout_every-th utterance
    is held out."""
    train = [u for i, u in enumerate(corpus) if i % holdout_every != holdout_every - 1]
    held = [u for i, u in enumerate(corpus) if i % holdout_every == holdout_every - 1]
    return train, held


@dataclass(eq=False)
class Classifier:
    """Two-hidden-layer tanh network mapping frame features to vocab logits."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    version: int = 0
    PARAMS: ClassVar[tuple[str, ...]] = ("w1", "b1", "w2", "b2", "w3", "b3")

    @classmethod
    def init(cls, input_dim: int, hidden: int, n_classes: int, seed: int) -> "Classifier":
        rng = np.random.default_rng(seed)
        def layer(n_in, n_out):
            return rng.normal(scale=1.0 / np.sqrt(n_in), size=(n_in, n_out))
        return cls(
            w1=layer(input_dim, hidden), b1=np.zeros(hidden),
            w2=layer(hidden, hidden), b2=np.zeros(hidden),
            w3=0.1 * layer(hidden, n_classes), b3=np.zeros(n_classes),
        )

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def n_classes(self) -> int:
        return self.w3.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.PARAMS}

    def save(self, path: str | Path) -> None:
        """Write the parameters to exactly path as an .npz archive."""
        with open(path, "wb") as handle:  # given a name, np.savez would add ".npz" to it
            np.savez(handle, **self.params())

    @classmethod
    def load(cls, path: str | Path) -> "Classifier":
        """The classifier that save wrote to path. A file that is not an .npz
        archive holding all six parameters raises ValueError naming path."""
        with open(path, "rb") as handle:  # closed here: the archive does not own it
            try:
                data = np.load(handle)  # a pickle raises ValueError: allow_pickle is off
                # an .npy file gives a bare array, which has no files
                missing = [name for name in cls.PARAMS if name not in getattr(data, "files", ())]
                if not missing:
                    return cls(**{name: data[name].copy() for name in cls.PARAMS})
            except (ValueError, EOFError, zipfile.BadZipFile) as err:
                # numpy's message for a pickle would advise unpickling the file
                raise ValueError(f"{path}: not a saved classifier: no .npz archive") from err
        raise ValueError(f"{path}: not a saved classifier: no {', '.join(missing)} in it")

    def apply_update(self, grads: dict[str, np.ndarray], learning_rate: float) -> None:
        for name, param in self.params().items():
            param -= learning_rate * grads[name]
        self.version += 1


def model_forward(
    clf: Classifier, features: np.ndarray, utt_id: str = "<utt>"
) -> tuple[LogitMatrix, dict]:
    """Forward pass returning logits plus the activation cache for backward."""
    if features.ndim != 2 or features.shape[1] != clf.input_dim:
        raise ValueError(
            f"{utt_id}: input dim {features.shape} does not match classifier "
            f"input dim {clf.input_dim}"
        )
    a1 = np.tanh(features @ clf.w1 + clf.b1)
    a2 = np.tanh(a1 @ clf.w2 + clf.b2)
    logits = a2 @ clf.w3 + clf.b3
    cache = {"x": features, "a1": a1, "a2": a2, "version": clf.version}
    return LogitMatrix(utt_id, logits, FRAME_MS), cache


def model_backward(clf: Classifier, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of the forward chain w.r.t. parameters."""
    if cache["version"] != clf.version:
        raise ValueError("stale cache: classifier was updated after the forward pass")
    x, a1, a2 = cache["x"], cache["a1"], cache["a2"]
    da2 = dlogits @ clf.w3.T
    dz2 = da2 * (1.0 - a2 * a2)
    da1 = dz2 @ clf.w2.T
    dz1 = da1 * (1.0 - a1 * a1)
    return {
        "w3": a2.T @ dlogits, "b3": dlogits.sum(axis=0),
        "w2": a1.T @ dz2, "b2": dz2.sum(axis=0),
        "w1": x.T @ dz1, "b1": dz1.sum(axis=0),
    }


# settings that only some methods read; the rest apply to every method
METHOD_KEYS = {
    "gamma_train": ("npc", "pfr"),
    "alpha_left": ("cetc",), "alpha_right": ("cetc",), "beta": ("cetc",),
    "lambda_pfr": ("pfr",), "mu": ("pfr",), "tau": ("pfr",),
}


@dataclass
class TrainConfig:
    """Trainer settings; method picks the loss, the rest are shared knobs.

    The METHOD_KEYS settings default to None, "not given", and one that the
    method does not read is refused. gamma_train defaults to 0.25 for npc and
    pfr; cetc and pfr get their params from the settings given.
    """

    method: str
    gamma_train: float | None = None
    alpha_left: float | None = None
    alpha_right: float | None = None
    beta: float | None = None
    lambda_pfr: float | None = None
    mu: int | None = None
    tau: float | None = None
    fuse_features: bool = False
    hidden: int = 64
    epochs: int = 150
    batch_size: int = 64
    learning_rate: float = 0.1
    seed: int = 7
    cetc: CetcParams | None = field(init=False, default=None)
    pfr: PfrParams | None = field(init=False, default=None)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        for name in ("hidden", "epochs", "batch_size", "seed"):
            setattr(self, name, _integer(getattr(self, name), name))
        if self.mu is not None:
            self.mu = _integer(self.mu, "mu")
        given = {k: v for k in METHOD_KEYS if (v := getattr(self, k)) is not None}
        for key in given:
            if self.method not in METHOD_KEYS[key]:
                raise ValueError(f"{key} does not apply to method {self.method!r} "
                                 f"(only to {', '.join(METHOD_KEYS[key])})")
        for key, value in {**given, "learning_rate": self.learning_rate}.items():
            if not np.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if self.method == "pfr" and self.lambda_pfr is None:
            raise ValueError("method 'pfr' requires lambda_pfr (it has no default)")
        if self.epochs < 1 or self.batch_size < 1 or self.hidden < 1:
            raise ValueError("epochs, batch_size and hidden must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.method == "cetc":
            self.cetc = CetcParams(**given)
        elif self.method == "pfr":
            self.pfr = PfrParams(**{k: v for k, v in given.items() if k != "gamma_train"})
        if self.method in ("npc", "pfr") and self.gamma_train is None:
            self.gamma_train = 0.25


@dataclass
class EpochStats:
    stage: str
    epoch: int
    mean_loss: float


def inputs_for(clf: Classifier, utt: SynthUtterance) -> np.ndarray:
    """Classifier input, told apart by its width: the smoothed stream, or
    the smoothed stream fused with the raw one."""
    d = utt.features_lo.shape[1]
    if clf.input_dim == d:
        return utt.features_hi
    if clf.input_dim == 2 * d:
        return np.concatenate([utt.features_hi, utt.features_lo], axis=1)
    raise ValueError(
        f"classifier input dim {clf.input_dim} matches neither {d} nor {2 * d}"
    )


def corpus_blank_occupancy(clf: Classifier, corpus: list[SynthUtterance]) -> float:
    """Mean fraction of blank-dominant frames under the plain posteriors."""
    values = []
    for utt in corpus:
        logits, _ = model_forward(clf, inputs_for(clf, utt), utt.utt_id)
        values.append(blank_occupancy(np.exp(log_softmax_rows(logits.frames))))
    return float(np.mean(values))


def _sgd_epochs(
    clf: Classifier,
    corpus: list[SynthUtterance],
    loss_and_grad,
    config: TrainConfig,
    rng: np.random.Generator,
    stage: str,
    log_records: list[EpochStats],
) -> None:
    """Minibatch SGD. loss_and_grad maps a batch's logits and utterances to
    one (loss, dlogits) or NoValidPathError per utterance; utterances with
    no valid path are skipped (warned about once) and the rest of the batch
    still updates the model."""
    skipped: set[str] = set()
    for epoch in range(config.epochs):
        order = rng.permutation(len(corpus))
        losses = []
        for b, lo in enumerate(range(0, len(order), config.batch_size)):
            batch = [corpus[i] for i in order[lo : lo + config.batch_size]]
            try:
                forwards = [
                    model_forward(clf, inputs_for(clf, utt), utt.utt_id) for utt in batch
                ]
                results = loss_and_grad([logits for logits, _ in forwards], batch)
            except NonFiniteError as err:
                raise TrainingDivergedError(
                    f"diverged on {err.utt_id} (epoch {epoch}, batch {b}): {err}"
                ) from err
            grads = None
            n_used = 0
            for utt, (_, cache), result in zip(batch, forwards, results):
                if isinstance(result, NoValidPathError):
                    if utt.utt_id not in skipped:
                        log.warning("skipping %s: %s", utt.utt_id, result)
                        skipped.add(utt.utt_id)
                    continue
                loss, dlogits = result
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss on {utt.utt_id} (epoch {epoch}, batch {b})"
                    )
                losses.append(loss)
                utt_grads = model_backward(clf, cache, dlogits)
                if grads is None:
                    grads = utt_grads
                else:
                    for k in grads:
                        grads[k] += utt_grads[k]
                n_used += 1
            if grads is not None:
                for k in grads:
                    grads[k] /= n_used
                clf.apply_update(grads, config.learning_rate)
                if not all(np.isfinite(v).all() for v in clf.params().values()):
                    raise TrainingDivergedError(
                        f"non-finite parameters after epoch {epoch}, batch {b}"
                    )
        log_records.append(
            EpochStats(stage, epoch, float(np.mean(losses)) if losses else float("nan"))
        )


def _align_corpus(
    clf: Classifier, corpus: list[SynthUtterance], gamma_inf: float
) -> dict[SynthUtterance, np.ndarray]:
    """Token spans (align_spans' (3, U) arrays) of every utterance with a
    valid path, in corpus order.

    Utterances with no valid path are skipped with one warning each.
    """
    aligned = {}
    for utt in corpus:
        logits, _ = model_forward(clf, inputs_for(clf, utt), utt.utt_id)
        try:
            aligned[utt] = align_spans(logits, utt.labels, gamma_inf)
        except NoValidPathError as err:
            log.warning("skipping %s: %s", utt.utt_id, err)
    return aligned


def _word_timings(aligned: dict, offset_ms: float = 0.0) -> dict[str, WordTimes]:
    return {
        utt.utt_id: words_from_spans(
            spans, utt.word_map, FRAME_MS, offset_ms, n_frames=utt.n_frames
        )
        for utt, spans in aligned.items()
    }


def cetc_targets(
    clf: Classifier, corpus: list[SynthUtterance], params: CetcParams
) -> dict[str, np.ndarray]:
    """Guided targets, one T x clf.n_classes array per utterance, from the
    peaks of a trained classifier's plain (prior-free) forced alignment.

    Utterances with no valid alignment path are skipped with a warning.
    """
    targets: dict[str, np.ndarray] = {}
    for utt, spans in _align_corpus(clf, corpus, 0.0).items():
        peaks = spans[2]
        bounds = cetc_boundaries(peaks, utt.n_frames, params)
        targets[utt.utt_id] = cetc_guided_targets(
            utt.labels, peaks, bounds, params.beta, utt.n_frames, clf.n_classes
        )
    return targets


def train(
    config: TrainConfig, corpus: list[SynthUtterance], n_classes: int
) -> tuple[Classifier, list[EpochStats]]:
    """Train a classifier of n_classes outputs (the vocabulary, blank
    included) on the corpus with the configured method.

    peaky: plain CTC. npc: CTC on label-prior-adjusted logits. pfr: the npc
    loss plus the weighted peak regularizer. cetc: a peaky first stage whose
    forced-aligned peaks are expanded into guided targets that retrain a
    fresh classifier with cross-entropy.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    input_dim = corpus[0].features_lo.shape[1] * (2 if config.fuse_features else 1)
    rng = np.random.default_rng(config.seed)
    clf = Classifier.init(input_dim, config.hidden, n_classes, config.seed)
    records: list[EpochStats] = []

    # the CTC loss of peaky, npc, pfr and cetc stage 1; unset gamma_train is plain CTC
    def loss_and_grad(logits: list[LogitMatrix], utts: list[SynthUtterance]):
        results = ctc_grad_batch(logits, [utt.labels for utt in utts], config.gamma_train or 0.0)
        if config.pfr is None:
            return results
        lam = config.pfr.lambda_pfr
        for i, (x, r) in enumerate(zip(logits, results)):
            if not isinstance(r, NoValidPathError):
                pfr_loss, pfr_grad = pfr_loss_grad(x, config.pfr)
                results[i] = (r[0] + lam * pfr_loss, r[1] + lam * pfr_grad)
        return results

    if config.method != "cetc":
        _sgd_epochs(clf, corpus, loss_and_grad, config, rng, config.method, records)
        return clf, records

    # cetc: stage 2 retrains a fresh classifier on guided targets
    _sgd_epochs(clf, corpus, loss_and_grad, config, rng, "cetc-stage1", records)

    targets = cetc_targets(clf, corpus, config.cetc)
    if not targets:
        raise TrainingDivergedError("cetc: no utterance produced guided targets")

    clf2 = Classifier.init(input_dim, config.hidden, n_classes, config.seed + 1)

    def stage2_loss(logits: list[LogitMatrix], utts: list[SynthUtterance]):
        return [
            guided_ce_grad(x, targets[utt.utt_id]) if utt.utt_id in targets
            else NoValidPathError(f"{utt.utt_id} has no guided targets")
            for x, utt in zip(logits, utts)
        ]

    _sgd_epochs(clf2, corpus, stage2_loss, config, rng, "cetc-stage2", records)
    return clf2, records


def predict_timings(
    clf: Classifier,
    corpus: list[SynthUtterance],
    gamma_inf: float,
    offset_ms: float = 0.0,
) -> dict[str, WordTimes]:
    """Forced-alignment word timings for every utterance (oracle transcript).

    Utterances with no valid path are skipped with a warning and omitted.
    """
    return _word_timings(_align_corpus(clf, corpus, gamma_inf), offset_ms)


def reference_timings(corpus: list[SynthUtterance]) -> dict[str, WordTimes]:
    return {utt.utt_id: utt.ref_timings for utt in corpus}


def pfr_corpus_spec() -> CorpusSpec:
    """Corpus preset for the peak-regularizer sweep.

    Longer piece chains carry the frame-to-frame imitation pressure and a
    wider context window widens the boundary ramps it acts on.
    """
    return CorpusSpec(pieces_per_word=(2, 4), context_window=8)


# offset search protocol shared by the sweeps: reference times are quantized
# to the 10 ms frame, so the threshold sits half a frame above the quantum
# (the score then counts whole error bins instead of aliasing against them)
OFFSET_RANGE = (-100.0, 100.0)
OFFSET_STEP = 10.0
OFFSET_THRESHOLD = 15.0


def _sweep_scores(
    clf: Classifier,
    corpus: list[SynthUtterance],
    heldout: list[SynthUtterance],
    gamma_inf: float,
    thresholds: tuple[float, ...],
) -> dict:
    """One alignment of the corpus gives the held-out report (heldout is a
    subset of corpus), the offset search and the peak histogram."""
    aligned = _align_corpus(clf, corpus, gamma_inf)
    pred = _word_timings(aligned)
    report = timing_metrics(pred, reference_timings(heldout), list(thresholds))
    offset, _, _ = gridsearch_offset(
        pred, reference_timings(corpus), OFFSET_RANGE, OFFSET_STEP, OFFSET_THRESHOLD
    )
    items = [peak_items(spans, utt.word_map, utt.ref_timings, FRAME_MS)
             for utt, spans in aligned.items()]
    hist = peak_histogram(items, 10, (-1.0, 2.0))
    row = {
        "ave_st_ms": report.ave_st_delta_ms,
        "ave_ed_ms": report.ave_ed_delta_ms,
        "offset_ms": offset,
        "mean_peak_rel": hist.mean_rel_pos,
    }
    for tau in thresholds:
        row[f"pct_ws_{tau:g}"] = report.pct_ws[tau]
        row[f"pct_we_{tau:g}"] = report.pct_we[tau]
    return row


def check_sweep_spec(spec: CorpusSpec) -> None:
    """Raise ValueError when the spec's corpus is too small for split_corpus
    to hold an utterance out: the sweeps score on the held-out split."""
    if spec.n_utts < HOLDOUT_EVERY:
        raise ValueError(f"need n_utts >= {HOLDOUT_EVERY} for a held-out split, got {spec.n_utts}")


def _sweep(
    spec: CorpusSpec,
    grid: list[tuple[dict, TrainConfig]],
    decodes: list[tuple[dict, float]],
    thresholds: tuple[float, ...],
) -> list[dict]:
    """One training per (columns, config) in grid, on the training split of
    the spec's corpus, and one row per (columns, gamma_inf) in decodes for
    each training, scored by _sweep_scores. A spec that check_sweep_spec
    refuses raises its ValueError before any training."""
    check_sweep_spec(spec)
    corpus = generate_corpus(spec)
    train_split, heldout = split_corpus(corpus)
    rows = []
    for head, config in grid:
        clf, _ = train(config, train_split, n_classes=spec.vocab_size + 1)
        occupancy = corpus_blank_occupancy(clf, train_split)
        for columns, gamma_inf in decodes:
            row = {**head, **columns, "blank_occupancy": occupancy}
            row.update(_sweep_scores(clf, corpus, heldout, gamma_inf, thresholds))
            rows.append(row)
    return rows


def sweep_gamma(
    spec: CorpusSpec | None = None,
    gammas_train: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    gammas_inf: tuple[float, ...] = (0.0, 1.0),
    thresholds: tuple[float, ...] = (20.0, 80.0),
    seed: int = 7,
    epochs: int = 150,
    learning_rate: float = 0.1,
    batch_size: int = 64,
) -> list[dict]:
    """Label-prior grid: one training per gamma_train, one row per
    (gamma_train, gamma_inf) pair, percentages scored on the held-out split."""
    sgd = dict(seed=seed, epochs=epochs, learning_rate=learning_rate, batch_size=batch_size)
    grid = [({"gamma_train": g}, TrainConfig(method="npc", gamma_train=g, **sgd))
            for g in gammas_train]
    decodes = [({"gamma_inf": g}, g) for g in gammas_inf]
    return _sweep(spec or CorpusSpec(), grid, decodes, thresholds)


def sweep_pfr(
    spec: CorpusSpec | None = None,
    lambdas: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
    seed: int = 3,
    epochs: int = 200,
    learning_rate: float = 0.07,
    batch_size: int = 64,
) -> list[dict]:
    """Peak-regularizer weight grid on the pfr corpus preset, one training
    per lambda; peak statistics and offsets come from the full corpus.

    Every training uses the teacher shift mu = -1, temperature tau = 7.0 and
    gamma_train = 0.25, decodes at gamma_inf = 1.0 and scores thresholds of
    20 and 80 ms.
    """
    sgd = dict(seed=seed, epochs=epochs, learning_rate=learning_rate, batch_size=batch_size)
    grid = [({"lambda_pfr": lam},
             TrainConfig(method="pfr", gamma_train=0.25, lambda_pfr=lam, mu=-1, tau=7.0, **sgd))
            for lam in lambdas]
    return _sweep(spec or pfr_corpus_spec(), grid, [({}, 1.0)], (20.0, 80.0))
