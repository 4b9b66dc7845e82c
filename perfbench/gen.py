"""Seeded input generators for the three workloads.

Each generator writes the files the program reads plus a `truth.json`
manifest that holds what was planted (token spans, edits, offsets) and the
sizes the rates are computed from (for `train`, the corpus seed only). The
same seed gives the same files byte for byte. Work per round does not depend on the seed: utterance
lengths, token counts and document sizes are fixed (train corpora within
2%), and the seed only picks values, token ids, edit positions and the
planted offset.
"""
from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

GEN_VERSION = 2

# --- train -----------------------------------------------------------------
TRAIN_N_UTTS = 24
TRAIN_EPOCHS = {"gamma": 40, "pfr": 20, "cetc": 15}
TRAIN_GAMMAS = (0.0, 0.5)
TRAIN_LAMBDAS = (1.0,)
TRAIN_MODEL_SEED = 7
# minibatches of 8 at a small step size: on 19-utterance training splits the
# trainer's defaults (one full-batch step per epoch at 0.1) diverge on many
# corpus seeds, so the check that every training's loss falls would fail
TRAIN_BATCH = 8
TRAIN_LR = 0.03
# training-split frames (the medians over corpus seeds): the seed's corpus
# must come within TRAIN_FRAMES_TOL of them, so work per round is the same
TRAIN_FRAMES = {"default": 891, "pfr": 1225}
TRAIN_FRAMES_TOL = 0.02

# --- align -----------------------------------------------------------------
ALIGN_VOCAB = 48
ALIGN_FRAME_MS = 20.0
# fixed multiset of utterance lengths: log-spaced from 20 to 1500 frames, so
# per-utterance overhead shows on the short ones and Viterbi on the long ones
ALIGN_LENGTHS = tuple(int(round(x)) for x in np.geomspace(20, 1500, 48))
ALIGN_FRAMES_PER_TOKEN = 8
ALIGN_PLANT = 8.0

# --- score -----------------------------------------------------------------
SCORE_DOC_WORDS = (180, 240, 300, 360, 420)
SCORE_EDIT_EVERY = 10  # one isolated edit per this many reference words
SCORE_METRIC_THRESHOLDS = (20.0, 80.0, 200.0)
SCORE_GRID = (-200.0, 200.0, 10.0)
SCORE_GRID_THRESHOLD = 10.0


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = {"train": 1, "align": 2, "score": 3}[workload]
    return np.random.default_rng([GEN_VERSION, tag, int(seed) % 2**64])


def gen_train(out: Path, seed: int) -> None:
    """The trainer builds its corpora from a spec; only the corpus seed varies.

    The worker takes the frame counts of a round from the corpora of the
    program it measures; here they only pick the seed.
    """
    from ctctiming import synth

    rng = _rng("train", seed)
    while True:  # draw corpus seeds until both training splits have the set size
        corpus_seed = int(rng.integers(1, 2**31 - 1))
        spec = synth.CorpusSpec(n_utts=TRAIN_N_UTTS, seed=corpus_seed)
        pfr_spec = replace(synth.pfr_corpus_spec(), n_utts=TRAIN_N_UTTS, seed=corpus_seed)
        frames = {}
        for name, sp in (("default", spec), ("pfr", pfr_spec)):
            train_split, _ = synth.split_corpus(synth.generate_corpus(sp))
            frames[name] = [u.n_frames for u in train_split]
        if all(abs(sum(frames[k]) / TRAIN_FRAMES[k] - 1.0) <= TRAIN_FRAMES_TOL for k in frames):
            break
    truth = {
        "corpus_seed": corpus_seed,
        "n_utts": TRAIN_N_UTTS,
        "epochs": TRAIN_EPOCHS,
        "gammas_train": list(TRAIN_GAMMAS),
        "lambdas": list(TRAIN_LAMBDAS),
        "model_seed": TRAIN_MODEL_SEED,
        "batch_size": TRAIN_BATCH,
        "learning_rate": TRAIN_LR,
        "frame_ms": synth.FRAME_MS,
    }
    (out / "truth.json").write_text(json.dumps(truth), encoding="utf-8")


def _align_utterance(rng: np.random.Generator, n_frames: int):
    n_tokens = max(1, n_frames // ALIGN_FRAMES_PER_TOKEN)
    tokens = []
    for _ in range(n_tokens):
        tok = int(rng.integers(1, ALIGN_VOCAB))
        while tokens and tok == tokens[-1]:
            tok = int(rng.integers(1, ALIGN_VOCAB))
        tokens.append(tok)
    # 2U+1 segments (blank, token, blank, ..., token, blank), each >= 1 frame
    n_seg = 2 * n_tokens + 1
    lengths = 1 + rng.multinomial(n_frames - n_seg, np.full(n_seg, 1.0 / n_seg))
    edges = np.concatenate(([0], np.cumsum(lengths)))
    spans = [(int(edges[2 * u + 1]), int(edges[2 * u + 2]) - 1) for u in range(n_tokens)]

    frames = rng.normal(scale=0.5, size=(n_frames, ALIGN_VOCAB))
    owner = np.zeros(n_frames, dtype=np.int64)
    for tok, (start, end) in zip(tokens, spans):
        owner[start : end + 1] = tok
    frames[np.arange(n_frames), owner] += ALIGN_PLANT
    frames = np.round(frames, 3)

    words = []
    u = 0
    while u < n_tokens:
        size = min(int(rng.integers(1, 4)), n_tokens - u)
        words.append(("w" + "_".join(str(t) for t in tokens[u : u + size]), u, u + size - 1))
        u += size
    return tokens, spans, words, frames


def gen_align(out: Path, seed: int) -> None:
    """Logits JSONL with planted token spans, labels JSONL and vocab."""
    rng = _rng("align", seed)
    order = rng.permutation(len(ALIGN_LENGTHS))
    utts = []
    with open(out / "logits.jsonl", "w", encoding="utf-8") as logits_out, \
            open(out / "labels.jsonl", "w", encoding="utf-8") as labels_out:
        for i, k in enumerate(order):
            utt_id = f"utt-{i:03d}"
            tokens, spans, words, frames = _align_utterance(rng, ALIGN_LENGTHS[k])
            logits_out.write(json.dumps(
                {"utt": utt_id, "frame_ms": ALIGN_FRAME_MS, "frames": frames.tolist()}) + "\n")
            labels_out.write(json.dumps({
                "utt": utt_id, "pieces": tokens,
                "words": [{"w": w, "first": a, "last": b} for w, a, b in words],
            }) + "\n")
            utts.append({"utt": utt_id, "n_frames": ALIGN_LENGTHS[k], "tokens": tokens,
                         "spans": spans, "words": words})
    with open(out / "vocab.txt", "w", encoding="utf-8") as handle:
        handle.write("<blank>\n")
        for v in range(1, ALIGN_VOCAB):
            handle.write(f"p{v}\n")
    truth = {"frame_ms": ALIGN_FRAME_MS, "gamma_inf": 1.0, "offset_ms": 0.0, "utts": utts,
             "total_frames": int(sum(ALIGN_LENGTHS))}
    (out / "truth.json").write_text(json.dumps(truth), encoding="utf-8")


def _jitter(rng: np.random.Generator) -> int:
    # most words sit within 4 ms of the planted offset, a fifth are far off,
    # so the offset grid has a single best point and the %WS/%WE are not 0/100
    if rng.random() < 0.8:
        return int(rng.integers(-4, 5))
    return int(rng.integers(-120, 121))


def _score_doc(rng: np.random.Generator, d: int, n_words: int, offset: int):
    ref = []
    t = 300 + int(rng.integers(0, 400))
    for i in range(n_words):
        start = t
        end = start + int(rng.integers(260, 701))
        ref.append((f"d{d}w{i}", start, end))
        t = end + int(rng.integers(0, 401))

    # one edit per SCORE_EDIT_EVERY words, at least 6 matched words apart;
    # the kinds take turns, so every document's size is the same for any seed
    edits = {}
    phase = int(rng.integers(0, 3))
    for slot in range(n_words // SCORE_EDIT_EVERY):
        pos = slot * SCORE_EDIT_EVERY + 3 + int(rng.integers(0, SCORE_EDIT_EVERY - 6))
        edits[pos] = ("sub", "ins", "del")[(slot + phase) % 3]

    hyp, pairs = [], []
    for i, (word, start, end) in enumerate(ref):
        kind = edits.get(i)
        if kind == "del":
            continue
        h_start = start - offset + _jitter(rng)
        h_end = end - offset + _jitter(rng)
        if kind == "sub":
            hyp.append((f"d{d}s{i}", h_start, h_end))
            continue
        pairs.append((len(hyp), i))
        hyp.append((word, h_start, h_end))
        if kind == "ins":
            hyp.append((f"d{d}i{i}", h_end, h_end + 100))
    return ref, hyp, pairs


def gen_score(out: Path, seed: int) -> None:
    """Long-form hyp/ref timing documents with isolated edits and an offset."""
    rng = _rng("score", seed)
    step = int(SCORE_GRID[2])
    choices = [o for o in range(-150, 151, step) if o != 0]
    offset = int(choices[int(rng.integers(0, len(choices)))])
    docs = []
    with open(out / "ref.jsonl", "w", encoding="utf-8") as ref_out, \
            open(out / "hyp.jsonl", "w", encoding="utf-8") as hyp_out:
        for d, n_words in enumerate(SCORE_DOC_WORDS):
            doc = f"doc-{d:02d}"
            ref, hyp, pairs = _score_doc(rng, d, n_words, offset)
            for handle, words in ((ref_out, ref), (hyp_out, hyp)):
                handle.write(json.dumps({"utt": doc, "words": [
                    {"w": w, "start_ms": float(s), "end_ms": float(e)} for w, s, e in words
                ]}) + "\n")
            docs.append({"utt": doc, "ref": ref, "hyp": hyp, "pairs": pairs})
    truth = {"offset_ms": offset, "docs": docs,
             "thresholds": list(SCORE_METRIC_THRESHOLDS),
             "grid": list(SCORE_GRID), "grid_threshold": SCORE_GRID_THRESHOLD}
    (out / "truth.json").write_text(json.dumps(truth), encoding="utf-8")


GENERATORS = {"train": gen_train, "align": gen_align, "score": gen_score}


def ensure_inputs(cache_root: Path, workload: str, seed: int) -> Path:
    """Generate the inputs for (workload, seed) once; return their directory.

    Only the latest seed of each workload is kept, so the cache stays small.
    """
    cache_root.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-v{GEN_VERSION}-s{seed}"
    final = cache_root / name
    if (final / "truth.json").is_file():
        return final
    for stale in cache_root.glob(f"{workload}-*"):
        shutil.rmtree(stale, ignore_errors=True)
    tmp = cache_root / (name + ".tmp")
    tmp.mkdir()
    GENERATORS[workload](tmp, seed)
    tmp.rename(final)
    return final
