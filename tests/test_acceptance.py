"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. The synthetic sweeps are session fixtures shared across criteria.
"""
import hashlib
import time

import numpy as np
import pytest

from ctctiming.boundary import WordTimes
from ctctiming.ctc import (
    LabelSequence,
    LogitMatrix,
    apply_label_prior,
    ctc_grad,
    ctc_loss,
    forced_align,
    log_softmax_rows,
    prior_ctc_grad,
)
from ctctiming.boundary import guided_ce_grad
from ctctiming.metrics import edit_distance, timing_metrics
from ctctiming.pfr import PfrParams, pfr_loss_grad
from ctctiming.synth import (
    Classifier,
    CorpusSpec,
    TrainConfig,
    generate_corpus,
    model_backward,
    model_forward,
    predict_timings,
    reference_timings,
    split_corpus,
    sweep_gamma,
    sweep_pfr,
    train,
)
from ctctiming import dataio
from ctctiming.cli import main as cli_main
from ctctiming.dataio import rows_to_csv

from oracles import (
    brute_force_ctc_loss,
    central_difference_grad,
    collapse,
    emitted,
    frozen_teacher_kd_loss,
    grad_relative_error,
    levenshtein_cost,
    path_score,
    sample_valid_path,
    word_times,
)
from test_ctc import random_instance


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def gamma_sweep():
    start = time.time()
    rows = sweep_gamma()
    return rows, time.time() - start


@pytest.fixture(scope="session")
def pfr_sweep():
    start = time.time()
    rows = sweep_pfr()
    return rows, time.time() - start


@pytest.fixture(scope="session")
def fusion_pair():
    corpus = generate_corpus(CorpusSpec())
    train_split, heldout = split_corpus(corpus)
    reports = {}
    for fused in (False, True):
        config = TrainConfig(method="npc", fuse_features=fused)
        clf, _ = train(config, train_split, n_classes=CorpusSpec().vocab_size + 1)
        pred = predict_timings(clf, heldout, gamma_inf=1.0)
        reports[fused] = timing_metrics(pred, reference_timings(heldout), [20.0, 80.0])
    return reports


@pytest.fixture(scope="session")
def npc_predictions():
    corpus = generate_corpus(CorpusSpec())
    train_split, heldout = split_corpus(corpus)
    config = TrainConfig(method="npc")
    clf, _ = train(config, train_split, n_classes=CorpusSpec().vocab_size + 1)
    return predict_timings(clf, corpus, 1.0), reference_timings(corpus)


def test_criterion_1_ctc_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        logits, labels = random_instance(rng, t_max=6, v_max=4, u_max=3)
        log_probs = log_softmax_rows(logits)
        loss, _ = ctc_loss(log_probs, labels)
        expected = brute_force_ctc_loss(log_probs, labels.tokens)
        worst = max(worst, abs(loss - expected))
    elapsed = time.time() - start
    report(
        "1 ctc-oracle-equivalence",
        worst <= 1e-6 and elapsed <= 10.0,
        f"max |diff| {worst:.2e} over 1000 instances in {elapsed:.1f}s",
    )


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(102)
    worst: dict[str, float] = {}

    def check(name, analytic, numeric):
        err = grad_relative_error(analytic, numeric)
        worst[name] = max(worst.get(name, 0.0), err)

    for _ in range(100):
        logits, labels = random_instance(rng)
        mat = LogitMatrix("u", logits, 10.0)
        _, grad = ctc_grad(mat, labels)
        fd = central_difference_grad(lambda x: ctc_loss(log_softmax_rows(x), labels)[0], logits)
        check("ctc_grad", grad, fd)

    for gamma in (0.0, 0.25, 1.0):
        for _ in range(100):
            logits, labels = random_instance(rng)
            _, grad = prior_ctc_grad(LogitMatrix("u", logits, 10.0), labels, gamma)
            fd = central_difference_grad(
                lambda x: ctc_loss(
                    log_softmax_rows(apply_label_prior(LogitMatrix("u", x, 10.0), gamma).frames),
                    labels,
                )[0],
                logits,
            )
            check(f"prior_ctc_grad[{gamma}]", grad, fd)

    for _ in range(100):
        n_frames, n_vocab = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        logits = rng.normal(size=(n_frames, n_vocab))
        targets = rng.uniform(size=(n_frames, n_vocab))
        _, grad = guided_ce_grad(LogitMatrix("u", logits, 10.0), targets)
        fd = central_difference_grad(
            lambda x: guided_ce_grad(LogitMatrix("u", x, 10.0), targets)[0], logits
        )
        check("guided_ce_grad", grad, fd)

    for _ in range(100):
        n_frames, n_vocab = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        mu = int(rng.choice([-2, -1, 1, 2]))
        tau = float(rng.uniform(0.5, 10.0))
        logits = rng.normal(size=(n_frames, n_vocab))
        params = PfrParams(lambda_pfr=1.0, mu=mu, tau=tau)
        _, grad = pfr_loss_grad(LogitMatrix("u", logits, 10.0), params)
        frozen = logits.copy()
        fd = central_difference_grad(
            lambda x: frozen_teacher_kd_loss(x, mu, tau, frozen), logits
        )
        check("pfr_loss_grad", grad, fd)

    for i in range(100):
        clf = Classifier.init(3, 4, 3, seed=1000 + i)
        x = rng.normal(size=(5, 3))
        labels = LabelSequence((1, 2))
        logits, cache = model_forward(clf, x)
        _, dlogits = ctc_grad(logits, labels)
        grads = model_backward(clf, cache, dlogits)
        for name, param in clf.params().items():
            def loss_at(p, _param=param):
                saved = _param.copy()
                _param[...] = p
                out, _ = model_forward(clf, x)
                value = ctc_loss(log_softmax_rows(out.frames), labels)[0]
                _param[...] = saved
                return value

            fd = central_difference_grad(loss_at, param.copy())
            check("network_chain", grads[name], fd)

    bad = {k: v for k, v in worst.items() if v > 1e-4}
    detail = ", ".join(f"{k} {v:.1e}" for k, v in sorted(worst.items()))
    report("2 gradient-correctness", not bad, detail)


def test_criterion_3_forced_alignment_validity():
    rng = np.random.default_rng(103)
    n_collapse_ok = 0
    n_score_ok = 0
    for _ in range(1000):
        logits, labels = random_instance(rng)
        log_probs = log_softmax_rows(logits)
        states = forced_align(log_probs, labels)
        n_collapse_ok += collapse(emitted(states, labels)) == labels.tokens
        best = path_score(log_probs, states, labels)
        ok = True
        for _ in range(100):
            sampled = sample_valid_path(rng, log_probs.shape[0], labels.tokens)
            ok &= best >= path_score(log_probs, sampled, labels) - 1e-12
        n_score_ok += ok
    report(
        "3 forced-alignment-validity",
        n_collapse_ok == 1000 and n_score_ok == 1000,
        f"collapse {n_collapse_ok}/1000, score-dominance {n_score_ok}/1000",
    )


def test_criterion_4_peaky_reproduction(gamma_sweep):
    rows, elapsed = gamma_sweep
    by = {(r["gamma_train"], r["gamma_inf"]): r for r in rows}
    peaky = by[(0.0, 1.0)]["blank_occupancy"]
    npc = by[(0.25, 1.0)]["blank_occupancy"]
    report(
        "4 peaky-behavior",
        peaky >= 0.70 and (peaky - npc) >= 0.20 and elapsed <= 180.0,
        f"peaky occupancy {peaky:.2f}, npc {npc:.2f}, sweep {elapsed:.0f}s",
    )


def test_criterion_5_timing_ordering(gamma_sweep, fusion_pair):
    rows, _ = gamma_sweep
    by = {(r["gamma_train"], r["gamma_inf"]): r for r in rows}
    npc = by[(0.25, 1.0)]
    gaps = []
    for gi in (0.0, 1.0):
        peaky = by[(0.0, gi)]
        gaps.append(npc["pct_ws_20"] - peaky["pct_ws_20"])
        gaps.append(npc["pct_we_20"] - peaky["pct_we_20"])
    plain, fused = fusion_pair[False], fusion_pair[True]
    plain_sum = plain.pct_ws[20.0] + plain.pct_we[20.0]
    fused_sum = fused.pct_ws[20.0] + fused.pct_we[20.0]
    report(
        "5 timing-ordering",
        min(gaps) >= 10.0 and fused_sum >= plain_sum,
        f"npc-peaky gaps {[f'{g:+.1f}' for g in gaps]}, "
        f"fusion sum {fused_sum:.1f} vs {plain_sum:.1f}",
    )


def test_criterion_6_offset_recovery(npc_predictions, gamma_sweep, tmp_path, capsys):
    pred, ref = npc_predictions
    shifted = {
        utt: WordTimes(words.texts, np.maximum(words.times - 40.0, 0.0))
        for utt, words in pred.items()
    }
    dataio.write_timings_jsonl(tmp_path / "hyp.jsonl", shifted)
    dataio.write_timings_jsonl(tmp_path / "ref.jsonl", ref)
    rc = cli_main([
        "gridsearch", "--hyp", str(tmp_path / "hyp.jsonl"),
        "--ref", str(tmp_path / "ref.jsonl"),
        "--range", "-200:200:10", "--threshold", "15",
        "--out", str(tmp_path / "curve.csv"),
    ])
    out = capsys.readouterr().out
    recovered = float(out.strip().split()[-1])

    rows, _ = gamma_sweep
    by = {(r["gamma_train"], r["gamma_inf"]): r for r in rows}
    npc_offset = by[(0.25, 1.0)]["offset_ms"]
    report(
        "6 offset-recovery",
        rc == 0 and abs(recovered - 40.0) <= 10.0 and npc_offset >= 0.0,
        f"recovered {recovered:+.0f} (target +40 +/- 10), npc offset {npc_offset:+.0f}",
    )


def test_criterion_7_pfr_peak_delay(pfr_sweep):
    rows, _ = pfr_sweep
    assert len(rows) == 7, "lambda grid mirrors the seven-row sweep table"
    by = {r["lambda_pfr"]: r for r in rows}
    rel_0, rel_15 = by[0.0]["mean_peak_rel"], by[1.5]["mean_peak_rel"]
    off_0, off_15 = by[0.0]["offset_ms"], by[1.5]["offset_ms"]
    report(
        "7 pfr-peak-delay",
        rel_15 > rel_0 and abs(off_15) < abs(off_0),
        f"mean rel pos {rel_0:.4f} -> {rel_15:.4f}, offset {off_0:+.0f} -> {off_15:+.0f}",
    )


def test_criterion_8_metrics_exactness():
    def document(*words):
        return {"u": word_times(words)}

    perfect = document(("a", 100, 200), ("b", 300, 450))
    r1 = timing_metrics(perfect, perfect, [80.0, 200.0])
    r2 = timing_metrics(document(("a", 200, 300)), document(("a", 100, 200)), [80.0, 200.0])
    r3 = timing_metrics(document(("a", 180, 280)), document(("a", 100, 200)), [80.0])
    exact = (
        r1.ave_st_delta_ms == 0.0 and r1.pct_ws[80.0] == 100.0
        and r2.ave_st_delta_ms == 100.0 and r2.ave_ed_delta_ms == 100.0
        and r2.pct_ws[80.0] == 0.0 and r2.pct_ws[200.0] == 100.0
        and r3.pct_ws[80.0] == 0.0 and r3.pct_we[80.0] == 0.0
    )

    rng = np.random.default_rng(108)
    vocab = ["a", "b", "c", "d", "e", "f"]
    n_cost_ok = 0
    for _ in range(1000):
        hyp = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, 11))]
        ref = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, 11))]
        n_cost_ok += edit_distance(hyp, ref) == levenshtein_cost(hyp, ref)
    report(
        "8 metrics-exactness",
        exact and n_cost_ok == 1000,
        f"hand cases exact: {exact}, levenshtein oracle {n_cost_ok}/1000",
    )


def test_criterion_9_determinism(gamma_sweep, pfr_sweep):
    gamma_csv = rows_to_csv(gamma_sweep[0])
    pfr_csv = rows_to_csv(pfr_sweep[0])
    gamma_again = rows_to_csv(sweep_gamma())
    pfr_again = rows_to_csv(sweep_pfr())
    report(
        "9 determinism",
        gamma_csv == gamma_again and pfr_csv == pfr_again,
        f"gamma csv {len(gamma_csv)}B identical: {gamma_csv == gamma_again}, "
        f"pfr csv {len(pfr_csv)}B identical: {pfr_csv == pfr_again}",
    )


def test_default_sweep_csvs_pinned(gamma_sweep, pfr_sweep):
    """The default sweeps' CSVs, byte for byte (md5 of the UTF-8 text). A
    change that moves them, even in low bits, updates these digests and
    records the CSVs before and after it."""
    digests = [hashlib.md5(rows_to_csv(rows).encode("utf-8")).hexdigest()
               for rows, _ in (gamma_sweep, pfr_sweep)]
    assert digests == ["0a1a2e6b865c84321138ebe6d7b66b41", "4c656170a996f64bbb9715091c933d33"]
