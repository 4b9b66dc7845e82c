import hashlib

import numpy as np
import pytest

from ctctiming.boundary import CetcParams
from ctctiming.ctc import LabelSequence, ctc_loss, log_softmax_rows
from ctctiming.pfr import PfrParams
from ctctiming.synth import (
    Classifier,
    CorpusSpec,
    SynthUtterance,
    TrainConfig,
    TrainingDivergedError,
    corpus_blank_occupancy,
    generate_corpus,
    inputs_for,
    model_forward,
    model_backward,
    predict_timings,
    reference_timings,
    split_corpus,
    train,
)
from ctctiming.metrics import match_words, timing_metrics

from oracles import central_difference_grad, grad_relative_error


def small_spec(**kw):
    base = dict(n_utts=6, vocab_size=4, words_per_utt=(1, 2), seed=11)
    base.update(kw)
    return CorpusSpec(**base)


def corpus_digest(corpus):
    h = hashlib.sha256()
    for utt in corpus:
        h.update(utt.utt_id.encode())
        h.update(utt.features_lo.tobytes())
        h.update(utt.features_hi.tobytes())
        h.update(repr(utt.labels.tokens).encode())
        h.update(repr(utt.word_map.words).encode())
        h.update(repr([(w.start_ms, w.end_ms) for w in utt.ref_timings]).encode())
    return h.hexdigest()


class TestGenerateCorpus:
    def test_seed_determinism(self):
        a = generate_corpus(small_spec())
        b = generate_corpus(small_spec())
        assert corpus_digest(a) == corpus_digest(b)

    def test_different_seeds_differ(self):
        a = generate_corpus(small_spec())
        b = generate_corpus(small_spec(seed=12))
        assert corpus_digest(a) != corpus_digest(b)

    def test_noiseless_spans_constant_and_separable(self):
        # with zero noise, single-piece words are constant across their span
        # and distinct words with distinct tokens have distinct rows
        corpus = generate_corpus(small_spec(noise_sigma=0.0, pieces_per_word=(1, 1)))
        for utt in corpus:
            rows = {}
            for token, ref in zip(utt.labels.tokens, utt.ref_timings):
                lo, hi = int(ref.start_ms / 10), int(ref.end_ms / 10)
                span = utt.features_lo[lo:hi]
                assert np.ptp(span, axis=0).max() == 0.0
                rows[token] = span[0]
            for a in rows:
                for b in rows:
                    if a != b:
                        assert not np.allclose(rows[a], rows[b])

    def test_ref_timings_tile_spans(self):
        corpus = generate_corpus(small_spec())
        for utt in corpus:
            for timing in utt.ref_timings:
                assert 0.0 <= timing.start_ms < timing.end_ms <= utt.n_frames * 10.0
                assert timing.start_ms % 10.0 == 0.0 and timing.end_ms % 10.0 == 0.0
            # words ordered and non-overlapping
            for a, b in zip(utt.ref_timings, utt.ref_timings[1:]):
                assert a.end_ms <= b.start_ms

    def test_word_durations_within_construction_bounds(self):
        spec = CorpusSpec(n_utts=20, span_frames=(3, 10), pieces_per_word=(1, 3), seed=5)
        corpus = generate_corpus(spec)
        durations = [w.duration_ms for u in corpus for w in u.ref_timings]
        assert min(durations) >= 30.0 * 1
        assert max(durations) <= 100.0 * 3
        assert 30.0 <= np.mean(durations) <= 300.0

    def test_labels_have_no_adjacent_repeats(self):
        corpus = generate_corpus(small_spec(n_utts=20))
        for utt in corpus:
            toks = utt.labels.tokens
            assert all(a != b for a, b in zip(toks, toks[1:]))

    def test_hi_stream_is_smoothed(self):
        corpus = generate_corpus(small_spec(noise_sigma=1.0))
        utt = corpus[0]
        # averaging shrinks frame-to-frame variation
        lo_diff = np.abs(np.diff(utt.features_lo, axis=0)).mean()
        hi_diff = np.abs(np.diff(utt.features_hi, axis=0)).mean()
        assert hi_diff < lo_diff

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValueError):
            CorpusSpec(span_frames=(0, 3))
        with pytest.raises(ValueError):
            CorpusSpec(words_per_utt=(3, 2))
        with pytest.raises(ValueError):
            CorpusSpec(vocab_size=1)
        with pytest.raises(ValueError):
            CorpusSpec(noise_sigma=-0.1)
        with pytest.raises(ValueError, match="feature_dim >= 2"):
            CorpusSpec(feature_dim=1)


class TestSplit:
    def test_deterministic_partition(self):
        corpus = generate_corpus(small_spec(n_utts=10))
        a, b = split_corpus(corpus, holdout_every=5)
        assert len(a) == 8 and len(b) == 2
        assert {u.utt_id for u in a} | {u.utt_id for u in b} == {u.utt_id for u in corpus}


class TestModel:
    def test_zero_weights_uniform_posteriors(self):
        clf = Classifier.init(4, 8, 5, seed=0)
        for name, p in clf.params().items():
            p *= 0.0
        logits, _ = model_forward(clf, np.random.default_rng(0).normal(size=(6, 4)))
        assert np.allclose(logits.frames, 0.0)

    def test_forward_deterministic(self):
        clf = Classifier.init(4, 8, 5, seed=3)
        x = np.random.default_rng(1).normal(size=(7, 4))
        a, _ = model_forward(clf, x)
        b, _ = model_forward(clf, x)
        assert np.array_equal(a.frames, b.frames)

    def test_dim_mismatch_rejected(self):
        clf = Classifier.init(4, 8, 5, seed=3)
        with pytest.raises(ValueError):
            model_forward(clf, np.zeros((3, 5)))

    def test_zero_dlogits_zero_grads(self):
        clf = Classifier.init(3, 6, 4, seed=2)
        x = np.random.default_rng(2).normal(size=(5, 3))
        _, cache = model_forward(clf, x)
        grads = model_backward(clf, cache, np.zeros((5, 4)))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_stale_cache_rejected(self):
        clf = Classifier.init(3, 6, 4, seed=2)
        x = np.random.default_rng(2).normal(size=(5, 3))
        _, cache = model_forward(clf, x)
        clf.apply_update({k: np.zeros_like(v) for k, v in clf.params().items()}, 0.1)
        with pytest.raises(ValueError, match="stale"):
            model_backward(clf, cache, np.zeros((5, 4)))

    def test_full_chain_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            clf = Classifier.init(3, 4, 3, seed=int(rng.integers(1000)))
            x = rng.normal(size=(5, 3))
            labels = LabelSequence((1, 2))

            _, cache = model_forward(clf, x)
            from ctctiming.ctc import ctc_grad
            logits, _ = model_forward(clf, x)
            _, dlogits = ctc_grad(logits, labels)
            grads = model_backward(clf, cache, dlogits)

            for name, param in clf.params().items():
                def loss_at(p):
                    saved = param.copy()
                    param[...] = p
                    out, _ = model_forward(clf, x)
                    value = ctc_loss(log_softmax_rows(out), labels)[0]
                    param[...] = saved
                    return value

                fd = central_difference_grad(loss_at, param.copy())
                assert grad_relative_error(grads[name], fd) <= 1e-4, name

    def test_linear_network_matches_closed_form(self):
        # with tanh ~ identity for tiny inputs, the chain is near-linear and
        # the squared-error gradient matches the analytic least-squares one
        clf = Classifier.init(2, 3, 2, seed=4)
        x = np.random.default_rng(4).normal(size=(6, 2)) * 1e-4
        target = np.zeros((6, 2))
        logits, cache = model_forward(clf, x)
        dlogits = 2.0 * (logits.frames - target)
        grads = model_backward(clf, cache, dlogits)
        w_eff = clf.w1 @ clf.w2 @ clf.w3

        def quad_loss(w1):
            saved = clf.w1.copy()
            clf.w1[...] = w1
            out, _ = model_forward(clf, x)
            clf.w1[...] = saved
            return float(((out.frames - target) ** 2).sum())

        fd = central_difference_grad(quad_loss, clf.w1.copy(), step=1e-7)
        assert grad_relative_error(grads["w1"], fd) <= 1e-3
        assert w_eff.shape == (2, 2)


class TestTrain:
    def test_zero_learning_rate_freezes(self):
        corpus = generate_corpus(small_spec())
        config = TrainConfig(method="peaky", epochs=3, learning_rate=0.0, batch_size=4, seed=1)
        clf, records = train(config, corpus)
        losses = [r.mean_loss for r in records]
        assert np.ptp(losses) < 1e-12
        assert np.allclose(clf.w1, Classifier.init(clf.input_dim, 64, clf.n_classes, 1).w1)

    def test_loss_decreases_every_method(self):
        corpus = generate_corpus(small_spec(n_utts=8))
        for method, extra in [
            ("peaky", {}),
            ("npc", {}),
            ("cetc", {}),
            ("pfr", {"lambda_pfr": 1.0, "tau": 7.0}),
        ]:
            config = TrainConfig(method=method, epochs=20, learning_rate=0.05,
                                 batch_size=8, seed=2, **extra)
            _, records = train(config, corpus)
            stages = {r.stage for r in records}
            for stage in stages:
                recs = [r for r in records if r.stage == stage]
                assert recs[-1].mean_loss < recs[0].mean_loss, (method, stage)

    def test_training_deterministic(self):
        corpus = generate_corpus(small_spec())
        config = TrainConfig(method="npc", epochs=5, batch_size=4, seed=9)
        clf_a, rec_a = train(config, corpus)
        clf_b, rec_b = train(config, corpus)
        assert np.array_equal(clf_a.w3, clf_b.w3)
        assert [r.mean_loss for r in rec_a] == [r.mean_loss for r in rec_b]

    def test_forward_once_per_utterance_per_epoch(self, monkeypatch):
        """Training runs the model forward only for its own updates."""
        from ctctiming import synth

        calls = []
        real = synth.model_forward

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(synth, "model_forward", counting)
        corpus = generate_corpus(small_spec())
        train(TrainConfig(method="npc", epochs=3, batch_size=4, seed=1), corpus)
        assert len(calls) == 3 * len(corpus)

    def test_pfr_requires_params(self):
        with pytest.raises(ValueError):
            TrainConfig(method="pfr")

    def test_gamma_defaults(self):
        config = TrainConfig(method="npc")
        assert config.gamma_train == 0.25

    @pytest.mark.parametrize("method, key, value", [
        ("peaky", "gamma_train", 0.9),
        ("cetc", "gamma_train", 0.9),
        ("npc", "alpha_left", 0.9),
        ("pfr", "beta", 2.0),
        ("npc", "lambda_pfr", 2.0),
        ("cetc", "mu", 1),
        ("peaky", "tau", 3.0),
    ])
    def test_inapplicable_setting_rejected(self, method, key, value):
        """A setting the method does not read is refused, not dropped."""
        settings = {"lambda_pfr": 1.0} if method == "pfr" else {}
        with pytest.raises(ValueError, match=rf"^{key} does not apply to method '{method}'"):
            TrainConfig(method=method, **settings, **{key: value})

    def test_method_params_built_from_flat_settings(self):
        cetc = TrainConfig(method="cetc", beta=2.0)
        assert cetc.cetc == CetcParams(beta=2.0) and cetc.pfr is None
        assert cetc.gamma_train is None
        pfr = TrainConfig(method="pfr", lambda_pfr=2.0, tau=3.0)
        assert pfr.pfr == PfrParams(lambda_pfr=2.0, tau=3.0) and pfr.cetc is None
        with pytest.raises(TypeError):
            TrainConfig(method="npc", pfr=PfrParams(2.0))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(method="magic")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported_with_batch(self):
        # weights overflow to inf within a few steps at this rate
        corpus = generate_corpus(small_spec())
        config = TrainConfig(method="peaky", epochs=60, learning_rate=1e160, batch_size=4, seed=1)
        with pytest.raises(TrainingDivergedError, match="batch"):
            train(config, corpus)

    @pytest.mark.parametrize("method", ["peaky", "npc", "pfr"])
    def test_unalignable_utterance_skipped_rest_of_batch_updates(self, method, caplog):
        corpus = generate_corpus(small_spec(n_utts=5))
        u = max(corpus, key=lambda utt: len(utt.labels))
        # fewer frames than labels: no valid path
        n = len(u.labels) - 1
        bad = SynthUtterance("bad", u.features_lo[:n], u.features_hi[:n],
                             u.labels, u.word_map, u.ref_timings)
        config = TrainConfig(method=method, epochs=4, learning_rate=0.05, batch_size=16,
                             seed=3, lambda_pfr=1.0 if method == "pfr" else None)
        with caplog.at_level("WARNING", logger="ctctiming.synth"):
            clf, records = train(config, corpus[:2] + [bad] + corpus[2:], n_classes=5)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1 and messages[0].startswith("skipping bad: no valid path")
        # one batch per epoch: the update is the one the other utterances give
        clean, clean_records = train(config, corpus, n_classes=5)
        for name, value in clf.params().items():
            assert np.allclose(value, clean.params()[name], rtol=1e-9, atol=1e-12), name
        assert not np.allclose(clf.w3, Classifier.init(clf.input_dim, 64, 5, 3).w3)
        assert [r.mean_loss for r in records] == pytest.approx(
            [r.mean_loss for r in clean_records], rel=1e-9)

    def test_nonfinite_input_reports_utterance_epoch_batch(self):
        corpus = generate_corpus(small_spec())
        corpus[3].features_hi[2, 0] = np.nan
        config = TrainConfig(method="npc", epochs=2, batch_size=2, seed=1)
        with pytest.raises(TrainingDivergedError, match=r"synth-0003 \(epoch 0, batch \d\)"):
            train(config, corpus)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train(TrainConfig(method="peaky"), [])


class TestEvaluate:
    def test_oracle_posteriors_give_zero_deltas(self):
        # one-hot posteriors built from the construction align exactly
        from ctctiming.ctc import forced_align, token_spans
        from ctctiming.boundary import words_from_spans
        from ctctiming.metrics import MatchedPair, timing_metrics

        corpus = generate_corpus(small_spec(pieces_per_word=(1, 1), n_utts=8))
        pairs = []
        for utt in corpus:
            log_probs = np.full((utt.n_frames, 5), -np.inf)
            log_probs[:, 0] = 0.0
            for token, ref in zip(utt.labels.tokens, utt.ref_timings):
                lo, hi = int(ref.start_ms / 10), int(ref.end_ms / 10)
                log_probs[lo:hi, 0] = -np.inf
                log_probs[lo:hi, token] = 0.0
            path = forced_align(log_probs, utt.labels)
            spans = token_spans(path, np.exp(log_probs))
            hyp = words_from_spans(spans, utt.word_map, 10.0, n_frames=utt.n_frames)
            pairs.extend(MatchedPair(h, r) for h, r in zip(hyp, utt.ref_timings))
        report = timing_metrics(pairs, [20.0])
        assert report.ave_st_delta_ms == 0.0
        assert report.ave_ed_delta_ms == 0.0
        assert report.pct_ws[20.0] == 100.0

    def test_offset_translation_equivariance(self):
        corpus = generate_corpus(small_spec())
        config = TrainConfig(method="npc", epochs=10, batch_size=8, seed=3)
        clf, _ = train(config, corpus)
        base = predict_timings(clf, corpus, 1.0, offset_ms=0.0)
        shifted = predict_timings(clf, corpus, 1.0, offset_ms=30.0)
        for utt_id in base:
            for a, b in zip(base[utt_id], shifted[utt_id]):
                if a.start_ms > 0:  # clamping exempt
                    assert b.start_ms - a.start_ms == pytest.approx(30.0)

    def test_blank_occupancy_bounds(self):
        corpus = generate_corpus(small_spec())
        clf = Classifier.init(corpus[0].features_hi.shape[1], 8, 5, seed=0)
        occ = corpus_blank_occupancy(clf, corpus)
        assert 0.0 <= occ <= 1.0

    def test_fusion_input_dims(self):
        corpus = generate_corpus(small_spec())
        d = corpus[0].features_lo.shape[1]
        fused = inputs_for(Classifier.init(2 * d, 8, 5, seed=0), corpus[0])
        plain = inputs_for(Classifier.init(d, 8, 5, seed=0), corpus[0])
        assert fused.shape[1] == 2 * plain.shape[1]
        assert np.array_equal(fused[:, : plain.shape[1]], corpus[0].features_hi)
        assert np.array_equal(fused[:, plain.shape[1] :], corpus[0].features_lo)
        assert plain is corpus[0].features_hi
        with pytest.raises(ValueError, match="matches neither"):
            inputs_for(Classifier.init(d + 1, 8, 5, seed=0), corpus[0])

    def test_shifted_references_match_shifted_offset(self):
        # translating references and predictions together leaves all
        # percentage metrics unchanged (no clamping in play)
        from dataclasses import replace as dc_replace
        from ctctiming.boundary import WordTiming

        corpus = generate_corpus(small_spec(gap_frames=(4, 6)))
        config = TrainConfig(method="npc", epochs=15, batch_size=8, seed=3)
        clf, _ = train(config, corpus)

        def evaluate(utts, offset_ms):
            pred = predict_timings(clf, utts, 1.0, offset_ms)
            pairs, n_hyp, n_ref = match_words(pred, reference_timings(utts))
            return timing_metrics(pairs, [20.0], n_hyp=n_hyp, n_ref=n_ref)

        base = evaluate(corpus, 0.0)

        delta = 20.0
        shifted_corpus = [
            dc_replace(
                utt,
                ref_timings=[
                    WordTiming(w.word, w.start_ms + delta, w.end_ms + delta)
                    for w in utt.ref_timings
                ],
            )
            for utt in corpus
        ]
        shifted = evaluate(shifted_corpus, delta)
        assert shifted.pct_ws == base.pct_ws
        assert shifted.pct_we == base.pct_we
        assert shifted.ave_st_delta_ms == pytest.approx(base.ave_st_delta_ms)


class TestSweeps:
    @pytest.mark.parametrize("kind", ["gamma", "pfr"])
    def test_occupancy_is_the_returned_model_on_its_training_split(self, monkeypatch, kind):
        from ctctiming import synth

        trained = []
        real = synth.train

        def observe(config, corpus, n_classes=None):
            clf, records = real(config, corpus, n_classes)
            trained.append((clf, corpus))
            return clf, records

        monkeypatch.setattr(synth, "train", observe)
        spec = small_spec(n_utts=10)
        if kind == "gamma":
            rows = synth.sweep_gamma(spec, gammas_train=(0.0, 0.5), epochs=3, batch_size=8)
            per_training = 2  # one row per gamma_inf
        else:
            rows = synth.sweep_pfr(spec, lambdas=(0.0, 1.0), epochs=3, batch_size=8)
            per_training = 1
        train_split, _ = split_corpus(generate_corpus(spec))
        assert len(trained) == 2 and len(rows) == 2 * per_training
        scores = ["blank_occupancy", "ave_st_ms", "ave_ed_ms", "offset_ms", "mean_peak_rel",
                  "pct_ws_20", "pct_we_20", "pct_ws_80", "pct_we_80"]
        head = ["gamma_train", "gamma_inf"] if kind == "gamma" else ["lambda_pfr"]
        for row in rows:
            assert list(row) == head + scores
        grid = ([(0.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 1.0)] if kind == "gamma"
                else [(0.0,), (1.0,)])
        assert [tuple(row[c] for c in head) for row in rows] == grid
        for i, (clf, corpus) in enumerate(trained):
            assert [u.utt_id for u in corpus] == [u.utt_id for u in train_split]
            want = corpus_blank_occupancy(clf, train_split)
            for row in rows[i * per_training : (i + 1) * per_training]:
                assert row["blank_occupancy"] == want


class TestCetcTargets:
    def test_stage2_targets_valid_for_all_utterances(self):
        from ctctiming.synth import cetc_targets

        corpus = generate_corpus(small_spec(n_utts=10))
        config = TrainConfig(method="peaky", epochs=25, learning_rate=0.1,
                             batch_size=64, seed=2)
        clf, _ = train(config, corpus)
        targets = cetc_targets(clf, corpus, CetcParams(), n_classes=5)
        assert set(targets) == {u.utt_id for u in corpus}
        by_id = {u.utt_id: u for u in corpus}
        for utt_id, gt in targets.items():
            assert gt.targets.min() >= 0.0 and gt.targets.max() <= 1.0
            # apex: each token contributes at least one full-confidence frame
            utt = by_id[utt_id]
            for token in set(utt.labels.tokens):
                assert gt.targets[:, token].max() == pytest.approx(1.0)

    def test_fused_training_targets_come_from_fused_inputs(self, monkeypatch):
        from ctctiming import synth
        from ctctiming.boundary import cetc_boundaries, cetc_guided_targets
        from ctctiming.ctc import align_spans

        corpus = generate_corpus(small_spec(n_utts=6))
        seen = []
        real = synth.cetc_targets

        def spy(clf, utts, params, n_classes):
            targets = real(clf, utts, params, n_classes)
            seen.append((clf, targets))
            return targets

        monkeypatch.setattr(synth, "cetc_targets", spy)
        config = TrainConfig(method="cetc", fuse_features=True, epochs=3, batch_size=8, seed=2)
        clf, records = train(config, corpus, n_classes=5)
        fused_dim = 2 * corpus[0].features_lo.shape[1]
        assert clf.input_dim == fused_dim
        assert {r.stage for r in records} == {"cetc-stage1", "cetc-stage2"}
        [(stage1, targets)] = seen
        assert stage1.input_dim == fused_dim and set(targets) == {u.utt_id for u in corpus}
        for utt in corpus:
            fused = np.concatenate([utt.features_hi, utt.features_lo], axis=1)
            logits, _ = model_forward(stage1, fused, utt.utt_id)
            peaks = [s.peak_frame for s in align_spans(logits, utt.labels, 0.0)]
            bounds = cetc_boundaries(peaks, utt.n_frames, config.cetc)
            want = cetc_guided_targets(
                utt.labels, peaks, bounds, config.cetc.beta, utt.n_frames, 5
            )
            assert np.array_equal(targets[utt.utt_id].targets, want.targets)
