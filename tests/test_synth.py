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
    pfr_corpus_spec,
    reference_timings,
    split_corpus,
    train,
)
from ctctiming.metrics import timing_metrics

from oracles import central_difference_grad, grad_relative_error, word_rows


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
        h.update(repr(word_rows(utt.ref_timings)).encode())
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

    # the generator's bytes: its draw order, frame layout and reference times;
    # the third spec has two tokens, so the draw that rejects a repeated token
    # runs often
    @pytest.mark.parametrize("spec, digest", [
        (CorpusSpec(), "34317f6fdb8874f0937f9e2f22b064995a31c17a1a83cf2157bea0a13841aed2"),
        (pfr_corpus_spec(), "0ecbf9855edf4b96993f6ac7d824db149976c8af3c9d37d9b8b86c588ecb3b67"),
        (CorpusSpec(vocab_size=2, span_frames=(1, 20), gap_frames=(1, 1), words_per_utt=(1, 6)),
         "1629f253429ba15735ab4955b0ad29f599e06d1fd5d2605b59e9079de69660d0"),
    ], ids=["default", "pfr", "repeat-rejection"])
    def test_output_bytes_pinned(self, spec, digest):
        assert corpus_digest(generate_corpus(spec)) == digest

    def test_noiseless_spans_constant_and_separable(self):
        # with zero noise, single-piece words are constant across their span
        # and distinct words with distinct tokens have distinct rows
        corpus = generate_corpus(small_spec(noise_sigma=0.0, pieces_per_word=(1, 1)))
        for utt in corpus:
            rows = {}
            for token, (_, start_ms, end_ms) in zip(utt.labels.tokens, word_rows(utt.ref_timings)):
                lo, hi = int(start_ms / 10), int(end_ms / 10)
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
            rows = word_rows(utt.ref_timings)
            for _, start_ms, end_ms in rows:
                assert 0.0 <= start_ms < end_ms <= utt.n_frames * 10.0
                assert start_ms % 10.0 == 0.0 and end_ms % 10.0 == 0.0
            # words ordered and non-overlapping
            for a, b in zip(rows, rows[1:]):
                assert a[2] <= b[1]

    def test_word_durations_within_construction_bounds(self):
        spec = CorpusSpec(n_utts=20, span_frames=(3, 10), pieces_per_word=(1, 3), seed=5)
        corpus = generate_corpus(spec)
        durations = [end - start for u in corpus for _, start, end in word_rows(u.ref_timings)]
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
        with pytest.raises(ValueError, match="noise_sigma must be finite"):
            CorpusSpec(noise_sigma=float("nan"))
        with pytest.raises(ValueError, match="feature_dim >= 2"):
            CorpusSpec(feature_dim=1)

    @pytest.mark.parametrize("key", ["n_utts", "vocab_size", "feature_dim", "context_window",
                                     "seed"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "4", None])
    def test_non_integer_setting_rejected(self, key, value):
        with pytest.raises(TypeError, match=rf"^{key} must be an integer, got {value!r}"):
            CorpusSpec(**{key: value})

    @pytest.mark.parametrize("key", ["pieces_per_word", "words_per_utt", "span_frames",
                                     "gap_frames"])
    @pytest.mark.parametrize("bounds", [(2.7, 5), (True, 2), (1, "3"), (1, 3.0)])
    def test_non_integer_range_rejected(self, key, bounds):
        """Nothing is truncated: (2.7, 5) used to read as (2, 5)."""
        with pytest.raises(TypeError, match=rf"^{key} must be an integer"):
            CorpusSpec(**{key: bounds})

    def test_numpy_integers_read_as_int(self):
        spec = CorpusSpec(n_utts=np.int64(3), span_frames=(np.int32(3), np.int64(8)))
        assert type(spec.n_utts) is int
        assert [type(x) for x in spec.span_frames] == [int, int]
        same = generate_corpus(CorpusSpec(n_utts=3))
        for a, b in zip(generate_corpus(spec), same, strict=True):
            assert np.array_equal(a.features_lo, b.features_lo) and a.labels == b.labels


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
                    value = ctc_loss(log_softmax_rows(out.frames), labels)[0]
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
        clf, records = train(config, corpus, n_classes=5)
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
            _, records = train(config, corpus, n_classes=5)
            stages = {r.stage for r in records}
            for stage in stages:
                recs = [r for r in records if r.stage == stage]
                assert recs[-1].mean_loss < recs[0].mean_loss, (method, stage)

    def test_training_deterministic(self):
        corpus = generate_corpus(small_spec())
        config = TrainConfig(method="npc", epochs=5, batch_size=4, seed=9)
        clf_a, rec_a = train(config, corpus, n_classes=5)
        clf_b, rec_b = train(config, corpus, n_classes=5)
        assert np.array_equal(clf_a.w3, clf_b.w3)
        assert [r.mean_loss for r in rec_a] == [r.mean_loss for r in rec_b]

    # the trainer's bytes: parameters and per-epoch losses of a short run of
    # each CTC method. Seven utterances in batches of 3 mix lengths in every
    # batch and end on a partial one; five-token labels repeat tokens
    @pytest.mark.parametrize("settings, digest", [
        ({"method": "peaky"}, "ba3bab9ceb0e4d1a7209c4f0cf149db3251312044ad6970d34e2158819833649"),
        ({"method": "npc", "gamma_train": 0.5},
         "d5f539fe36a2327c0fb4fba004743c70613924939e19ee2c5a61c1501cc7da60"),
        ({"method": "pfr", "lambda_pfr": 1.0},
         "3448365dcfd5593dd361a483474390af046de84d46a18ddd07b6c15154c95e0f"),
        ({"method": "cetc"}, "6c218c6c266d4771025f6fdde9d7e06d472e2b96acf5f551ab7716956809bd2d"),
    ], ids=["peaky", "npc", "pfr", "cetc"])
    def test_trained_bytes_pinned(self, settings, digest):
        corpus = generate_corpus(small_spec(n_utts=7))
        config = TrainConfig(epochs=3, batch_size=3, seed=1, **settings)
        clf, records = train(config, corpus, n_classes=5)
        h = hashlib.sha256()
        for name, value in clf.params().items():
            h.update(name.encode())
            h.update(value.tobytes())
        h.update(np.array([r.mean_loss for r in records]).tobytes())
        assert h.hexdigest() == digest

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
        train(TrainConfig(method="npc", epochs=3, batch_size=4, seed=1), corpus, n_classes=5)
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

    @pytest.mark.parametrize("settings, key", [
        ({"method": "pfr", "lambda_pfr": 1.0, "tau": float("inf")}, "tau"),
        ({"method": "npc", "gamma_train": float("inf")}, "gamma_train"),
        ({"method": "cetc", "beta": float("nan")}, "beta"),
        ({"method": "peaky", "learning_rate": float("nan")}, "learning_rate"),
    ])
    def test_non_finite_setting_rejected(self, settings, key):
        with pytest.raises(ValueError, match=rf"^{key} must be finite"):
            TrainConfig(**settings)

    @pytest.mark.parametrize("settings, key", [
        ({"method": "npc", "hidden": 8.0}, "hidden"),
        ({"method": "npc", "epochs": 2.5}, "epochs"),
        ({"method": "npc", "batch_size": True}, "batch_size"),
        ({"method": "npc", "seed": "7"}, "seed"),
        ({"method": "pfr", "lambda_pfr": 1.0, "mu": 0.5}, "mu"),
        ({"method": "pfr", "lambda_pfr": 1.0, "mu": False}, "mu"),
    ])
    def test_non_integer_setting_rejected(self, settings, key):
        with pytest.raises(TypeError, match=rf"^{key} must be an integer, got "):
            TrainConfig(**settings)

    def test_numpy_integer_settings_read_as_int(self):
        config = TrainConfig(method="pfr", lambda_pfr=1.0, mu=np.int64(1), epochs=np.int32(3))
        assert (config.mu, config.pfr.mu, config.epochs) == (1, 1, 3)
        assert type(config.epochs) is int and type(config.pfr.mu) is int

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(method="magic")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported_with_batch(self):
        # weights overflow to inf within a few steps at this rate
        corpus = generate_corpus(small_spec())
        config = TrainConfig(method="peaky", epochs=60, learning_rate=1e160, batch_size=4, seed=1)
        with pytest.raises(TrainingDivergedError, match="batch"):
            train(config, corpus, n_classes=5)

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
            train(config, corpus, n_classes=5)

    def test_pfr_overflowing_temperature_reported_as_divergence(self):
        # logits / tau overflow to inf. The warnings are silenced so that the
        # test sees the typed error a caller sees, not the suite's
        # error::RuntimeWarning
        corpus = generate_corpus(small_spec())
        config = TrainConfig(method="pfr", epochs=2, batch_size=4, seed=1,
                             lambda_pfr=1.0, tau=1e-308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError):
                train(config, corpus, n_classes=5)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train(TrainConfig(method="peaky"), [], n_classes=5)


class TestEvaluate:
    def test_oracle_posteriors_give_zero_deltas(self):
        # one-hot posteriors built from the construction align exactly
        from ctctiming.ctc import forced_align, token_spans
        from ctctiming.boundary import words_from_spans

        corpus = generate_corpus(small_spec(pieces_per_word=(1, 1), n_utts=8))
        hyp = {}
        for utt in corpus:
            log_probs = np.full((utt.n_frames, 5), -np.inf)
            log_probs[:, 0] = 0.0
            for token, (_, start_ms, end_ms) in zip(utt.labels.tokens, word_rows(utt.ref_timings)):
                lo, hi = int(start_ms / 10), int(end_ms / 10)
                log_probs[lo:hi, 0] = -np.inf
                log_probs[lo:hi, token] = 0.0
            states = forced_align(log_probs, utt.labels)
            spans = token_spans(states, utt.labels, np.exp(log_probs))
            hyp[utt.utt_id] = words_from_spans(spans, utt.word_map, 10.0, n_frames=utt.n_frames)
        report = timing_metrics(hyp, reference_timings(corpus), [20.0])
        assert report.n_matched == report.n_ref == sum(len(u.ref_timings) for u in corpus)
        assert report.ave_st_delta_ms == 0.0
        assert report.ave_ed_delta_ms == 0.0
        assert report.pct_ws[20.0] == 100.0

    def test_offset_translation_equivariance(self):
        corpus = generate_corpus(small_spec())
        config = TrainConfig(method="npc", epochs=10, batch_size=8, seed=3)
        clf, _ = train(config, corpus, n_classes=5)
        base = predict_timings(clf, corpus, 1.0, offset_ms=0.0)
        shifted = predict_timings(clf, corpus, 1.0, offset_ms=30.0)
        for utt_id in base:
            for a, b in zip(base[utt_id].times[0].tolist(), shifted[utt_id].times[0].tolist()):
                if a > 0:  # clamping exempt
                    assert b - a == pytest.approx(30.0)

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
        from ctctiming.boundary import WordTimes

        corpus = generate_corpus(small_spec(gap_frames=(4, 6)))
        config = TrainConfig(method="npc", epochs=15, batch_size=8, seed=3)
        clf, _ = train(config, corpus, n_classes=5)

        def evaluate(utts, offset_ms):
            pred = predict_timings(clf, utts, 1.0, offset_ms)
            return timing_metrics(pred, reference_timings(utts), [20.0])

        base = evaluate(corpus, 0.0)

        delta = 20.0
        shifted_corpus = [
            dc_replace(
                utt,
                ref_timings=WordTimes(utt.ref_timings.texts, utt.ref_timings.times + delta),
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

    @pytest.mark.parametrize("kind", ["gamma", "pfr"])
    def test_no_held_out_split_refused_before_training(self, monkeypatch, kind):
        from ctctiming import synth

        calls = []
        monkeypatch.setattr(synth, "train", lambda *args, **kwargs: calls.append(args))
        sweep = synth.sweep_gamma if kind == "gamma" else synth.sweep_pfr
        with pytest.raises(ValueError, match=r"^need n_utts >= 5 .*, got 4$"):
            sweep(small_spec(n_utts=4), epochs=1)
        assert calls == []


class TestCetcTargets:
    def test_stage2_targets_valid_for_all_utterances(self):
        from ctctiming.synth import cetc_targets

        corpus = generate_corpus(small_spec(n_utts=10))
        config = TrainConfig(method="peaky", epochs=25, learning_rate=0.1,
                             batch_size=64, seed=2)
        clf, _ = train(config, corpus, n_classes=5)
        targets = cetc_targets(clf, corpus, CetcParams())
        assert set(targets) == {u.utt_id for u in corpus}
        by_id = {u.utt_id: u for u in corpus}
        for utt_id, gt in targets.items():
            assert gt.min() >= 0.0 and gt.max() <= 1.0
            # apex: each token contributes at least one full-confidence frame
            utt = by_id[utt_id]
            for token in set(utt.labels.tokens):
                assert gt[:, token].max() == pytest.approx(1.0)

    def test_fused_training_targets_come_from_fused_inputs(self, monkeypatch):
        from ctctiming import synth
        from ctctiming.boundary import cetc_boundaries, cetc_guided_targets
        from ctctiming.ctc import align_spans

        corpus = generate_corpus(small_spec(n_utts=6))
        seen = []
        real = synth.cetc_targets

        def spy(clf, utts, params):
            targets = real(clf, utts, params)
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
            peaks = align_spans(logits, utt.labels, 0.0)[2]
            bounds = cetc_boundaries(peaks, utt.n_frames, config.cetc)
            want = cetc_guided_targets(
                utt.labels, peaks, bounds, config.cetc.beta, utt.n_frames, 5
            )
            assert np.array_equal(targets[utt.utt_id], want)
