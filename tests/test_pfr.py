import math

import numpy as np
import pytest

from ctctiming.ctc import LogitMatrix
from ctctiming.pfr import PfrParams, pfr_loss_grad
from ctctiming.synth import (
    CorpusSpec,
    TrainConfig,
    generate_corpus,
    inputs_for,
    model_forward,
    train,
)

from oracles import central_difference_grad, frozen_teacher_kd_loss, grad_relative_error


def params(lam=1.0, mu=-1, tau=1.0):
    return PfrParams(lambda_pfr=lam, mu=mu, tau=tau)


class TestPfrLoss:
    def test_identical_frames_zero(self):
        frames = np.tile(np.array([1.0, -0.5, 2.0]), (6, 1))
        loss, grad = pfr_loss_grad(LogitMatrix("u", frames, 10.0), params())
        assert loss == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(grad, 0.0)

    def test_mu_zero_is_noop(self):
        rng = np.random.default_rng(30)
        frames = rng.normal(size=(4, 3))
        loss, grad = pfr_loss_grad(LogitMatrix("u", frames, 10.0), params(mu=0))
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_binary_closed_form(self):
        frames = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = pfr_loss_grad(LogitMatrix("u", frames, 10.0), params(mu=-1, tau=1.0))
        p = 1.0 / (1.0 + math.exp(-1.0))
        q = 1.0 - p
        expected = p * math.log(p / q) + (1 - p) * math.log((1 - p) / p)
        assert loss == pytest.approx(expected, rel=1e-12)
        assert loss == pytest.approx(0.46212, abs=1e-5)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            frames = rng.normal(size=(int(rng.integers(2, 8)), int(rng.integers(2, 6))))
            for mu in (-2, -1, 1, 2):
                loss, _ = pfr_loss_grad(LogitMatrix("u", frames, 10.0), params(mu=mu))
                assert loss >= 0.0

    def test_high_temperature_flattens(self):
        rng = np.random.default_rng(32)
        frames = rng.normal(size=(6, 5))
        loss, _ = pfr_loss_grad(LogitMatrix("u", frames, 10.0), params(tau=1e6))
        assert loss < 1e-6

    def test_single_frame_warns_and_zero(self, caplog):
        with caplog.at_level("WARNING", logger="ctctiming.pfr"):
            loss, grad = pfr_loss_grad(LogitMatrix("u", np.zeros((1, 3)), 10.0), params())
        assert loss == 0.0 and np.all(grad == 0.0)
        assert "single frame" in caplog.text

    def test_mu_reversal_symmetry(self):
        rng = np.random.default_rng(33)
        frames = rng.normal(size=(7, 4))
        for mu in (1, 2):
            fwd, _ = pfr_loss_grad(LogitMatrix("u", frames[::-1].copy(), 10.0), params(mu=mu))
            rev, _ = pfr_loss_grad(LogitMatrix("u", frames, 10.0), params(mu=-mu))
            assert fwd == pytest.approx(rev, rel=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PfrParams(lambda_pfr=1.0, tau=0.0)
        with pytest.raises(ValueError):
            PfrParams(lambda_pfr=-0.1)

    def test_defaults(self):
        p = PfrParams(lambda_pfr=1.5)
        assert (p.mu, p.tau) == (-1, 10.0)


class TestPfrGradient:
    @pytest.mark.parametrize("mu,tau", [(-1, 1.0), (1, 1.0), (-1, 10.0), (2, 3.0)])
    def test_matches_teacher_frozen_finite_differences(self, mu, tau):
        rng = np.random.default_rng(34)
        for _ in range(30):
            frames = rng.normal(size=(int(rng.integers(2, 7)), int(rng.integers(2, 5))))
            _, grad = pfr_loss_grad(LogitMatrix("u", frames, 10.0), params(mu=mu, tau=tau))
            frozen = frames.copy()
            fd = central_difference_grad(
                lambda x: frozen_teacher_kd_loss(x, mu, tau, frozen), frames
            )
            assert grad_relative_error(grad, fd) <= 1e-4

    def test_stop_gradient_differs_from_full_derivative(self):
        # the full derivative (teacher moving) disagrees with the reported
        # gradient wherever a frame also serves as a teacher
        rng = np.random.default_rng(35)
        frames = rng.normal(size=(4, 3))
        mat = LogitMatrix("u", frames, 10.0)
        _, grad = pfr_loss_grad(mat, params(mu=-1, tau=1.0))
        full_fd = central_difference_grad(
            lambda x: pfr_loss_grad(LogitMatrix("u", x, 10.0), params(mu=-1, tau=1.0))[0],
            frames,
        )
        assert grad_relative_error(grad, full_fd) > 1e-3


class TestPfrTraining:
    """The trainer's pfr loss is the npc loss plus lambda_pfr times the
    peak-regularizer loss."""

    @staticmethod
    def corpus():
        return generate_corpus(CorpusSpec(n_utts=6, vocab_size=4, words_per_utt=(1, 2), seed=11))

    def test_weight_zero_trains_as_npc(self):
        corpus = self.corpus()
        sgd = dict(epochs=3, batch_size=4, learning_rate=0.1, seed=5)
        npc, npc_records = train(TrainConfig(method="npc", **sgd), corpus, n_classes=5)
        pfr, pfr_records = train(TrainConfig(method="pfr", lambda_pfr=0.0, **sgd), corpus,
                                 n_classes=5)
        for name, value in npc.params().items():
            assert np.array_equal(pfr.params()[name], value), name
        assert [r.mean_loss for r in pfr_records] == [r.mean_loss for r in npc_records]

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_recorded_loss_adds_weighted_pfr_loss(self, lam):
        corpus = self.corpus()
        sgd = dict(epochs=1, batch_size=4, learning_rate=0.0, seed=5)
        clf, npc_records = train(TrainConfig(method="npc", **sgd), corpus, n_classes=5)
        config = TrainConfig(method="pfr", lambda_pfr=lam, tau=3.0, **sgd)
        _, pfr_records = train(config, corpus, n_classes=5)
        pfr_losses = [
            pfr_loss_grad(model_forward(clf, inputs_for(clf, utt), utt.utt_id)[0], config.pfr)[0]
            for utt in corpus
        ]
        assert pfr_records[0].mean_loss == pytest.approx(
            npc_records[0].mean_loss + lam * np.mean(pfr_losses), rel=1e-12)
