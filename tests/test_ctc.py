import math
import pickle
import tracemalloc

import numpy as np
import pytest

from ctctiming.ctc import (
    AlignmentPath,
    LabelSequence,
    LogitMatrix,
    NonFiniteError,
    NoValidPathError,
    align_spans,
    apply_label_prior,
    ctc_grad,
    ctc_grad_batch,
    ctc_loss,
    ctc_loss_batch,
    forced_align,
    log_softmax_rows,
    prior_ctc_grad,
    token_spans,
)

from oracles import (
    brute_force_ctc_loss,
    cellwise_lattices,
    central_difference_grad,
    collapse,
    emitted,
    enumerate_valid_paths,
    forced_align_backpointers,
    grad_relative_error,
    logsumexp,
    path_score,
    sample_valid_path,
)


def random_instance(rng, t_max=6, v_max=4, u_max=3):
    """A random (log_probs, labels) pair guaranteed to admit a valid path."""
    while True:
        n_frames = int(rng.integers(1, t_max + 1))
        n_vocab = int(rng.integers(2, v_max + 1))
        n_labels = int(rng.integers(1, u_max + 1))
        tokens = tuple(int(x) for x in rng.integers(1, n_vocab, size=n_labels))
        repeats = sum(1 for a, b in zip(tokens, tokens[1:]) if a == b)
        if n_frames >= n_labels + repeats:
            logits = rng.normal(size=(n_frames, n_vocab))
            return logits, LabelSequence(tokens)


class TestLogSoftmax:
    def test_symmetric_pair(self):
        out = log_softmax_rows(np.array([[0.0, 0.0]]))
        assert np.allclose(out, math.log(0.5))

    def test_shift_invariance(self):
        for c in (-7.0, 0.0, 3.5):
            out = log_softmax_rows(np.array([[c, c, c]]))
            assert np.allclose(out, math.log(1.0 / 3.0))

    def test_direct_value(self):
        out = log_softmax_rows(np.array([[1.0, 0.0]]))
        assert np.allclose(out, [-0.31326, -1.31326], atol=1e-5)

    def test_rows_normalize(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(scale=30.0, size=(20, 7))
        out = log_softmax_rows(mat)
        assert np.abs(np.exp(out).sum(axis=1) - 1.0).max() < 1e-12

    def test_per_row_constant_invariance(self):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(5, 4))
        shifted = mat + rng.normal(size=(5, 1))
        assert np.allclose(log_softmax_rows(mat), log_softmax_rows(shifted))

    def test_nonfinite_rejected_naming_frame(self):
        mat = np.zeros((3, 2))
        mat[2, 1] = np.nan
        with pytest.raises(ValueError, match="frame 2"):
            log_softmax_rows(mat)

    def test_nonfinite_error_is_typed(self):
        mat = np.zeros((3, 2))
        mat[1, 0] = np.inf
        with pytest.raises(NonFiniteError, match="frame 1, vocab 0") as info:
            LogitMatrix("u7", mat, 10.0)
        assert info.value.utt_id == "u7"
        assert (info.value.frame, info.value.vocab) == (1, 0)
        assert isinstance(info.value, ValueError)

    def test_nonfinite_error_pickles(self):
        # a worker process hands it back to the parent through pickle
        err = pickle.loads(pickle.dumps(NonFiniteError("u", 0, 3)))
        assert type(err) is NonFiniteError
        assert (err.utt_id, err.frame, err.vocab) == ("u", 0, 3)
        assert str(err) == str(NonFiniteError("u", 0, 3))


class TestLogsumexp:
    def test_matches_naive(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=17)
        assert math.isclose(logsumexp(v), math.log(np.exp(v).sum()), rel_tol=1e-12)

    def test_all_neg_inf(self):
        assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf

    def test_extreme_values(self):
        assert math.isclose(logsumexp(np.array([1000.0, 1000.0])), 1000.0 + math.log(2.0))


class TestCtcLoss:
    def test_single_frame_single_label(self):
        # P(a at t0) = 0.6 -> only path is "a"
        log_probs = np.log(np.array([[0.4, 0.6]]))
        loss, _ = ctc_loss(log_probs, LabelSequence((1,)))
        assert math.isclose(loss, -math.log(0.6), rel_tol=1e-12)

    def test_two_frames_uniform(self):
        # paths {a phi, phi a, a a} each 0.25 -> loss = -ln 0.75
        log_probs = np.log(np.full((2, 2), 0.5))
        loss, _ = ctc_loss(log_probs, LabelSequence((1,)))
        assert math.isclose(loss, -math.log(0.75), rel_tol=1e-12)

    def test_repeat_forces_blank(self):
        rng = np.random.default_rng(3)
        log_probs = log_softmax_rows(rng.normal(size=(3, 3)))
        loss, _ = ctc_loss(log_probs, LabelSequence((2, 2)))
        expected = -(log_probs[0, 2] + log_probs[1, 0] + log_probs[2, 2])
        assert math.isclose(loss, expected, rel_tol=1e-12)

    def test_no_valid_path(self):
        log_probs = np.log(np.full((1, 3), 1.0 / 3.0))
        with pytest.raises(NoValidPathError):
            ctc_loss(log_probs, LabelSequence((1, 2)))
        with pytest.raises(NoValidPathError):
            ctc_loss(np.log(np.full((2, 3), 1.0 / 3.0)), LabelSequence((1, 1)))

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            logits, labels = random_instance(rng)
            log_probs = log_softmax_rows(logits)
            loss, _ = ctc_loss(log_probs, labels)
            expected = brute_force_ctc_loss(log_probs, labels.tokens)
            assert abs(loss - expected) <= 1e-6

    def test_lattice_consistency_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            logits, labels = random_instance(rng)
            log_probs = log_softmax_rows(logits)
            _, lattice = ctc_loss(log_probs, labels)
            syms = np.zeros(2 * len(labels) + 1, dtype=np.int64)
            syms[1::2] = labels.tokens
            emit = log_probs[:, syms].T
            joint = lattice.log_alpha + lattice.log_beta - emit
            per_frame = [logsumexp(joint[:, t]) for t in range(log_probs.shape[0])]
            assert np.abs(np.asarray(per_frame) - lattice.log_likelihood).max() < 1e-9

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            logits, labels = random_instance(rng)
            loss, _ = ctc_loss(log_softmax_rows(logits), labels)
            assert loss >= -1e-12


def mixed_batch(rng, n_random=5):
    """Padded-batch edge cases plus random utterances, as (logits, labels).

    Holds a single-frame utterance, repeats with exactly T = U + repeats
    frames, and the longest label sequence and the longest T in different
    utterances; vocabulary sizes differ too.
    """
    batch = [
        (rng.normal(size=(1, 3)), LabelSequence((1,))),
        (rng.normal(size=(6, 4)), LabelSequence((2, 2, 3, 3))),
        (rng.normal(size=(9, 6)), LabelSequence((1, 2, 3, 4, 5, 1))),
        (rng.normal(size=(14, 5)), LabelSequence((4,))),
    ]
    batch += [random_instance(rng, t_max=10, v_max=5, u_max=4) for _ in range(n_random)]
    return [batch[i] for i in rng.permutation(len(batch))]


class TestCtcBatch:
    def test_lattices_loss_match_one_at_a_time(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            batch = mixed_batch(rng)
            log_probs = [log_softmax_rows(x) for x, _ in batch]
            results = ctc_loss_batch(log_probs, [labels for _, labels in batch])
            for lp, (_, labels), (loss, lattice) in zip(log_probs, batch, results):
                single_loss, single = ctc_loss(lp, labels)
                assert loss == single_loss
                assert np.array_equal(lattice.log_alpha, single.log_alpha)
                assert np.array_equal(lattice.log_beta, single.log_beta)
                assert lattice.log_alpha.shape == (2 * len(labels) + 1, len(lp))

    def test_lattices_match_cellwise_recursion(self):
        rng = np.random.default_rng(22)
        # the longest utterance last or in the middle, beside T_i = 1 and U = 1 rows
        shapes = [
            [((1, 3), (1,)), ((2, 4), (3,)), ((12, 5), (1, 2, 2, 4))],
            [((3, 4), (2,)), ((11, 4), (1, 3, 1)), ((1, 2), (1,)), ((5, 3), (2, 2))],
        ]
        edge_batches = [
            [(rng.normal(size=size), LabelSequence(tokens)) for size, tokens in shape]
            for shape in shapes
        ]
        for batch in edge_batches + [mixed_batch(rng) for _ in range(10)]:
            log_probs = [log_softmax_rows(x) for x, _ in batch]
            results = ctc_loss_batch(log_probs, [labels for _, labels in batch])
            for lp, (_, labels), (_, lattice) in zip(log_probs, batch, results):
                alpha, beta = cellwise_lattices(lp, labels.tokens)
                assert np.array_equal(lattice.log_alpha, alpha)
                assert np.array_equal(lattice.log_beta, beta)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_grads_match_one_at_a_time(self, gamma):
        rng = np.random.default_rng(23)
        for _ in range(20):
            batch = mixed_batch(rng)
            logits = [LogitMatrix(f"u{i}", x, 10.0) for i, (x, _) in enumerate(batch)]
            labels = [lab for _, lab in batch]
            results = ctc_grad_batch(logits, labels, gamma)
            for lg, lab, (loss, grad) in zip(logits, labels, results):
                single = prior_ctc_grad(lg, lab, gamma) if gamma else ctc_grad(lg, lab)
                assert loss == single[0]
                assert np.array_equal(grad, single[1])

    def test_losses_match_brute_force(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            batch = [random_instance(rng) for _ in range(int(rng.integers(1, 6)))]
            log_probs = [log_softmax_rows(x) for x, _ in batch]
            results = ctc_loss_batch(log_probs, [labels for _, labels in batch])
            for lp, (_, labels), (loss, _) in zip(log_probs, batch, results):
                assert abs(loss - brute_force_ctc_loss(lp, labels.tokens)) <= 1e-6

    def test_no_valid_path_isolated(self):
        rng = np.random.default_rng(25)
        batch = [(log_softmax_rows(x), labels) for x, labels in mixed_batch(rng)]
        batch.insert(2, (log_softmax_rows(rng.normal(size=(2, 3))), LabelSequence((1, 1))))
        # long enough, but all mass on blank: every path has probability zero
        all_blank = np.full((3, 4), -np.inf)
        all_blank[:, 0] = 0.0
        batch.insert(4, (all_blank, LabelSequence((3,))))
        results = ctc_loss_batch([lp for lp, _ in batch], [labels for _, labels in batch])
        assert isinstance(results[2], NoValidPathError) and "U + repeats" in str(results[2])
        assert isinstance(results[4], NoValidPathError) and "zero total" in str(results[4])
        for i, ((lp, labels), result) in enumerate(zip(batch, results)):
            if i not in (2, 4):
                assert result[0] == ctc_loss(lp, labels)[0]

    def test_empty_batch(self):
        assert ctc_loss_batch([], []) == []
        assert ctc_grad_batch([], []) == []

    def test_label_out_of_range_raises(self):
        uniform = np.log(np.full((4, 3), 1 / 3))
        with pytest.raises(ValueError, match="out of range"):
            ctc_loss_batch([uniform, uniform], [LabelSequence((1,)), LabelSequence((3,))])


class TestCtcGrad:
    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            logits, labels = random_instance(rng)
            _, grad = ctc_grad(LogitMatrix("u", logits, 10.0), labels)
            assert np.abs(grad.sum(axis=1)).max() < 1e-9

    def test_single_frame_reduces_to_cross_entropy(self):
        logits = np.zeros((1, 4))
        _, grad = ctc_grad(LogitMatrix("u", logits, 10.0), LabelSequence((2,)))
        one_hot = np.zeros(4)
        one_hot[2] = 1.0
        assert np.allclose(grad[0], 0.25 - one_hot)

    def test_two_frame_uniform_matches_enumeration_derivative(self):
        # symbolic: L(x) = -log of 3-path sum under softmax posteriors; at the
        # uniform point the derivative is evaluated by finite differences of
        # the enumerated sum, which is exact up to the fd step
        logits = np.zeros((2, 2))
        _, grad = ctc_grad(LogitMatrix("u", logits, 10.0), LabelSequence((1,)))

        def enumerated(x):
            lp = log_softmax_rows(x)
            return brute_force_ctc_loss(lp, (1,))

        fd = central_difference_grad(enumerated, logits)
        assert grad_relative_error(grad, fd) <= 1e-7

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            logits, labels = random_instance(rng)
            _, grad = ctc_grad(LogitMatrix("u", logits, 10.0), labels)
            fd = central_difference_grad(
                lambda x: ctc_loss(log_softmax_rows(x), labels)[0], logits
            )
            assert grad_relative_error(grad, fd) <= 1e-4


class TestLabelPrior:
    def test_gamma_zero_identity(self):
        rng = np.random.default_rng(9)
        logits = LogitMatrix("u", rng.normal(size=(4, 3)), 10.0)
        out = apply_label_prior(logits, 0.0)
        assert np.array_equal(out.frames, logits.frames)
        assert out.frame_ms == logits.frame_ms and out.utt_id == logits.utt_id

    def test_constant_logits_scale(self):
        const = np.tile(np.array([2.0, -1.0, 0.5]), (5, 1))
        out = apply_label_prior(LogitMatrix("u", const, 10.0), 1.0)
        assert np.allclose(out.frames, 0.0)
        out_half = apply_label_prior(LogitMatrix("u", const, 10.0), 0.5)
        assert np.allclose(out_half.frames, 0.5 * const)

    def test_direct_evaluation(self):
        logits = LogitMatrix("u", np.array([[1.0, 3.0], [3.0, 1.0]]), 10.0)
        out = apply_label_prior(logits, 0.5)
        assert np.allclose(out.frames, [[0.0, 2.0], [2.0, 0.0]])

    def test_output_mean_shrinks(self):
        rng = np.random.default_rng(10)
        logits = LogitMatrix("u", rng.normal(size=(6, 4)), 10.0)
        for gamma in (0.25, 1.0, -0.5):
            out = apply_label_prior(logits, gamma)
            assert np.allclose(
                out.frames.mean(axis=0), (1.0 - gamma) * logits.frames.mean(axis=0)
            )

    def test_nonfinite_gamma_rejected(self):
        logits = LogitMatrix("u", np.zeros((2, 2)), 10.0)
        with pytest.raises(ValueError):
            apply_label_prior(logits, float("nan"))


class TestPriorCtcGrad:
    def test_gamma_zero_equals_plain(self):
        rng = np.random.default_rng(11)
        logits, labels = random_instance(rng)
        mat = LogitMatrix("u", logits, 10.0)
        loss0, grad0 = prior_ctc_grad(mat, labels, 0.0)
        loss1, grad1 = ctc_grad(mat, labels)
        assert math.isclose(loss0, loss1, rel_tol=1e-12)
        assert np.allclose(grad0, grad1)

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 1.0])
    def test_matches_finite_differences(self, gamma):
        rng = np.random.default_rng(12)
        for _ in range(100):
            logits, labels = random_instance(rng)
            _, grad = prior_ctc_grad(LogitMatrix("u", logits, 10.0), labels, gamma)

            def full_loss(x):
                adj = apply_label_prior(LogitMatrix("u", x, 10.0), gamma)
                return ctc_loss(log_softmax_rows(adj), labels)[0]

            fd = central_difference_grad(full_loss, logits)
            assert grad_relative_error(grad, fd) <= 1e-4


class TestForcedAlign:
    def test_peaked_posteriors(self):
        post = np.full((3, 3), 1e-3)
        post[0, 1] = post[2, 2] = post[1, 0] = 0.998
        log_probs = np.log(post / post.sum(axis=1, keepdims=True))
        path = forced_align(log_probs, LabelSequence((1, 2)))
        assert list(emitted(path)) == [1, 0, 2]

    def test_exact_tie_prefers_early_advance(self):
        log_probs = np.log(np.full((2, 2), 0.5))
        path = forced_align(log_probs, LabelSequence((1,)))
        assert list(emitted(path)) == [1, 0]

    def test_collapses_to_labels(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            logits, labels = random_instance(rng)
            path = forced_align(log_softmax_rows(logits), labels)
            assert collapse(emitted(path)) == labels.tokens

    def test_legal_transitions(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            logits, labels = random_instance(rng)
            states = forced_align(log_softmax_rows(logits), labels).states
            deltas = np.diff(states)
            assert ((deltas >= 0) & (deltas <= 2)).all()
            for t in np.flatnonzero(deltas == 2):
                # a skip may only connect distinct labels
                assert states[t + 1] % 2 == 1
                u_from, u_to = (states[t] - 1) // 2, (states[t + 1] - 1) // 2
                assert labels.tokens[u_to] != labels.tokens[u_from]

    def test_beats_random_valid_paths(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            logits, labels = random_instance(rng)
            log_probs = log_softmax_rows(logits)
            best = forced_align(log_probs, labels)
            best_score = path_score(log_probs, best)
            for _ in range(20):
                sampled = sample_valid_path(rng, log_probs.shape[0], labels.tokens)
                other = AlignmentPath(sampled, labels)
                assert collapse(emitted(other)) == labels.tokens
                assert best_score >= path_score(log_probs, other) - 1e-12

    def test_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            logits, labels = random_instance(rng, t_max=5, v_max=3)
            log_probs = log_softmax_rows(logits)
            best = forced_align(log_probs, labels)
            paths = enumerate_valid_paths(log_probs.shape[0], log_probs.shape[1], labels.tokens)
            scores = log_probs[np.arange(log_probs.shape[0])[None, :], paths].sum(axis=1)
            assert math.isclose(
                path_score(log_probs, best), float(scores.max()), rel_tol=0, abs_tol=1e-9
            )

    def test_no_valid_path(self):
        with pytest.raises(NoValidPathError):
            forced_align(np.log(np.full((1, 3), 1 / 3)), LabelSequence((1, 2)))

    def test_lattice_is_its_only_large_array(self):
        rng = np.random.default_rng(18)
        n_frames, n_vocab = 600, 50
        tokens = tuple(int(x) for x in rng.integers(1, n_vocab, size=70))
        log_probs = log_softmax_rows(rng.normal(size=(n_frames, n_vocab)))
        tracemalloc.start()
        try:
            forced_align(log_probs, LabelSequence(tokens))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 per lattice cell: T x (S + 2), with S = 2U + 1
        assert peak < 1.25 * n_frames * (2 * len(tokens) + 3) * 8

    def test_matches_backpointer_oracle(self):
        """Backtrace from the score lattice equals a stored backpointer table,
        tie for tie, and both reject the same instances."""
        rng = np.random.default_rng(17)
        n_valid = n_invalid = 0
        for i in range(15_500):
            n_vocab = int(rng.integers(2, 6))
            n_labels = int(rng.integers(1, 6))
            if i % 3 == 0:  # runs of repeated labels
                runs = rng.integers(1, 3, size=n_labels)
                tokens = np.repeat(rng.integers(1, n_vocab, size=n_labels), runs)
            else:
                tokens = rng.integers(1, n_vocab, size=n_labels)
            labels = LabelSequence(tokens)
            needed = len(labels) + labels.n_repeats
            choice = i % 6
            if choice == 0:
                n_frames = 1
            elif choice == 1:
                n_frames = needed
            elif choice == 2:
                n_frames = max(needed - 1, 1)
            else:
                n_frames = int(rng.integers(needed, needed + 8))
            shape = (n_frames, n_vocab)
            kind = i % 4
            if kind < 2:  # dense ties; a zero count makes a -inf cell
                counts = rng.integers(0 if i % 7 == 0 else 1, 3, size=shape)
                with np.errstate(divide="ignore"):
                    log_probs = np.log(counts.astype(float))
            elif kind == 2:
                log_probs = np.round(rng.normal(size=shape))
            else:
                log_probs = log_softmax_rows(rng.normal(size=shape))
            try:
                expected = forced_align_backpointers(log_probs, labels.tokens)
            except ValueError:
                with pytest.raises(NoValidPathError):
                    forced_align(log_probs, labels)
                n_invalid += 1
                continue
            assert np.array_equal(forced_align(log_probs, labels).states, expected), i
            n_valid += 1
        assert n_valid >= 10_000 and n_invalid >= 1_000


class TestPerFrameConstantInvariance:
    def test_loss_and_alignment_unchanged(self):
        rng = np.random.default_rng(17)
        logits, labels = random_instance(rng, t_max=6)
        shifted = logits + rng.normal(size=(logits.shape[0], 1)) * 5.0
        loss_a, _ = ctc_loss(log_softmax_rows(logits), labels)
        loss_b, _ = ctc_loss(log_softmax_rows(shifted), labels)
        assert math.isclose(loss_a, loss_b, rel_tol=1e-10)
        path_a = forced_align(log_softmax_rows(logits), labels)
        path_b = forced_align(log_softmax_rows(shifted), labels)
        assert np.array_equal(path_a.states, path_b.states)


class TestTokenSpans:
    def test_multi_frame_emission(self):
        labels = LabelSequence((1,))
        states = np.array([0, 0, 0, 1, 1, 1, 2])
        post = np.full((7, 2), 0.1)
        post[4, 1] = 0.9
        spans = token_spans(AlignmentPath(states, labels), post)
        assert len(spans) == 1
        assert (spans[0].start_frame, spans[0].end_frame, spans[0].peak_frame) == (3, 5, 4)

    def test_single_frame_emission(self):
        labels = LabelSequence((2,))
        states = np.array([0] * 7 + [1] + [2] * 2)
        post = np.zeros((10, 3))
        spans = token_spans(AlignmentPath(states, labels), post)
        assert (spans[0].start_frame, spans[0].end_frame, spans[0].peak_frame) == (7, 7, 7)

    def test_peak_first_frame_on_tie(self):
        labels = LabelSequence((1,))
        states = np.array([1, 1, 1])
        post = np.full((3, 2), 0.5)
        spans = token_spans(AlignmentPath(states, labels), post)
        assert spans[0].peak_frame == 0

    def test_peaky_path_yields_unit_spans(self):
        labels = LabelSequence((1, 2, 3))
        states = np.array([0, 1, 2, 3, 4, 5, 6])
        post = np.eye(7, 4)
        spans = token_spans(AlignmentPath(states, labels), post)
        assert [(s.start_frame, s.end_frame) for s in spans] == [(1, 1), (3, 3), (5, 5)]
        assert all(s.start_frame <= s.peak_frame <= s.end_frame for s in spans)

    def test_spans_ordered_disjoint(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            logits, labels = random_instance(rng)
            log_probs = log_softmax_rows(logits)
            path = forced_align(log_probs, labels)
            spans = token_spans(path, np.exp(log_probs))
            for a, b in zip(spans, spans[1:]):
                assert a.end_frame < b.start_frame


def explicit_chain(logits, labels, gamma):
    """The four calls align_spans stands for, written out."""
    log_probs = log_softmax_rows(apply_label_prior(logits, gamma))
    return token_spans(forced_align(log_probs, labels), np.exp(log_probs))


class TestAlignSpans:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_equals_explicit_chain(self, gamma):
        rng = np.random.default_rng(19)
        for i in range(200):
            frames, labels = random_instance(rng, t_max=9, v_max=4, u_max=4)
            logits = LogitMatrix(f"u{i}", frames, 10.0)
            assert align_spans(logits, labels, gamma) == explicit_chain(logits, labels, gamma)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_repeats_at_minimum_length(self, gamma):
        # T = U + repeats: every label frame and every mandatory blank is forced
        rng = np.random.default_rng(20)
        for tokens in [(1, 1), (2, 2, 2), (1, 2, 2, 1, 1), (3, 1, 1)]:
            labels = LabelSequence(tokens)
            n_frames = len(labels) + labels.n_repeats
            logits = LogitMatrix("u", rng.normal(size=(n_frames, 4)), 10.0)
            spans = align_spans(logits, labels, gamma)
            assert spans == explicit_chain(logits, labels, gamma)
            assert all(s.start_frame == s.end_frame == s.peak_frame for s in spans)
            assert all(a.end_frame < b.start_frame for a, b in zip(spans, spans[1:]))

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_too_short_raises(self, gamma):
        labels = LabelSequence((1, 2, 2))
        logits = LogitMatrix("u", np.zeros((len(labels) + labels.n_repeats - 1, 3)), 10.0)
        with pytest.raises(NoValidPathError):
            align_spans(logits, labels, gamma)
