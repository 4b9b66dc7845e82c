import math

import numpy as np
import pytest

from ctctiming.boundary import (
    CetcParams,
    GuidedTargets,
    WordMap,
    WordTiming,
    cetc_boundaries,
    cetc_guided_targets,
    guided_ce_grad,
    MAX_OFFSETS,
    gridsearch_offset,
    offset_count,
    words_from_spans,
)
from ctctiming.ctc import LabelSequence, LogitMatrix, TokenSpan

from oracles import central_difference_grad, grad_relative_error, log_softmax


def span(u, start, end, peak=None):
    return TokenSpan(u, start, end, start if peak is None else peak)


class TestCetcBoundaries:
    def test_middle_token_direct(self):
        bounds = cetc_boundaries([10, 20, 30], 40)
        assert bounds[1] == (18, 27)

    def test_single_token_virtual_neighbors(self):
        bounds = cetc_boundaries([5], 10)
        # left neighbor 0, right neighbor T-1=9: start 5-0.2*5=4, end 5+0.7*4=7.8->8
        assert bounds == [(4, 8)]

    def test_zero_alphas_collapse_to_peaks(self):
        params = CetcParams(alpha_left=0.0, alpha_right=0.0)
        assert cetc_boundaries([3, 9, 14], 20, params) == [(3, 3), (9, 9), (14, 14)]

    def test_non_increasing_peaks_rejected(self):
        with pytest.raises(ValueError):
            cetc_boundaries([5, 5], 10)
        with pytest.raises(ValueError):
            cetc_boundaries([7, 3], 10)
        with pytest.raises(ValueError):
            cetc_boundaries([3, 9], 9)

    def test_defaults_never_overlap(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            peaks = np.sort(rng.choice(np.arange(60), size=n, replace=False))
            bounds = cetc_boundaries(peaks, 64)
            for (s0, e0), (s1, e1) in zip(bounds, bounds[1:]):
                assert e0 < s1
            for (s, e), p in zip(bounds, peaks):
                assert s <= p <= e


class TestGuidedTargets:
    def test_peak_frame_is_one(self):
        labels = LabelSequence((1,))
        gt = cetc_guided_targets(labels, [5], [(3, 8)], 0.5, 10, 3)
        assert gt.targets[5, 1] == 1.0

    def test_left_midpoint_value(self):
        labels = LabelSequence((2,))
        gt = cetc_guided_targets(labels, [4], [(2, 6)], 0.5, 8, 3)
        assert math.isclose(gt.targets[3, 2], math.sqrt(0.5))

    def test_right_ramp_decreases(self):
        labels = LabelSequence((1,))
        gt = cetc_guided_targets(labels, [2], [(0, 6)], 0.5, 8, 2)
        right = gt.targets[2:7, 1]
        assert np.all(np.diff(right) < 0) and right[0] == 1.0

    def test_outside_spans_blank_one(self):
        labels = LabelSequence((1,))
        gt = cetc_guided_targets(labels, [5], [(4, 6)], 0.5, 10, 3)
        assert gt.targets[0, 1] == 0.0 and gt.targets[0, 2] == 0.0
        assert gt.targets[0, 0] == 1.0

    def test_blank_row_complements(self):
        labels = LabelSequence((1, 2))
        gt = cetc_guided_targets(labels, [3, 8], [(2, 5), (6, 9)], 0.5, 12, 3)
        non_blank = gt.targets[:, 1:].sum(axis=1)
        assert np.allclose(gt.targets[:, 0], 1.0 - non_blank)
        assert gt.targets.min() >= 0.0 and gt.targets.max() <= 1.0

    def test_zero_length_left_side(self):
        labels = LabelSequence((1,))
        gt = cetc_guided_targets(labels, [2], [(2, 5)], 0.5, 8, 2)
        assert gt.targets[2, 1] == 1.0

    def test_overlap_later_token_wins(self, caplog):
        labels = LabelSequence((1, 2))
        with caplog.at_level("WARNING", logger="ctctiming.boundary"):
            gt = cetc_guided_targets(labels, [2, 4], [(1, 5), (3, 6)], 1.0, 8, 3)
        assert "contested" in caplog.text
        # frames 3..5 belong to token 1 now; token 0 contributes nothing there
        assert np.all(gt.targets[3:6, 1] == 0.0)
        assert gt.targets[4, 2] == 1.0


class TestGuidedCeGrad:
    def test_one_hot_match_near_zero(self):
        targets = np.zeros((3, 4))
        targets[:, 2] = 1.0
        logits = np.full((3, 4), -30.0)
        logits[:, 2] = 30.0
        loss, _ = guided_ce_grad(LogitMatrix("u", logits, 10.0), GuidedTargets(targets))
        assert loss < 1e-9

    def test_uniform_targets_closed_form(self):
        rng = np.random.default_rng(21)
        n_frames, n_vocab = 5, 4
        logits = rng.normal(size=(n_frames, n_vocab))
        targets = GuidedTargets(np.full((n_frames, n_vocab), 1.0 / n_vocab))
        _, grad = guided_ce_grad(LogitMatrix("u", logits, 10.0), targets)
        expected = (np.exp(log_softmax(logits)) - 1.0 / n_vocab) / n_frames
        assert np.allclose(grad, expected)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n_frames = int(rng.integers(1, 6))
            n_vocab = int(rng.integers(2, 5))
            logits = rng.normal(size=(n_frames, n_vocab))
            targets = GuidedTargets(rng.uniform(size=(n_frames, n_vocab)))
            _, grad = guided_ce_grad(LogitMatrix("u", logits, 10.0), targets)
            fd = central_difference_grad(
                lambda x: guided_ce_grad(LogitMatrix("u", x, 10.0), targets)[0], logits
            )
            assert grad_relative_error(grad, fd) <= 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            guided_ce_grad(
                LogitMatrix("u", np.zeros((3, 4)), 10.0), GuidedTargets(np.zeros((3, 5)))
            )


class TestWordsFromSpans:
    def test_two_piece_word(self):
        spans = [span(0, 3, 5), span(1, 6, 8)]
        word_map = WordMap((("hello", 0, 1),))
        words = words_from_spans(spans, word_map, 40.0, 0.0, n_frames=12)
        assert words == [WordTiming("hello", 120.0, 360.0)]

    def test_offset_shifts_both_ends(self):
        spans = [span(0, 3, 5), span(1, 6, 8)]
        word_map = WordMap((("hello", 0, 1),))
        base = words_from_spans(spans, word_map, 40.0, 0.0, n_frames=12)
        shifted = words_from_spans(spans, word_map, 40.0, 40.0, n_frames=12)
        assert shifted[0].start_ms == base[0].start_ms + 40.0
        assert shifted[0].end_ms == base[0].end_ms + 40.0

    def test_single_piece_at_origin(self):
        words = words_from_spans([span(0, 0, 0)], WordMap((("a", 0, 0),)), 10.0)
        assert words == [WordTiming("a", 0.0, 10.0)]

    def test_clamping(self):
        spans = [span(0, 0, 9)]
        words = words_from_spans(spans, WordMap((("a", 0, 0),)), 10.0, -25.0, n_frames=10)
        assert words[0].start_ms == 0.0 and words[0].end_ms == 75.0
        words = words_from_spans(spans, WordMap((("a", 0, 0),)), 10.0, 30.0, n_frames=10)
        assert words[0].end_ms == 100.0

    def test_piece_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            words_from_spans([span(0, 0, 1)], WordMap((("ab", 0, 1),)), 10.0)

    def test_offset_equivariance(self):
        rng = np.random.default_rng(23)
        spans = [span(0, 2, 4), span(1, 5, 6), span(2, 9, 12)]
        word_map = WordMap((("x", 0, 1), ("y", 2, 2)))
        for _ in range(20):
            delta = float(rng.uniform(-20, 20))
            a = words_from_spans(spans, word_map, 10.0, 50.0)
            b = words_from_spans(spans, word_map, 10.0, 50.0 + delta)
            for wa, wb in zip(a, b):
                assert math.isclose(wb.start_ms - wa.start_ms, delta)
                assert math.isclose(wb.end_ms - wa.end_ms, delta)


class TestWordMap:
    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            WordMap((("a", 0, 1), ("b", 3, 4)))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            WordMap((("a", 0, 2), ("b", 2, 3)))

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            WordMap((("a", 1, 2),))


def make_timings(words, starts, duration=100.0):
    return [
        WordTiming(w, float(s), float(s) + duration) for w, s in zip(words, starts)
    ]


class TestGridsearchOffset:
    def test_recovers_injected_bias(self):
        # 40 ms early with +/-10 ms jitter: only +40 centers every word
        # inside the 20 ms threshold
        ref = {"u1": make_timings(list("abcde"), [100, 300, 500, 700, 900])}
        jitter = [-10, 0, 10, -10, 10]
        pred = {
            "u1": make_timings(
                list("abcde"), [s - 40 + j for s, j in zip([100, 300, 500, 700, 900], jitter)]
            )
        }
        best, report, curve = gridsearch_offset(pred, ref, (-200, 200), 10.0, 20.0)
        assert best == 40.0
        assert report.pct_ws[20.0] == 100.0
        assert len(curve) == 41

    def test_zero_bias(self):
        ref = {"u1": make_timings(list("abc"), [100, 300, 500])}
        best, report, _ = gridsearch_offset(ref, ref, (-200, 200), 10.0, 80.0)
        assert best == 0.0
        assert report.ave_st_delta_ms == 0.0

    def test_tie_prefers_smallest_magnitude(self):
        # all offsets in a window score equally; 0 must win
        ref = {"u1": make_timings(["a"], [500])}
        pred = {"u1": make_timings(["a"], [500])}
        best, _, curve = gridsearch_offset(pred, ref, (-30, 30), 10.0, 80.0)
        scores = {off: s for off, s in curve}
        assert scores[-10.0] == scores[0.0] == scores[10.0]
        assert best == 0.0

    def test_best_score_at_least_zero_offset(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            starts = np.cumsum(rng.integers(100, 400, size=6))
            ref = {"u": make_timings(list("abcdef"), starts)}
            pred = {"u": make_timings(list("abcdef"), starts + rng.normal(0, 60, size=6))}
            _, _, curve = gridsearch_offset(pred, ref, (-100, 100), 10.0, 80.0)
            scores = dict(curve)
            assert max(scores.values()) >= scores[0.0]

    def test_picks_best_offset_under_reported_clamp(self):
        """Shifted times clamp at 0 in the curve as in the report: unclamped,
        -30 and -40 tie and -30 would win with %WS<15 at 66.7."""
        ref = {"u": make_timings(list("abc"), [1, 7, 17], duration=50.0)}
        pred = {"u": make_timings(list("abc"), [38, 24, 66], duration=50.0)}
        best, report, curve = gridsearch_offset(pred, ref, (-100, 100), 10.0, 15.0)
        assert best == -40.0
        assert report.pct_ws[15.0] == 100.0
        assert report.pct_we[15.0] == pytest.approx(200.0 / 3)
        assert dict(curve)[best] == max(score for _, score in curve)
        assert dict(curve)[best] == pytest.approx(report.pct_ws[15.0] + report.pct_we[15.0])

    def test_scores_only_shared_utterances(self):
        ref = {"u1": make_timings(list("ab"), [100, 300]),
               "u2": make_timings(list("cde"), [100, 300, 500])}
        pred = {"u1": make_timings(list("ab"), [100, 300]), "u3": make_timings(["x"], [10])}
        _, report, _ = gridsearch_offset(pred, ref, (-10, 10), 10.0, 80.0)
        assert (report.n_matched, report.n_hyp, report.n_ref) == (2, 2, 2)

    def test_nothing_to_score(self):
        with pytest.raises(ValueError, match="nothing to score"):
            gridsearch_offset(
                {"u": make_timings(["a"], [10])}, {"v": make_timings(["a"], [10])},
                (-10, 10), 10.0, 80.0,
            )

    def test_bad_grid_rejected(self):
        ref = {"u": make_timings(["a"], [10])}
        with pytest.raises(ValueError):
            gridsearch_offset(ref, ref, (10, -10), 10.0, 80.0)
        with pytest.raises(ValueError):
            gridsearch_offset(ref, ref, (-10, 10), 0.0, 80.0)

    @pytest.mark.parametrize("range_ms, step_ms", [
        ((0.0, 1e300), 1e-300),  # the count overflows to infinity
        ((0.0, float(MAX_OFFSETS)), 1.0),  # one offset more than the bound
        ((float("-inf"), 0.0), 1.0),
    ], ids=["infinite", "above-bound", "infinite-range"])
    def test_too_many_offsets_rejected(self, range_ms, step_ms):
        ref = {"u": make_timings(["a"], [10])}
        with pytest.raises(ValueError, match="offsets"):
            gridsearch_offset(ref, ref, range_ms, step_ms, 80.0)

    def test_offset_count_at_bound(self):
        assert offset_count((0.0, MAX_OFFSETS - 1.0), 1.0) == MAX_OFFSETS
        assert offset_count((-200.0, 200.0), 10.0) == 41
