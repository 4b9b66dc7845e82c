import math
import os
import re

import numpy as np
import pytest

from ctctiming import boundary, cli, dataio
from ctctiming.boundary import (
    CetcParams,
    WordMap,
    WordTimes,
    cetc_boundaries,
    cetc_guided_targets,
    guided_ce_grad,
    MAX_OFFSETS,
    gridsearch_offset,
    offset_count,
    words_from_spans,
)
from ctctiming.ctc import LabelSequence, LogitMatrix, _symbols
from ctctiming.synth import (Classifier, CorpusSpec, _sweep_scores, generate_corpus,
                             split_corpus)

from oracles import (TimedWord, cetc_boundaries_loop, central_difference_grad,
                     grad_relative_error, gridsearch_rebuilt, guided_targets_loop, log_softmax,
                     object_match_words, word_objects, word_rows, word_times)


def spans(*extents):
    """A (3, U) span array of (start, end) frame pairs; each peak is its start."""
    return np.array([(start, end, start) for start, end in extents], dtype=np.int64).T


def bounds(*extents):
    """cetc_boundaries' (2, U) array of (start, end) frame pairs."""
    return np.array(extents, dtype=np.int64).T


class TestCetcBoundaries:
    def test_middle_token_direct(self):
        frames = cetc_boundaries([10, 20, 30], 40)
        assert frames[:, 1].tolist() == [18, 27]

    def test_single_token_virtual_neighbors(self):
        frames = cetc_boundaries([5], 10)
        # left neighbor 0, right neighbor T-1=9: start 5-0.2*5=4, end 5+0.7*4=7.8->8
        assert frames.tolist() == [[4], [8]]

    def test_zero_alphas_collapse_to_peaks(self):
        params = CetcParams(alpha_left=0.0, alpha_right=0.0)
        assert cetc_boundaries([3, 9, 14], 20, params).tolist() == [[3, 9, 14], [3, 9, 14]]

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
            starts, ends = cetc_boundaries(peaks, 64)
            assert np.all(ends[:-1] < starts[1:])
            assert np.all((starts <= peaks) & (peaks <= ends))


class TestGuidedTargets:
    def test_peak_frame_is_one(self):
        labels = LabelSequence((1,))
        gt = cetc_guided_targets(labels, [5], bounds((3, 8)), 0.5, 10, 3)
        assert gt[5, 1] == 1.0

    def test_left_midpoint_value(self):
        labels = LabelSequence((2,))
        gt = cetc_guided_targets(labels, [4], bounds((2, 6)), 0.5, 8, 3)
        assert math.isclose(gt[3, 2], math.sqrt(0.5))

    def test_right_ramp_decreases(self):
        labels = LabelSequence((1,))
        gt = cetc_guided_targets(labels, [2], bounds((0, 6)), 0.5, 8, 2)
        right = gt[2:7, 1]
        assert np.all(np.diff(right) < 0) and right[0] == 1.0

    def test_outside_spans_blank_one(self):
        labels = LabelSequence((1,))
        gt = cetc_guided_targets(labels, [5], bounds((4, 6)), 0.5, 10, 3)
        assert gt[0, 1] == 0.0 and gt[0, 2] == 0.0
        assert gt[0, 0] == 1.0

    def test_blank_row_complements(self):
        labels = LabelSequence((1, 2))
        gt = cetc_guided_targets(labels, [3, 8], bounds((2, 5), (6, 9)), 0.5, 12, 3)
        non_blank = gt[:, 1:].sum(axis=1)
        assert np.allclose(gt[:, 0], 1.0 - non_blank)
        assert gt.min() >= 0.0 and gt.max() <= 1.0

    def test_zero_length_left_side(self):
        labels = LabelSequence((1,))
        gt = cetc_guided_targets(labels, [2], bounds((2, 5)), 0.5, 8, 2)
        assert gt[2, 1] == 1.0

    def test_overlap_later_token_wins(self, caplog):
        labels = LabelSequence((1, 2))
        with caplog.at_level("WARNING", logger="ctctiming.boundary"):
            gt = cetc_guided_targets(labels, [2, 4], bounds((1, 5), (3, 6)), 1.0, 8, 3)
        assert "contested" in caplog.text
        # frames 3..5 belong to token 1 now; token 0 contributes nothing there
        assert np.all(gt[3:6, 1] == 0.0)
        assert gt[4, 2] == 1.0


class TestCetcArrays:
    @pytest.mark.parametrize("call, error, match", [
        (lambda: cetc_boundaries([-3, 2], 10), ValueError,
         r"peaks must increase strictly within \[0, T=10\), got \[-3, 2\]"),
        (lambda: cetc_boundaries([2.7, 5], 10), TypeError, r"peaks must be integer"),
        (lambda: cetc_guided_targets(LabelSequence((5,)), [2], bounds((1, 3)), 0.5, 10, 3),
         ValueError, r"label id 5 out of range for V=3"),
        (lambda: cetc_guided_targets(LabelSequence((1,)), [7], bounds((1, 3)), 0.5, 10, 3),
         ValueError, r"token 0: .* peak 7"),
        (lambda: cetc_guided_targets(LabelSequence((1,)), [0], bounds((1, 3)), 0.5, 10, 3),
         ValueError, r"token 0: .* peak 0"),
    ], ids=["negative-peak", "float-peak", "label-id", "peak-after-end", "peak-before-start"])
    def test_bad_input_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    @pytest.mark.parametrize("tokens, n_vocab", [((5,), 3), ((1, 4, 2), 4), ((2, 9, 9), 2)])
    def test_label_range_message_is_the_lattices(self, tokens, n_vocab):
        """The guided targets and the CTC lattice refuse a label id past the
        vocabulary with the message of the one check, LabelSequence's."""
        labels = LabelSequence(tokens)
        peaks = 3 * np.arange(len(tokens)) + 1
        with pytest.raises(ValueError) as check:
            labels.check_vocab(n_vocab)
        with pytest.raises(ValueError) as lattice:
            _symbols(np.zeros((12, n_vocab)), labels)
        with pytest.raises(ValueError) as targets:
            cetc_guided_targets(labels, peaks, np.array((peaks - 1, peaks + 1)), 0.5, 12, n_vocab)
        want = f"label id {max(tokens)} out of range for V={n_vocab}"
        assert str(check.value) == str(lattice.value) == str(targets.value) == want
        labels.check_vocab(max(tokens) + 1)

    def test_match_the_loops(self):
        rng = np.random.default_rng(27)
        alphas, betas = (0.0, 0.2, 0.5, 0.7, 1.0), (0.3, 0.5, 0.7, 1.0, 2.0)
        contested = 0
        for _ in range(2000):
            n_frames = int(rng.integers(1, 81))
            n_tokens = int(rng.integers(1, min(12, n_frames) + 1))
            peaks = np.sort(rng.choice(n_frames, size=n_tokens, replace=False))
            params = CetcParams(*(float(rng.choice(values)) for values in (alphas, alphas, betas)))
            tokens = tuple(int(k) for k in rng.integers(1, 5, size=n_tokens))
            frames = cetc_boundaries(peaks, n_frames, params)
            loop = cetc_boundaries_loop(peaks, n_frames, params.alpha_left, params.alpha_right)
            assert frames.tobytes() == np.array(loop, dtype=np.int64).T.tobytes()
            contested += int(np.any(frames[1, :-1] >= frames[0, 1:]))
            got = cetc_guided_targets(LabelSequence(tokens), peaks, frames, params.beta,
                                      n_frames, 5)
            want = guided_targets_loop(tokens, peaks, loop, params.beta, n_frames, 5)
            assert got.tobytes() == want.tobytes()
        assert contested > 100


class TestGuidedCeGrad:
    def test_one_hot_match_near_zero(self):
        targets = np.zeros((3, 4))
        targets[:, 2] = 1.0
        logits = np.full((3, 4), -30.0)
        logits[:, 2] = 30.0
        loss, _ = guided_ce_grad(LogitMatrix("u", logits, 10.0), targets)
        assert loss < 1e-9

    def test_uniform_targets_closed_form(self):
        rng = np.random.default_rng(21)
        n_frames, n_vocab = 5, 4
        logits = rng.normal(size=(n_frames, n_vocab))
        targets = np.full((n_frames, n_vocab), 1.0 / n_vocab)
        _, grad = guided_ce_grad(LogitMatrix("u", logits, 10.0), targets)
        expected = (np.exp(log_softmax(logits)) - 1.0 / n_vocab) / n_frames
        assert np.allclose(grad, expected)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n_frames = int(rng.integers(1, 6))
            n_vocab = int(rng.integers(2, 5))
            logits = rng.normal(size=(n_frames, n_vocab))
            targets = rng.uniform(size=(n_frames, n_vocab))
            _, grad = guided_ce_grad(LogitMatrix("u", logits, 10.0), targets)
            fd = central_difference_grad(
                lambda x: guided_ce_grad(LogitMatrix("u", x, 10.0), targets)[0], logits
            )
            assert grad_relative_error(grad, fd) <= 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            guided_ce_grad(
                LogitMatrix("u", np.zeros((3, 4)), 10.0), np.zeros((3, 5))
            )


class TestWordsFromSpans:
    def test_two_piece_word(self):
        word_map = WordMap((("hello", 0, 1),))
        words = words_from_spans(spans((3, 5), (6, 8)), word_map, 40.0, 0.0, n_frames=12)
        assert word_rows(words) == [("hello", 120.0, 360.0)]

    def test_offset_shifts_both_ends(self):
        pieces = spans((3, 5), (6, 8))
        word_map = WordMap((("hello", 0, 1),))
        base = words_from_spans(pieces, word_map, 40.0, 0.0, n_frames=12)
        shifted = words_from_spans(pieces, word_map, 40.0, 40.0, n_frames=12)
        assert shifted.times[0, 0] == base.times[0, 0] + 40.0
        assert shifted.times[1, 0] == base.times[1, 0] + 40.0

    def test_single_piece_at_origin(self):
        words = words_from_spans(spans((0, 0)), WordMap((("a", 0, 0),)), 10.0, n_frames=1)
        assert word_rows(words) == [("a", 0.0, 10.0)]

    def test_clamping(self):
        pieces = spans((0, 9))
        words = words_from_spans(pieces, WordMap((("a", 0, 0),)), 10.0, -25.0, n_frames=10)
        assert words.times[:, 0].tolist() == [0.0, 75.0]
        words = words_from_spans(pieces, WordMap((("a", 0, 0),)), 10.0, 30.0, n_frames=10)
        assert words.times[1, 0] == 100.0

    def test_frame_count_required(self):
        with pytest.raises(TypeError, match="n_frames"):
            words_from_spans(spans((0, 0)), WordMap((("a", 0, 0),)), 10.0)

    def test_piece_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            words_from_spans(spans((0, 1)), WordMap((("ab", 0, 1),)), 10.0, n_frames=2)

    def test_offset_equivariance(self):
        rng = np.random.default_rng(23)
        pieces = spans((2, 4), (5, 6), (9, 12))
        word_map = WordMap((("x", 0, 1), ("y", 2, 2)))
        for _ in range(20):
            delta = float(rng.uniform(-20, 20))
            a = words_from_spans(pieces, word_map, 10.0, 50.0, n_frames=100)
            b = words_from_spans(pieces, word_map, 10.0, 50.0 + delta, n_frames=100)
            for ta, tb in zip(a.times.T.tolist(), b.times.T.tolist()):
                assert math.isclose(tb[0] - ta[0], delta)
                assert math.isclose(tb[1] - ta[1], delta)

    @pytest.mark.parametrize("seed", range(6))
    def test_columns_equal_the_per_word_rule(self, seed):
        """The columns hold, bit for bit, what each word gets from float
        arithmetic on its own spans, clamped as
        min(max(t, 0), n_frames * frame_ms)."""
        rng = np.random.default_rng(seed)
        n_pieces = int(rng.integers(1, 30))
        edges = np.cumsum(rng.integers(0, 5, size=2 * n_pieces))
        pieces = spans(*((int(edges[2 * u]), int(edges[2 * u + 1])) for u in range(n_pieces)))
        cuts = sorted(set(rng.integers(1, n_pieces + 1, size=4).tolist()) | {n_pieces})
        word_map = WordMap(tuple((f"w{k}", a, b - 1)
                                 for k, (a, b) in enumerate(zip([0] + cuts, cuts))))
        frame_ms = float(rng.choice([10.0, 20.0, 40.0, 33.3]))
        n_frames = int(edges[-1]) + 1 - int(rng.integers(0, 3))
        for offset_ms in (0.0, -55.5, 17.25, float(rng.uniform(-500, 500))):
            for frames in (n_frames, n_frames + 1000):  # the second clamps no end
                hi = frames * frame_ms
                want = []
                for word, first, last in word_map.words:
                    start = int(pieces[0, first]) * frame_ms + offset_ms
                    end = (int(pieces[1, last]) + 1) * frame_ms + offset_ms
                    want.append((word, min(max(start, 0.0), hi), min(max(end, 0.0), hi)))
                words = words_from_spans(pieces, word_map, frame_ms, offset_ms, n_frames=frames)
                assert isinstance(words, WordTimes)
                assert words.times.dtype == np.float64 and not words.times.flags.writeable
                assert list(zip(words.texts, *words.times.tolist())) == want

    def test_bad_spans_raise_the_word_error(self):
        """Spans whose word would end before it starts raise the word's error."""
        with pytest.raises(ValueError, match=re.escape("'ab': need 0 <= start <= end < inf")):
            words_from_spans(spans((5, 5), (1, 1)), WordMap((("ab", 0, 1),)), 10.0, n_frames=10)

    def test_start_and_end_rows_suffice(self):
        """A (2, U) array of start and end rows gives what its (3, U) array gives."""
        pieces = spans((2, 4), (5, 6), (9, 12))
        word_map = WordMap((("x", 0, 1), ("y", 2, 2)))
        want = words_from_spans(pieces, word_map, 10.0, -15.0, n_frames=13)
        got = words_from_spans(pieces[:2], word_map, 10.0, -15.0, n_frames=13)
        assert word_rows(got) == word_rows(want) == [("x", 5.0, 55.0), ("y", 75.0, 115.0)]


class TestWordTimes:
    """WordTimes(texts, times) is the one constructor and holds the per-word
    rule: a str text, numbers (not bool) as times, 0 <= start <= end < inf."""

    def test_columns(self):
        times = np.array([[0, 10, 30], [10, 25, 30]])
        words = WordTimes(["a", "b", "c"], times)
        assert words.texts == ("a", "b", "c") and len(words) == 3
        assert words.times.dtype == np.float64 and words.times.tolist() == times.tolist()
        assert not words.times.flags.writeable
        empty = WordTimes((), np.empty((2, 0)))
        assert empty.texts == () and empty.times.shape == (2, 0) and len(empty) == 0

    def test_not_a_sequence(self):
        from collections.abc import Sequence

        words = WordTimes(["a"], [[0.0], [10.0]])
        assert not isinstance(words, Sequence)
        with pytest.raises(TypeError):
            words[0]

    @pytest.mark.parametrize("times", [np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(2),
                                       np.zeros((2, 2, 1))],
                             ids=["too-many", "three-rows", "1-d", "3-d"])
    def test_shape_mismatch_rejected(self, times):
        with pytest.raises(ValueError, match=re.escape("times must have shape (2, 2), got")):
            WordTimes(["a", "b"], times)

    @pytest.mark.parametrize("times, message", [
        (np.array([[False], [True]]), "start_ms must be a number, got False"),
        (np.array([[0.0], [True]], dtype=object), "end_ms must be a number, got True"),
        (np.array([["0"], ["10"]]), "start_ms must be a number, got '0'"),
        (np.array([[0.0], [None]], dtype=object), "end_ms must be a number, got None"),
    ], ids=["bool-dtype", "bool-object", "string-dtype", "none-object"])
    def test_non_number_times_rejected(self, times, message):
        with pytest.raises(TypeError) as err:
            WordTimes(["a"], times)
        assert str(err.value) == message

    @pytest.mark.parametrize("start, end", [(-5.0, 10.0), (50.5, 10.0), (0.0, np.inf),
                                            (np.nan, 1.0), (0.0, np.nan)])
    def test_out_of_order_rejected(self, start, end):
        with pytest.raises(ValueError) as err:
            WordTimes(["a"], [[start], [end]])
        assert str(err.value) == f"'a': need 0 <= start <= end < inf, got ({start}, {end})"

    def test_first_bad_word_raises(self):
        """Words are checked in order, each text then start then end then range,
        and the first bad one raises its own error, whatever follows it."""
        times = np.empty((2, 4), dtype=object)
        times[:] = [[0, 20.0, 9, "x"], [10, 30.0, 1, None]]
        with pytest.raises(ValueError, match=re.escape("'c': need 0 <= start <= end < inf, "
                                                       "got (9.0, 1.0)")):
            WordTimes(["a", "b", "c", 5], times)
        with pytest.raises(TypeError, match="word text must be a string, got 5"):
            WordTimes(["a", "b", 5, "d"], times)
        with pytest.raises(TypeError, match="start_ms must be a number, got 'x'"):
            WordTimes(["a", "b", "c", "d"], np.where(times == 9, 0, times))

    def test_read_only_times_accepted(self):
        times = np.array([[0.0], [10.0]])
        times.flags.writeable = False
        words = WordTimes(["a"], times)
        assert word_rows(words) == [("a", 0.0, 10.0)] and not words.times.flags.writeable

    def test_caller_array_left_writable(self):
        times = np.array([[0.0, 5.0], [10.0, 15.0]])
        words = WordTimes(["a", "b"], times)
        assert times.flags.writeable and not words.times.flags.writeable
        times[0, 0] = 1.0
        assert words.times[0, 0] == 0.0


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

    def test_numpy_integer_ranges_become_ints(self):
        word_map = WordMap((("a", np.int64(0), np.int32(1)), ("b", np.uint8(2), 2)))
        assert word_map.words == (("a", 0, 1), ("b", 2, 2))
        assert all(type(x) is int for _, first, last in word_map.words for x in (first, last))

    @pytest.mark.parametrize("words, message", [
        ((("a", 0, 1.9),), "last piece must be an integer, got 1.9"),
        ((("a", 0.0, 0),), "first piece must be an integer, got 0.0"),
        ((("a", False, True),), "first piece must be an integer, got False"),
        ((("a", "0", 0),), "first piece must be an integer, got '0'"),
        (((5, 0, 0),), "word text must be a string, got 5"),
        (((None, 0, 0),), "word text must be a string, got None"),
    ], ids=["float-last", "float-first", "bool", "str-index", "int-text", "none-text"])
    def test_non_integer_range_or_non_string_text_rejected(self, words, message):
        with pytest.raises(TypeError, match=re.escape(message)):
            WordMap(words)


class TestWordTiming:
    """One word's rule, as WordTimes(texts, times) applies it to each word."""

    @pytest.mark.parametrize("word", [5, None, ["a"], b"a"], ids=["int", "none", "list", "bytes"])
    def test_non_string_word_rejected(self, word):
        with pytest.raises(TypeError) as err:
            WordTimes(["a", word], [[0.0, 0.0], [10.0, 10.0]])
        assert str(err.value) == f"word text must be a string, got {word!r}"

    @pytest.mark.parametrize("start, end, message", [
        ("0", 10.0, "start_ms must be a number, got '0'"),
        (0.0, True, "end_ms must be a number, got True"),
        (False, 10.0, "start_ms must be a number, got False"),
        (None, 10.0, "start_ms must be a number, got None"),
    ], ids=["start-string", "end-bool", "start-bool", "start-none"])
    def test_non_number_time_rejected(self, start, end, message):
        times = np.empty((2, 1), dtype=object)
        times[:, 0] = start, end
        with pytest.raises(TypeError, match=message):
            WordTimes(["a"], times)

    def test_times_stored_as_floats(self):
        times = np.array([[0, np.int64(3)], [np.uint8(10), 12.5]], dtype=object)
        words = WordTimes(["a", "b"], times)
        assert words.times.dtype == np.float64
        assert words.times.tolist() == [[0.0, 3.0], [10.0, 12.5]]
        assert all(type(x) is float for row in word_rows(words) for x in row[1:])


def make_timings(words, starts, duration=100.0):
    return word_times((w, float(s), float(s) + duration) for w, s in zip(words, starts))


def edited_documents(seed, n_utts=4):
    """Seeded reference and hypothesis documents for the offset search.

    Words come from 8 types, with integer times: each reference starts at 0 ms
    and its words follow within 0-120 ms with 0-200 ms durations. The
    hypothesis moves each start by -60..60 ms (floored at 0), keeps the
    duration and drops or substitutes about one word in eight.
    """
    rng = np.random.default_rng(seed)
    pred, ref = {}, {}
    for u in range(n_utts):
        n = int(rng.integers(5, 30))
        words = [f"w{t}" for t in rng.integers(0, 8, size=n)]
        starts = np.cumsum(rng.integers(0, 120, size=n)).astype(float)
        starts -= starts[0]
        ends = starts + rng.integers(0, 200, size=n)
        ref[f"u{u}"] = word_times(zip(words, starts, ends))
        hyp = []
        for w, s, e in zip(words, starts, ends):
            edit = rng.random()
            if edit < 0.06:
                continue
            shift = max(float(rng.integers(-60, 61)), -s)
            hyp.append(TimedWord("x" if edit < 0.12 else w, s + shift, e + shift))
        pred[f"u{u}"] = word_times(hyp)
    return pred, ref


class TestGridsearchOffset:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("range_ms, step_ms, threshold_ms", [
        ((-150.0, 150.0), 10.0, 25.0),
        ((-37.5, 40.0), 2.5, 7.0),
    ])
    def test_matches_object_rebuild(self, seed, range_ms, step_ms, threshold_ms):
        """The report and curve equal the package's timing_metrics over
        rebuilt, shifted word objects, bit for bit."""
        pred, ref = edited_documents(seed)
        best, report, curve = gridsearch_offset(pred, ref, range_ms, step_ms, threshold_ms)
        want_best, want_report, want_curve = gridsearch_rebuilt(
            pred, ref, range_ms, step_ms, threshold_ms
        )
        assert (best, report.to_dict(), curve) == (want_best, want_report.to_dict(), want_curve)

    def test_rebuild_cases_clamp_and_tie(self):
        """The documents above shift starts below 0 and tie on the curve,
        also at its best score."""
        clamped = tied = tied_best = 0
        for seed in range(12):
            pred, ref = edited_documents(seed)
            matched, _, _ = object_match_words(word_objects(pred), word_objects(ref))
            clamped += any(p.hyp.start_ms - 150.0 < 0.0 for p in matched)
            _, _, curve = gridsearch_offset(pred, ref, (-150.0, 150.0), 10.0, 25.0)
            scores = [score for _, score in curve]
            tied += len(set(scores)) < len(scores)
            tied_best += scores.count(max(scores)) > 1
        assert clamped == 12 and tied == 12 and tied_best >= 3

    def test_builds_no_word_objects(self, tmp_path, monkeypatch, capsys):
        """Alignment, matching and scoring produce and read word-time columns:
        on valid input gridsearch_offset, `align`, `analyze-peaks`, `metrics`,
        `gridsearch`, `synth eval` and the sweeps' scoring check no word alone
        (WordTimes takes no time through its per-word walk)."""
        pred, ref = edited_documents(0)
        dataio.write_timings_jsonl(tmp_path / "hyp.jsonl", pred)
        dataio.write_timings_jsonl(tmp_path / "ref.jsonl", ref)
        files = ["--hyp", str(tmp_path / "hyp.jsonl"), "--ref", str(tmp_path / "ref.jsonl")]
        spec = CorpusSpec(n_utts=10, vocab_size=4, words_per_utt=(1, 3), seed=11)
        corpus = generate_corpus(spec)
        clf = Classifier.init(corpus[0].features_hi.shape[1], 8, spec.vocab_size + 1, seed=0)
        corpus_dir = tmp_path / "corpus"
        assert cli.main(["synth", "gen", "--n-utts", "6", "--out-dir", str(corpus_dir)]) == 0
        Classifier.init(corpus[0].features_hi.shape[1], 8, CorpusSpec().vocab_size + 1,
                        seed=0).save(tmp_path / "m.npz")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # count in this process
        walked = []
        number = boundary._number
        monkeypatch.setattr(boundary, "_number",
                            lambda value, what: walked.append(what) or number(value, what))

        _, report, _ = gridsearch_offset(pred, ref, (-150.0, 150.0), 10.0, 25.0)
        assert report.n_matched > 0
        assert cli.main(["metrics", *files]) == 0
        assert cli.main(["gridsearch", *files, "--out", str(tmp_path / "curve.csv")]) == 0
        assert "ST " in capsys.readouterr().out
        assert cli.main(["synth", "eval", "--corpus-dir", str(corpus_dir),
                         "--model", str(tmp_path / "m.npz"),
                         "--dump-logits", str(tmp_path / "logits.jsonl")]) == 0
        align = ["--logits", str(tmp_path / "logits.jsonl"),
                 "--labels", str(corpus_dir / "labels.jsonl")]
        assert cli.main(["align", *align, "--vocab", str(corpus_dir / "vocab.txt"),
                         "--out", str(tmp_path / "aligned.jsonl")]) == 0
        assert cli.main(["analyze-peaks", *align, "--ref", str(corpus_dir / "ref_timings.jsonl"),
                         "--out", str(tmp_path / "hist.csv")]) == 0
        assert "scored " in capsys.readouterr().out
        row = _sweep_scores(clf, corpus, split_corpus(corpus)[1], 1.0, (20.0, 80.0))
        assert row["mean_peak_rel"] is not None
        assert walked == []

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
