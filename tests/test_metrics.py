import tracemalloc
import unicodedata

import numpy as np
import pytest

from ctctiming.metrics import (
    _matched_times,
    blank_occupancy,
    edit_align,
    edit_distance,
    peak_histogram,
    timing_metrics,
)

from oracles import edit_align_cellwise, levenshtein_cost, word_times


def words(*items):
    return word_times(items)


def pair(word, h_start, h_end, r_start, r_end):
    return (word, h_start, h_end), (word, r_start, r_end)


def score(pairs, thresholds):
    """timing_metrics over one utterance that holds the pairs' hypothesis
    words against one that holds their reference words."""
    hyp, ref = zip(*pairs) if pairs else ((), ())
    return timing_metrics({"u": words(*hyp)}, {"u": words(*ref)}, thresholds)


def peak_item(peak_ms, start, end):
    """One piece's peak_items column: its peak and its reference word's times."""
    return np.array([[peak_ms], [start], [end]], dtype=np.float64)


def random_words(rng, max_len=10, vocab=("the", "cat", "sat", "on", "mat", "dog")):
    n = int(rng.integers(0, max_len + 1))
    return [vocab[i] for i in rng.integers(0, len(vocab), size=n)]


# each entry is one word type; words with two spellings are the same text in
# NFC-composed and decomposed form
SPELLINGS = [("a",), ("b",), ("c",), ("d",), ("caf\u00e9", "cafe\u0301"),
             ("\u00c5", "A\u030a"), ("e",)]


def respell(rng, types):
    return [SPELLINGS[t][int(rng.integers(0, len(SPELLINGS[t])))] for t in types]


def tie_dense_cases(n_cases=2400, seed=45):
    """Seeded short word lists over 1-6 types, ties everywhere.

    Lengths run 0-14; every tenth case compares a list with itself in fresh
    spellings, and empty lists appear on either side.
    """
    rng = np.random.default_rng(seed)
    cases = [([], []), ([], ["a"]), (["a"], []), (["caf\u00e9"], ["cafe\u0301"])]
    for k in range(n_cases):
        pool = rng.choice(len(SPELLINGS), size=int(rng.integers(1, 7)), replace=False)
        hyp_types = rng.choice(pool, size=int(rng.integers(0, 15)))
        ref_types = hyp_types if k % 10 == 0 else rng.choice(pool, size=int(rng.integers(0, 15)))
        cases.append((respell(rng, hyp_types), respell(rng, ref_types)))
    return cases


def planted_edit_document(n_words=420, n_types=40, seed=46):
    """A long reference and a hypothesis with one planted edit in every ten
    words, cycling substitution, insertion and deletion."""
    rng = np.random.default_rng(seed)
    ref = [f"w{t}" for t in rng.integers(0, n_types, size=n_words)]
    hyp = list(ref)
    for k, pos in enumerate(range(n_words - 5, 0, -10)):
        kind = k % 3
        if kind == 0:
            hyp[pos] = f"w{int(rng.integers(0, n_types))}"
        elif kind == 1:
            hyp.insert(pos, f"w{int(rng.integers(0, n_types))}")
        else:
            del hyp[pos]
    return hyp, ref


def mixed_script_document(seed):
    """planted_edit_document at 300 words where every third word type is
    non-ASCII, each occurrence drawn in NFC or NFD form at random."""
    hyp, ref = planted_edit_document(n_words=300, seed=seed)
    rng = np.random.default_rng(seed)

    def spell(word):
        t = int(word[1:])
        if t % 3:
            return word
        return unicodedata.normalize(("NFC", "NFD")[int(rng.integers(0, 2))], f"caf\u00e9{t}")

    return [spell(w) for w in hyp], [spell(w) for w in ref]


class TestEditAlign:
    def test_identical_sequences(self):
        words = ["a", "b", "c", "d", "e"]
        assert edit_align(words, words) == [(i, i) for i in range(5)]

    def test_deleted_middle_word(self):
        ref = ["a", "b", "c", "d", "e"]
        hyp = ["a", "b", "d", "e"]
        matches = edit_align(hyp, ref)
        assert matches == [(0, 0), (1, 1), (2, 3), (3, 4)]

    def test_substitution_excluded(self):
        ref = ["a", "b", "c"]
        hyp = ["a", "x", "c"]
        assert edit_align(hyp, ref) == [(0, 0), (2, 2)]

    def test_empty_inputs(self):
        assert edit_align([], ["a"]) == []
        assert edit_align(["a"], []) == []
        assert edit_align([], []) == []

    def test_match_count_bounded(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            hyp, ref = random_words(rng), random_words(rng)
            matches = edit_align(hyp, ref)
            assert len(matches) <= min(len(hyp), len(ref))
            for hid, rid in matches:
                assert hyp[hid] == ref[rid]
            # alignment indices strictly increase on both sides
            assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(matches, matches[1:]))

    def test_matches_cellwise_oracle(self):
        cases = tie_dense_cases()
        assert len(cases) >= 2000
        for hyp, ref in cases:
            assert edit_align(hyp, ref) == edit_align_cellwise(hyp, ref), (hyp, ref)

    def test_planted_edit_document_matches_cellwise_oracle(self):
        hyp, ref = planted_edit_document()
        assert len(ref) == 420 and len(hyp) == 420
        assert edit_align(hyp, ref) == edit_align_cellwise(hyp, ref)
        assert edit_distance(hyp, ref) == levenshtein_cost(hyp, ref)

    @pytest.mark.parametrize("seed", [50, 51, 52])
    def test_mixed_script_document_matches_cellwise_oracle(self, seed):
        """Benchmark-sized documents: ASCII words take the shortcut past NFC,
        and equal words in different forms still match."""
        hyp, ref = mixed_script_document(seed)
        assert len(hyp) == len(ref) == 300
        matches = edit_align(hyp, ref)
        assert matches == edit_align_cellwise(hyp, ref)
        assert any(hyp[h].isascii() for h, _ in matches)
        assert any(hyp[h] != ref[r] for h, r in matches)  # NFC against NFD

    def test_tie_dense_documents_match_oracles(self):
        """Long documents over 2-4 word types: ties at almost every cell,
        columns of several hundred bits, and n != m."""
        rng = np.random.default_rng(47)
        for _ in range(8):
            pool = rng.choice(len(SPELLINGS), size=int(rng.integers(2, 5)), replace=False)
            n, m = (int(x) for x in rng.choice(np.arange(150, 301), size=2, replace=False))
            hyp = respell(rng, rng.choice(pool, size=n))
            ref = respell(rng, rng.choice(pool, size=m))
            assert len(hyp) != len(ref)
            assert edit_align(hyp, ref) == edit_align_cellwise(hyp, ref), (hyp, ref)
            nfc_hyp, nfc_ref = ([unicodedata.normalize("NFC", w) for w in ws] for ws in (hyp, ref))
            assert edit_distance(hyp, ref) == levenshtein_cost(nfc_hyp, nfc_ref)

    def test_word_counts_at_bit_vector_edges(self):
        """Empty sides, and lengths around 64 and 128, where the columns are
        ints of several digits."""
        rng = np.random.default_rng(48)
        lengths = (0, 1, 63, 64, 65, 127, 128, 129)
        for n in lengths:
            for m in lengths:
                hyp = [f"w{t}" for t in rng.integers(0, 3, size=n)]
                ref = [f"w{t}" for t in rng.integers(0, 3, size=m)]
                assert edit_align(hyp, ref) == edit_align_cellwise(hyp, ref), (n, m)
                assert edit_distance(hyp, ref) == levenshtein_cost(hyp, ref), (n, m)

    def test_memory_far_below_a_full_table(self):
        hyp, ref = planted_edit_document(n_words=3000)
        tracemalloc.start()
        try:
            edit_align(hyp, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an int64 table would take 8 (n+1)(m+1) bytes; the bit-vector
        # columns take 2(m+1) ints of n bits
        assert peak < 8 * (len(hyp) + 1) * (len(ref) + 1) / 16

    def test_cost_matches_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            hyp, ref = random_words(rng), random_words(rng)
            assert edit_distance(hyp, ref) == levenshtein_cost(hyp, ref)
        for hyp, ref in tie_dense_cases():
            nfc_hyp, nfc_ref = ([unicodedata.normalize("NFC", w) for w in ws] for ws in (hyp, ref))
            assert edit_distance(hyp, ref) == levenshtein_cost(nfc_hyp, nfc_ref), (hyp, ref)

    def test_nfc_normalization(self):
        composed = "café"
        decomposed = "café"
        assert edit_align([composed], [decomposed]) == [(0, 0)]


class TestMatchedTimes:
    def test_pairs_and_counts_follow_ref(self):
        ref = {"u2": words(("a", 0, 10), ("b", 10, 20)),
               "u1": words(("c", 0, 10)),
               "u3": words(("d", 0, 5))}
        hyp = {"u1": words(("c", 1, 11), ("x", 11, 12)),
               "u2": words(("b", 12, 22)),
               "u4": words(("e", 0, 1))}
        hyp_times, ref_times, n_hyp, n_ref = _matched_times(hyp, ref)
        assert hyp_times.tolist() == [[12.0, 1.0], [22.0, 11.0]]
        assert ref_times.tolist() == [[10.0, 0.0], [20.0, 10.0]]
        # u3 has no hypothesis: its reference words still count; u4 has no reference
        assert n_hyp == 3 and n_ref == 4
        report = timing_metrics(hyp, ref, [5.0])
        assert (report.n_matched, report.n_hyp, report.n_ref) == (2, 3, 4)


class TestTimingMetrics:
    def test_perfect_predictions(self):
        pairs = [pair("a", 100, 200, 100, 200), pair("b", 300, 450, 300, 450)]
        report = score(pairs, [80.0, 200.0])
        assert report.ave_st_delta_ms == 0.0 and report.ave_ed_delta_ms == 0.0
        assert report.pct_ws[80.0] == 100.0 and report.pct_we[200.0] == 100.0

    def test_hundred_ms_shift(self):
        pairs = [pair("a", 200, 300, 100, 200)]
        report = score(pairs, [80.0, 200.0])
        assert report.ave_st_delta_ms == 100.0 and report.ave_ed_delta_ms == 100.0
        assert report.pct_ws[80.0] == 0.0 and report.pct_ws[200.0] == 100.0
        assert report.pct_we[80.0] == 0.0 and report.pct_we[200.0] == 100.0
        assert report.signed_st_delta_ms == 100.0

    def test_boundary_equality_excluded(self):
        pairs = [pair("a", 180, 280, 100, 200)]
        report = score(pairs, [80.0])
        assert report.pct_ws[80.0] == 0.0 and report.pct_we[80.0] == 0.0

    def test_empty_pairs(self):
        hyp = {"u": words(*[("x", 0, 10)] * 3)}
        ref = {"u": words(*[("y", 0, 10)] * 5)}
        report = timing_metrics(hyp, ref, [80.0])
        assert report.n_matched == 0 and report.n_hyp == 3 and report.n_ref == 5
        assert report.ave_st_delta_ms is None and report.pct_ws == {}

    def test_symmetry_of_absolute_deltas(self):
        rng = np.random.default_rng(42)
        pairs, swapped = [], []
        for _ in range(10):
            s1, s2 = sorted(rng.uniform(0, 500, size=2))
            d1, d2 = rng.uniform(50, 200, size=2)
            pairs.append(pair("w", s1, s1 + d1, s2, s2 + d2))
            swapped.append(pair("w", s2, s2 + d2, s1, s1 + d1))
        a = score(pairs, [80.0])
        b = score(swapped, [80.0])
        assert a.ave_st_delta_ms == pytest.approx(b.ave_st_delta_ms)
        assert a.ave_ed_delta_ms == pytest.approx(b.ave_ed_delta_ms)
        assert a.signed_st_delta_ms == pytest.approx(-b.signed_st_delta_ms)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(43)
        pairs = []
        for _ in range(40):
            start = rng.uniform(200, 500)
            pairs.append(pair("w", start + rng.normal(0, 60), start + 300, start, start + 280))
        thresholds = [10.0, 20.0, 50.0, 100.0, 300.0]
        report = score(pairs, thresholds)
        values = [report.pct_ws[t] for t in thresholds]
        assert values == sorted(values)

    def test_duration_means(self):
        pairs = [pair("a", 0, 100, 0, 150), pair("b", 200, 350, 200, 250)]
        report = score(pairs, [])
        assert report.mean_hyp_duration_ms == pytest.approx(125.0)
        assert report.mean_ref_duration_ms == pytest.approx(100.0)


class TestPeakHistogram:
    def test_peak_at_word_start(self):
        hist = peak_histogram([peak_item(100.0, 100, 300)], 4, (-1.0, 2.0))
        assert hist.mean_rel_pos == 0.0

    def test_peak_at_midpoint(self):
        hist = peak_histogram([peak_item(200.0, 100, 300)], 4, (-1.0, 2.0))
        assert hist.mean_rel_pos == 0.5

    def test_full_duration_early(self):
        hist = peak_histogram([peak_item(0.0, 200, 400)], 3, (-1.0, 2.0))
        assert hist.mean_rel_pos == -1.0

    def test_zero_duration_skipped(self):
        items = [peak_item(50.0, 50, 50), peak_item(100.0, 100, 200)]
        hist = peak_histogram(items, 3, (-1.0, 2.0))
        assert hist.n_skipped == 1 and hist.n_scored == 1

    def test_total_count_invariant(self):
        rng = np.random.default_rng(44)
        items = []
        for _ in range(100):
            start = rng.uniform(0, 1000)
            dur = rng.uniform(10, 300)
            peak = start + dur * rng.uniform(-3, 4)  # some values out of range
            items.append(peak_item(max(peak, 0.0), start, start + dur))
        hist = peak_histogram(items, 7, (-1.0, 2.0))
        assert int(hist.counts.sum()) == hist.n_scored == 100

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            peak_histogram([], 0, (-1.0, 2.0))


class TestBlankOccupancy:
    def test_all_blank(self):
        post = np.zeros((5, 3))
        post[:, 0] = 1.0
        assert blank_occupancy(post) == 1.0

    def test_no_blank(self):
        post = np.zeros((5, 3))
        post[:, 2] = 1.0
        assert blank_occupancy(post) == 0.0

    def test_partial(self):
        post = np.full((10, 2), 0.5)
        post[:8, 0] = 0.9
        post[8:, 1] = 0.9
        assert blank_occupancy(post) == pytest.approx(0.8)
