"""Unit and property tests for w-window affinity (repro.core.affinity).

The headline checks: the efficient one-pass algorithm matches the naive
Definition-3 oracle on random traces, and the paper's Figure 1 example
reproduces exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AffinityAnalysis, affine_pairs_naive, window_footprint

#: paper Fig. 1: B1 B4 B2 B4 B2 B3 B5 B1 B4
FIG1 = np.array([1, 4, 2, 4, 2, 3, 5, 1, 4])

traces = st.lists(st.integers(0, 6), min_size=1, max_size=60).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


class TestWindowFootprint:
    def test_definition_example(self):
        # paper: trace B1 B3 B2 B3 B4, fp<B1, B2> = 3.
        t = np.array([1, 3, 2, 3, 4])
        assert window_footprint(t, 0, 2) == 3

    def test_symmetric(self):
        t = np.array([1, 2, 3, 1])
        assert window_footprint(t, 0, 3) == window_footprint(t, 3, 0)

    def test_single_position(self):
        assert window_footprint(np.array([9]), 0, 0) == 1


class TestFigure1:
    @pytest.fixture
    def analysis(self):
        return AffinityAnalysis(FIG1, w_max=6)

    def test_w2_groups(self, analysis):
        assert analysis.affine_pairs(2) == {(3, 5)}

    def test_w3_groups(self, analysis):
        assert analysis.affine_pairs(3) == {(1, 4), (2, 3), (3, 5)}

    def test_w4_includes_b2_b5(self, analysis):
        pairs = analysis.affine_pairs(4)
        assert (2, 5) in pairs
        assert (2, 3) in pairs
        assert (1, 4) in pairs

    def test_w5_everything_affine(self, analysis):
        assert len(analysis.affine_pairs(5)) == 10  # C(5, 2)

    def test_w1_nothing_affine(self, analysis):
        assert analysis.affine_pairs(1) == set()


class TestAnalysisAPI:
    def test_trims_internally(self):
        a = AffinityAnalysis(np.array([1, 1, 2, 2, 1]), w_max=3)
        b = AffinityAnalysis(np.array([1, 2, 1]), w_max=3)
        assert a.occurrences(1) == b.occurrences(1) == 2

    def test_symbols_by_first_occurrence(self):
        a = AffinityAnalysis(FIG1, w_max=4)
        assert a.symbols == [1, 4, 2, 3, 5]
        assert a.first_occurrence(4) == 1

    def test_self_affinity(self):
        a = AffinityAnalysis(FIG1, w_max=4)
        assert a.is_affine(1, 1, 2)

    def test_unknown_symbol_not_affine(self):
        a = AffinityAnalysis(FIG1, w_max=4)
        assert not a.is_affine(1, 99, 4)

    def test_w_beyond_analysis_rejected(self):
        a = AffinityAnalysis(FIG1, w_max=4)
        with pytest.raises(ValueError):
            a.is_affine(1, 4, 5)

    @pytest.mark.parametrize("w", [0, -2])
    def test_w_below_one_rejected(self, w):
        # hist[: w + 1] with w < 0 used to sum from the end of the
        # histogram: covered(1, 4, -2) was 2 and is_affine(1, 4, -2) True.
        a = AffinityAnalysis(FIG1, w_max=4)
        with pytest.raises(ValueError):
            a.covered(1, 4, w)
        with pytest.raises(ValueError):
            a.is_affine(1, 4, w)
        with pytest.raises(ValueError):
            a.affine_pairs(w)

    def test_affine_pairs_beyond_analysis_rejected(self):
        with pytest.raises(ValueError):
            AffinityAnalysis(FIG1, w_max=4).affine_pairs(5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AffinityAnalysis(FIG1, w_max=0)
        with pytest.raises(ValueError):
            AffinityAnalysis(FIG1, coverage=0.0)
        with pytest.raises(ValueError):
            AffinityAnalysis(FIG1, coverage=1.5)

    def test_coverage_threshold_relaxes(self):
        # B2 wrt B4: occurrence B2@5 (0-based 4) has B4 nearby, but with
        # strict coverage B2-B4 only become affine at larger w; a low
        # threshold admits more pairs at small w.
        strict = AffinityAnalysis(FIG1, w_max=6, coverage=1.0)
        loose = AffinityAnalysis(FIG1, w_max=6, coverage=0.5)
        for w in range(1, 7):
            assert strict.affine_pairs(w) <= loose.affine_pairs(w)

    def test_time_horizon_only_removes_pairs(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 5, 80)
        exact = AffinityAnalysis(t, w_max=5)
        capped = AffinityAnalysis(t, w_max=5, time_horizon=6)
        for w in range(1, 6):
            assert capped.affine_pairs(w) <= exact.affine_pairs(w)


@settings(max_examples=120, deadline=None)
@given(traces, st.integers(1, 6))
def test_efficient_matches_naive_oracle(t, w):
    analysis = AffinityAnalysis(t, w_max=6)
    assert analysis.affine_pairs(w) == affine_pairs_naive(t, w)


@settings(max_examples=60, deadline=None)
@given(traces)
def test_affinity_monotone_in_w(t):
    analysis = AffinityAnalysis(t, w_max=6)
    prev: set = set()
    for w in range(1, 7):
        cur = analysis.affine_pairs(w)
        assert prev <= cur
        prev = cur
