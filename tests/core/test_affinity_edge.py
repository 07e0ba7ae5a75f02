"""Edge-case and internals tests for the affinity analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AffinityAnalysis, affine_pairs_naive


def test_forward_coverage_through_intervening_occurrence():
    """The case that distinguishes the exact algorithm from the stack-top
    approximation (see the analysis module docstring): B2@3's coverage by
    B3@6 must be found even though B2@5 intervenes."""
    trace = np.array([1, 4, 2, 4, 2, 3, 5, 1, 4])  # paper Fig. 1
    analysis = AffinityAnalysis(trace, w_max=6)
    # covered(2, 3, 3): both occurrences of B2 have B3 within fp<=3.
    assert analysis.covered(2, 3, 3) == 2


def test_two_symbol_alternation():
    t = np.tile([7, 9], 50)
    analysis = AffinityAnalysis(t, w_max=4)
    assert analysis.affine_pairs(2) == {(7, 9)}
    assert analysis.occurrences(7) == 50


def test_long_loop_then_new_symbol():
    """A block first occurring long after a small loop still has small
    *footprint* windows to the loop blocks — Definition 3 is volume-based,
    not time-based."""
    t = np.concatenate([np.tile([0, 1, 2], 200), np.array([3, 0, 1, 2])])
    analysis = AffinityAnalysis(t, w_max=6)
    # symbol 3 occurs once; every loop symbol has an occurrence within a
    # footprint-4 window of it (the windows are long in time, short in
    # volume), and 3's own occurrence sees them adjacently.
    assert analysis.is_affine(3, 0, 4)
    assert analysis.is_affine(3, 2, 4)
    # cross-check against the oracle.
    assert analysis.affine_pairs(4) == affine_pairs_naive(t, 4)


def test_time_horizon_breaks_long_window_coverage():
    t = np.concatenate([np.tile([0, 1, 2], 200), np.array([3, 0, 1, 2])])
    capped = AffinityAnalysis(t, w_max=6, time_horizon=10)
    # with a 10-step horizon, 0's early occurrences cannot be covered by 3.
    assert not capped.is_affine(3, 0, 4)


def test_single_occurrence_pairs():
    t = np.array([1, 2])
    analysis = AffinityAnalysis(t, w_max=4)
    assert analysis.is_affine(1, 2, 2)
    assert analysis.occurrences(1) == 1


def test_symbols_absent_from_trace():
    analysis = AffinityAnalysis(np.array([5, 6, 5]), w_max=3)
    assert analysis.covered(5, 99, 3) == 0
    assert not analysis.is_affine(5, 99, 3)


@settings(max_examples=40, deadline=None)
@given(
    trace=st.lists(st.integers(0, 3), min_size=2, max_size=40),
    horizon=st.integers(1, 50),
)
def test_horizon_is_sound_approximation(trace, horizon):
    """A time horizon may only *lose* coverage, never invent it, at every
    (pair, w) — stronger than the pairs-subset check."""
    t = np.array(trace, dtype=np.int64)
    exact = AffinityAnalysis(t, w_max=4)
    capped = AffinityAnalysis(t, w_max=4, time_horizon=horizon)
    for x in exact.symbols:
        for y in exact.symbols:
            if x == y:
                continue
            for w in (2, 3, 4):
                assert capped.covered(x, y, w) <= exact.covered(x, y, w)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=60))
def test_occurrence_counts_match_trimmed_trace(trace):
    from repro.trace import trim

    t = np.array(trace, dtype=np.int64)
    analysis = AffinityAnalysis(t, w_max=3)
    trimmed = trim(t)
    for s in set(trimmed.tolist()):
        assert analysis.occurrences(s) == int((trimmed == s).sum())


# -- coverage-threshold and horizon-finalization cross-checks --------------
#
# affine_pairs_naive implements the strict Definition 3 (coverage 1.0, no
# horizon).  These references extend it: per-occurrence minimal footprints
# by direct window scanning, then the threshold/horizon rules applied on
# top — an independent derivation of exactly what ``_analyze`` computes.


def _covered_count_naive(t, x, y, w, horizon=None):
    """Occurrences of x with a y-occurrence within footprint w, under the
    optional horizon: a *forward* partner (j > i) only counts while the
    occurrence is still pending, i.e. j - i <= horizon + 1."""
    from repro.core.affinity import window_footprint

    xs = np.flatnonzero(t == x).tolist()
    ys = np.flatnonzero(t == y).tolist()
    count = 0
    for i in xs:
        ok = False
        for j in ys:
            if horizon is not None and j > i and j - i > horizon + 1:
                continue
            if window_footprint(t, i, j) <= w:
                ok = True
                break
        count += ok
    return count


def _affine_pairs_ref(t, w, w_max, coverage, horizon=None):
    symbols = sorted(set(t.tolist()))
    pairs = set()
    for a, x in enumerate(symbols):
        for y in symbols[a + 1 :]:
            need_x = coverage * int((t == x).sum())
            need_y = coverage * int((t == y).sum())
            if (
                _covered_count_naive(t, x, y, w, horizon) >= need_x
                and _covered_count_naive(t, y, x, w, horizon) >= need_y
            ):
                pairs.add((x, y))
    return pairs


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("coverage", [1.0, 0.9, 0.75, 0.5])
def test_coverage_threshold_against_naive(seed, coverage):
    rng = np.random.default_rng(100 + seed)
    t = rng.integers(0, 6, size=90)
    from repro.trace import trim

    t = trim(t)
    w_max = 5
    analysis = AffinityAnalysis(t, w_max=w_max, coverage=coverage)
    for w in (2, 3, 5):
        assert analysis.affine_pairs(w) == _affine_pairs_ref(
            t, w, w_max, coverage
        ), (seed, coverage, w)


def test_coverage_one_matches_strict_naive():
    rng = np.random.default_rng(11)
    t = rng.integers(0, 5, size=70)
    analysis = AffinityAnalysis(t, w_max=4, coverage=1.0)
    for w in (2, 4):
        assert analysis.affine_pairs(w) == affine_pairs_naive(t, w)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("horizon", [0, 2, 5, 15])
def test_finite_horizon_finalization_against_naive(seed, horizon):
    """Every covered() count — not just the pair set — matches the direct
    per-occurrence derivation under mid-trace pending finalization."""
    rng = np.random.default_rng(200 + seed)
    t = rng.integers(0, 5, size=80)
    from repro.trace import trim

    t = trim(t)
    w_max = 4
    analysis = AffinityAnalysis(t, w_max=w_max, time_horizon=horizon)
    symbols = sorted(set(t.tolist()))
    for x in symbols:
        for y in symbols:
            if x == y:
                continue
            for w in (2, 3, 4):
                assert analysis.covered(x, y, w) == _covered_count_naive(
                    t, x, y, w, horizon
                ), (seed, horizon, x, y, w)


def test_horizon_with_coverage_threshold_combined():
    rng = np.random.default_rng(3)
    t = rng.integers(0, 5, size=80)
    from repro.trace import trim

    t = trim(t)
    analysis = AffinityAnalysis(t, w_max=4, coverage=0.75, time_horizon=4)
    for w in (2, 4):
        assert analysis.affine_pairs(w) == _affine_pairs_ref(
            t, w, 4, 0.75, horizon=4
        )


# -- the pairwise threshold matrix ---------------------------------------


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("coverage", [1.0, 0.75, 0.5])
@pytest.mark.parametrize("horizon", [None, 6])
def test_thresholds_answer_is_affine_at_every_w(seed, coverage, horizon):
    rng = np.random.default_rng(300 + seed)
    t = rng.integers(0, 4 + 2 * seed, size=160)
    w_max = 8
    analysis = AffinityAnalysis(t, w_max=w_max, coverage=coverage, time_horizon=horizon)
    symbols, thresholds = analysis.affinity_thresholds()
    assert symbols == analysis.symbols
    assert thresholds.shape == (len(symbols), len(symbols))
    for w in range(1, w_max + 1):
        expected = set()
        for i, x in enumerate(symbols):
            for j, y in enumerate(symbols):
                affine = analysis.is_affine(x, y, w)
                assert affine == (thresholds[i, j] <= w), (x, y, w)
                if affine and x < y:
                    expected.add((x, y))
        assert analysis.affine_pairs(w) == expected


def test_thresholds_fig1():
    analysis = AffinityAnalysis(np.array([1, 4, 2, 4, 2, 3, 5, 1, 4]), w_max=4)
    symbols, thresholds = analysis.affinity_thresholds()
    assert symbols == [1, 4, 2, 3, 5]
    # (B3, B5) at w=2, (B1, B4) and (B2, B3) at w=3; (B1, B2) needs w=4;
    # (B4, B2) first holds at w=5 > w_max, stored as w_max + 1.
    assert thresholds[3, 4] == 2
    assert thresholds[0, 1] == thresholds[2, 3] == 3
    assert thresholds[0, 2] == 4
    assert thresholds[1, 2] == 5
    assert (np.diag(thresholds) == 1).all()
    assert (thresholds == thresholds.T).all()


@pytest.mark.parametrize("w_max, itemsize", [(20, 1), (254, 1), (255, 2)])
def test_threshold_matrix_memory_bound(w_max, itemsize):
    # One byte per cell while w_max + 1 fits: a 4,491-symbol BB-level
    # hierarchy then costs ~20 MB per matrix instead of ~161 MB at int64.
    analysis = AffinityAnalysis(np.tile(np.arange(40), 5), w_max=w_max)
    _, thresholds = analysis.affinity_thresholds()
    assert thresholds.itemsize == itemsize
    assert thresholds.nbytes == itemsize * 40 * 40
    assert int(thresholds.max()) <= w_max + 1


def test_thresholds_of_degenerate_traces():
    empty = AffinityAnalysis(np.array([], dtype=np.int64), w_max=4)
    symbols, thresholds = empty.affinity_thresholds()
    assert symbols == [] and thresholds.shape == (0, 0)
    lone = AffinityAnalysis(np.array([7, 7, 7]), w_max=4)
    symbols, thresholds = lone.affinity_thresholds()
    assert symbols == [7] and thresholds.tolist() == [[1]]


def test_thresholds_independent_of_chunking(monkeypatch):
    import repro.core.affinity as affinity

    rng = np.random.default_rng(17)
    analysis = AffinityAnalysis(rng.integers(0, 12, size=300), w_max=6, coverage=0.75)
    _, whole = analysis.affinity_thresholds()
    monkeypatch.setattr(affinity, "_THRESHOLD_CHUNK", 7)
    _, chunked = analysis.affinity_thresholds()
    assert len(analysis._cov) > 7
    np.testing.assert_array_equal(chunked, whole)
