"""Unit tests for the affinity hierarchy (repro.core.hierarchy)."""

import json

import numpy as np
import pytest

from repro.core import (
    AffinityAnalysis,
    AffinityCoverage,
    OptimizerConfig,
    analysis_from_coverage,
    build_hierarchy,
    build_hierarchy_reference,
    hierarchy_levels,
    layout_order,
)
from repro.perf.backends import resolve_backend

FIG1 = np.array([1, 4, 2, 4, 2, 3, 5, 1, 4])


def fig1_forest(w_max=6):
    return build_hierarchy(AffinityAnalysis(FIG1, w_max=w_max))


def test_figure1_layout_sequence():
    # The paper's published output sequence: B1 B4 B2 B3 B5.
    assert layout_order(fig1_forest()) == [1, 4, 2, 3, 5]


def test_figure1_levels():
    levels = hierarchy_levels(fig1_forest())
    assert levels[2] == [[1], [4], [2], [3, 5]]
    assert levels[3] == [[1, 4], [2], [3, 5]]
    assert levels[4] == [[1, 4], [2, 3, 5]]
    assert levels[5] == [[1, 4, 2, 3, 5]]


def test_levels_are_nested_coarsenings():
    levels = hierarchy_levels(fig1_forest())
    ws = sorted(levels)
    for w_small, w_big in zip(ws, ws[1:]):
        fine = [set(g) for g in levels[w_small]]
        for group in levels[w_big]:
            gset = set(group)
            # every coarse group is a union of fine groups.
            covered = [f for f in fine if f <= gset]
            assert set().union(*covered) == gset


def test_layout_is_permutation_of_symbols():
    rng = np.random.default_rng(1)
    t = rng.integers(0, 12, 300)
    analysis = AffinityAnalysis(t, w_max=8)
    order = layout_order(build_hierarchy(analysis))
    assert sorted(order) == sorted(set(t.tolist()))


def test_deterministic():
    rng = np.random.default_rng(2)
    t = rng.integers(0, 10, 200)
    a1 = layout_order(build_hierarchy(AffinityAnalysis(t, w_max=6)))
    a2 = layout_order(build_hierarchy(AffinityAnalysis(t, w_max=6)))
    assert a1 == a2


def test_custom_w_values_shows_precedence_effect():
    # Without the w=2 pass, (B2,B3) forms at w=3 instead of (B3,B5) —
    # the paper's remark that lower-level groups take precedence, and the
    # partition is otherwise not unique.
    analysis = AffinityAnalysis(FIG1, w_max=6)
    forest = build_hierarchy(analysis, w_values=[3])
    levels = hierarchy_levels(forest)
    assert list(levels) == [3]
    assert levels[3] == [[1, 4], [2, 3], [5]]
    # with the full sweep, w=3 instead keeps (B3,B5) (cf. Fig. 1).
    full = hierarchy_levels(build_hierarchy(analysis))
    assert full[3] == [[1, 4], [2], [3, 5]]


def test_w_values_validation():
    analysis = AffinityAnalysis(FIG1, w_max=4)
    with pytest.raises(ValueError):
        build_hierarchy(analysis, w_values=[3, 3])
    with pytest.raises(ValueError):
        build_hierarchy(analysis, w_values=[2, 10])


def test_single_symbol_trace():
    analysis = AffinityAnalysis(np.array([7, 7, 7]), w_max=3)
    forest = build_hierarchy(analysis)
    assert layout_order(forest) == [7]
    assert forest[0].is_leaf


@pytest.mark.parametrize("builder", [build_hierarchy, build_hierarchy_reference])
@pytest.mark.parametrize("w_values", [[-3, 2], [0, 3], [0]])
def test_windows_below_one_rejected(builder, w_values):
    # A negative window used to read the coverage histogram from its end
    # and emit a bogus level (-3: [[1, 4, 3], [2, 5]] on the Fig. 1 trace).
    analysis = AffinityAnalysis(FIG1, w_max=6)
    with pytest.raises(ValueError):
        builder(analysis, w_values=w_values)


def test_optimizer_config_rejects_w_min_below_one():
    with pytest.raises(ValueError):
        OptimizerConfig(w_min=0)
    with pytest.raises(ValueError):
        OptimizerConfig(w_min=-3)
    assert list(OptimizerConfig(w_min=1, w_max=3).w_values()) == [1, 2, 3]


# -- forest parity: matrix formulation vs the per-pair reference loop -------


def _random_trace(seed: int, n: int, n_syms: int) -> np.ndarray:
    """Loop-heavy (phases plus noise) or uniform, chosen by the seed."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        phase = rng.integers(0, n_syms, size=max(2, n_syms // 3))
        base = np.tile(phase, n // phase.shape[0] + 1)[:n]
        return np.where(rng.random(n) < 0.3, rng.integers(0, n_syms, size=n), base)
    return rng.integers(0, n_syms, size=n)


def _analysis(trace, tier, w_max, coverage, horizon):
    """An analysis as the given kernel tier (or a memo replay) delivers it."""
    if tier == "memo":
        covg = resolve_backend("numpy").affinity(trace, w_max=w_max, time_horizon=horizon)
        covg = AffinityCoverage.from_dict(json.loads(json.dumps(covg.to_dict())))
    else:
        covg = resolve_backend(tier).affinity(trace, w_max=w_max, time_horizon=horizon)
    return analysis_from_coverage(trace, covg, coverage=coverage)


def _assert_same_forest(analysis, w_values):
    fast = build_hierarchy(analysis, w_values)
    ref = build_hierarchy_reference(analysis, w_values)
    # AffinityNode equality compares w, first_occ, symbol and the ordered
    # children recursively: the whole forest, not just the leaf order.
    assert fast == ref


W_VALUES = {"full": None, "sparse": [2, 5, 9], "single": [4], "empty": []}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("coverage", [1.0, 0.75, 0.5])
@pytest.mark.parametrize("horizon", [None, 12])
@pytest.mark.parametrize("tier", ["scalar", "numpy", "memo"])
def test_forest_parity_matrix(seed, coverage, horizon, tier):
    trace = _random_trace(seed, 240, 5 + 3 * seed)
    analysis = _analysis(trace, tier, 10, coverage, horizon)
    for w_values in W_VALUES.values():
        _assert_same_forest(analysis, w_values)


@pytest.mark.parametrize("w_values", list(W_VALUES.values()), ids=list(W_VALUES))
def test_forest_parity_edge_cases(w_values):
    mutually_affine = np.tile([3, 1, 2], 20)  # every pair affine from w=3
    for trace in ([], [7], [7, 7, 7], mutually_affine, FIG1):
        analysis = AffinityAnalysis(np.asarray(trace, dtype=np.int64), w_max=10)
        _assert_same_forest(analysis, w_values)
    forest = build_hierarchy(AffinityAnalysis(mutually_affine, w_max=10))
    assert len(forest) == 1 and forest[0].w == 3
    assert build_hierarchy(AffinityAnalysis(np.array([], dtype=np.int64))) == []


def test_forest_parity_fig1_every_w_subset():
    analysis = AffinityAnalysis(FIG1, w_max=6)
    for mask in range(1 << 6):
        w_values = [w for w in range(1, 7) if mask >> (w - 1) & 1]
        _assert_same_forest(analysis, w_values)
