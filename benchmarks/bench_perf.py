"""Benchmarks for the performance layer (repro.perf): memo cache and
cell fan-out overheads.

These quantify the machinery itself, not the experiments: a memo hit
must be far cheaper than the simulation it replaces, and the parallel
cell path must produce identical stats (timed here at jobs=1 so the
number reflects dispatch overhead, not core count).
"""

import numpy as np

from conftest import BENCH_SCALE

from repro.cache import PAPER_L1I, CacheConfig, simulate, stack_distance_histogram
from repro.core import (
    AffinityAnalysis,
    affinity_coverage,
    build_trg,
    build_trg_fast,
    coverage_from_analysis,
)
from repro.experiments import Lab
from repro.perf import SimMemo, memo_key, resolve_backend

_RNG = np.random.default_rng(2014)
_LINES = _RNG.integers(0, 700, int(200_000 * max(BENCH_SCALE, 0.05)))

#: the paper's L1I geometry family: 128 sets at every associativity.
_SWEEP_ASSOCS = (1, 2, 4, 8, 16)

#: a symbol trace for the locality-model analysis benchmarks (Zipf-ish
#: popularity, like real function traces).
_SYMS = np.sort(_RNG.integers(0, 200, int(40_000 * max(BENCH_SCALE, 0.05))) ** 2 // 200)
_SYMS = _RNG.permutation(_SYMS).astype(np.int64)
_W_MAX = 20
_TRG_WINDOW = 256


def bench_simulate_cold(benchmark):
    stats = benchmark(simulate, _LINES, PAPER_L1I)
    assert stats.accesses == len(_LINES)


def bench_memo_hit(benchmark):
    """Replaying a memoized cell; the headline saving of --memo-dir."""
    memo = SimMemo()
    cold = memo.simulate(_LINES, PAPER_L1I)
    hit = benchmark(memo.simulate, _LINES, PAPER_L1I)
    assert hit == cold
    assert memo.hits >= 1


def bench_memo_key(benchmark):
    """Key hashing is the fixed cost a memo miss adds to a simulation."""
    key = benchmark(memo_key, _LINES, PAPER_L1I)
    assert len(key) == 64


def bench_kernel_pass(benchmark):
    """One stack-distance pass (the batch sweep): answers every
    associativity at once."""
    hist = benchmark(stack_distance_histogram, _LINES, PAPER_L1I.n_sets)
    assert hist.accesses == len(_LINES)
    assert hist.stats(PAPER_L1I.assoc) == simulate(_LINES, PAPER_L1I)


def bench_kernel_pass_bit(benchmark):
    """The Fenwick-tree reference construction through the ``scalar``
    kernel tier (O(n log n), far slower in CPython than the sweep —
    kept to document the gap)."""
    scalar = resolve_backend("scalar")
    hist = benchmark(scalar.histogram, _LINES, PAPER_L1I.n_sets)
    assert hist == stack_distance_histogram(_LINES, PAPER_L1I.n_sets)


def bench_scalar_assoc_sweep(benchmark):
    """The path the kernel replaces: one scalar LRU run per associativity.

    Compare against ``bench_kernel_pass`` — the ratio is the sweep
    speedup that ``python -m repro.perf kernel-bench`` gates in CI.
    """

    def sweep():
        return {
            a: simulate(
                _LINES,
                CacheConfig(size_bytes=128 * a * 64, assoc=a, line_bytes=64),
            ).misses
            for a in _SWEEP_ASSOCS
        }

    scalar = benchmark(sweep)
    hist = stack_distance_histogram(_LINES, 128)
    assert scalar == {a: hist.misses(a) for a in _SWEEP_ASSOCS}


def bench_affinity_scalar(benchmark):
    """The path the affinity kernel replaces: the one-pass LRU-stack
    oracle over the full ``2..w_max`` sweep."""
    analysis = benchmark(AffinityAnalysis, _SYMS, _W_MAX)
    assert analysis.w_max == _W_MAX


def bench_affinity_kernel(benchmark):
    """Batched affinity kernel: same sweep, vectorized record/credit
    join.  Compare against ``bench_affinity_scalar`` — the ratio is the
    affinity half of ``python -m repro.perf analysis-bench``."""
    covg = benchmark(affinity_coverage, _SYMS, _W_MAX)
    assert covg == coverage_from_analysis(AffinityAnalysis(_SYMS, _W_MAX))


def bench_trg_scalar(benchmark):
    """Scalar TRG construction (per-access window walk)."""
    trg = benchmark(build_trg, _SYMS, window_blocks=_TRG_WINDOW)
    assert trg.weights


def bench_trg_kernel(benchmark):
    """Vectorized TRG construction; the other half of ``analysis-bench``."""
    trg = benchmark(build_trg_fast, _SYMS, window_blocks=_TRG_WINDOW)
    assert trg.weights == build_trg(_SYMS, window_blocks=_TRG_WINDOW).weights


def bench_analysis_memo_hit(benchmark):
    """Replaying a memoized affinity artifact; the saving --memo-dir
    brings to repeated layout builds."""
    memo = SimMemo()
    cold = memo.affinity_coverage(_SYMS, w_max=_W_MAX)
    hit = benchmark(memo.affinity_coverage, _SYMS, w_max=_W_MAX)
    assert hit == cold
    assert memo.misses == 1  # every benchmarked call replayed


def bench_precompute_solo_serial(benchmark):
    """The dedup + batch path at jobs=1: overhead over lazy solo_miss."""
    cells = [
        (name, "baseline", channel)
        for name in ("syn-gcc", "syn-mcf", "syn-sjeng")
        for channel in ("hw", "sim")
    ]

    def run():
        lab = Lab(scale=min(BENCH_SCALE, 0.1))
        lab.precompute_solo(cells, jobs=1)
        return lab

    lab = benchmark.pedantic(run, rounds=1, iterations=1)
    reference = Lab(scale=min(BENCH_SCALE, 0.1))
    assert lab.solo_miss(*cells[0]) == reference.solo_miss(*cells[0])
