"""Randomized parity of the hw-channel LRU simulators with their oracles.

``simulate`` and ``simulate_shared`` drop consecutive repeat accesses and
(for co-runs) build the SMT interleave up front in NumPy;
``simulate_reference`` and ``simulate_shared_reference`` walk every
access with per-quantum cursors.  Every stats field must agree exactly.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache import CacheConfig, CacheState
from repro.cache.setassoc import (
    collapses_repeats,
    repeat_free,
    simulate,
    simulate_reference,
)
from repro.cache.shared import (
    simulate_shared,
    simulate_shared_reference,
    smt_schedule,
)

#: (n_sets, assoc) pairs; the single-set ones are the degenerate
#: geometries where the prefetch lands in the demand line's own set.
GEOMETRIES = [(1, 1), (1, 2), (2, 1), (2, 2), (4, 2), (16, 4), (32, 2)]


def _cfg(n_sets: int, assoc: int) -> CacheConfig:
    return CacheConfig(size_bytes=n_sets * assoc * 64, assoc=assoc, line_bytes=64)


def _fields(stats):
    return [dataclasses.asdict(st) for st in stats]


def _random_stream(rng, n_max: int, pool: int, offset: int = 0) -> np.ndarray:
    """Draws from ``pool`` lines, each repeated 1-3 times (fetch streams
    revisit a line for consecutive blocks)."""
    draws = rng.integers(0, pool, int(rng.integers(0, n_max + 1)))
    stream = np.repeat(draws, rng.integers(1, 4, len(draws))) + offset
    return stream.astype(rng.choice([np.int32, np.int64]))


def _random_streams(rng) -> list[np.ndarray]:
    n_threads = int(rng.integers(1, 9))
    pool = int(rng.integers(1, 120))
    streams = []
    for t in range(n_threads):
        if rng.random() < 0.15:
            streams.append(np.empty(0, dtype=np.int64))
            continue
        # Half the threads share one line pool; the rest are disjoint.
        offset = 0 if rng.random() < 0.5 else 1000 * (t + 1)
        streams.append(_random_stream(rng, 150, pool, offset))
    return streams


@pytest.mark.parametrize("seed", range(12))
def test_shared_matches_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        streams = _random_streams(rng)
        cfg = _cfg(*GEOMETRIES[rng.integers(len(GEOMETRIES))])
        longest = max(len(s) for s in streams)
        # Quantum from 1 up to beyond the longest stream.
        quantum = int(rng.integers(1, longest + 3))
        for wrap in (True, False):
            for prefetch in (False, True):
                kwargs = dict(quantum=quantum, wrap=wrap, prefetch=prefetch)
                got = simulate_shared(streams, cfg, **kwargs)
                want = simulate_shared_reference(streams, cfg, **kwargs)
                assert _fields(got) == _fields(want), (cfg, kwargs)


@pytest.mark.parametrize("seed", range(12))
def test_solo_matches_reference(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(25):
        stream = _random_stream(rng, 400, int(rng.integers(1, 120)))
        cfg = _cfg(*GEOMETRIES[rng.integers(len(GEOMETRIES))])
        for prefetch in (False, True):
            got = simulate(stream, cfg, prefetch=prefetch)
            want = simulate_reference(stream, cfg, prefetch=prefetch)
            assert dataclasses.asdict(got) == dataclasses.asdict(want)


@pytest.mark.parametrize("n_sets, assoc", GEOMETRIES)
@pytest.mark.parametrize("prefetch", [False, True])
def test_warm_start_matches_reference(n_sets, assoc, prefetch):
    rng = np.random.default_rng(n_sets * 10 + assoc)
    cfg = _cfg(n_sets, assoc)
    fast, slow = CacheState(cfg), CacheState(cfg)
    for _ in range(6):
        stream = _random_stream(rng, 200, 60)
        got = simulate(stream, cfg, prefetch=prefetch, state=fast)
        want = simulate_reference(stream, cfg, prefetch=prefetch, state=slow)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert fast.sets == slow.sets
        assert fast.prefetched == slow.prefetched


def test_single_set_prefetch_is_not_collapsed():
    """With one set and prefetch on, a repeat access reorders the set
    (the prefetched L+1 sits in front of L), so it must be simulated."""
    assert not collapses_repeats(_cfg(1, 2), prefetch=True)
    assert collapses_repeats(_cfg(1, 2), prefetch=False)
    assert collapses_repeats(_cfg(2, 1), prefetch=True)
    stream = np.array([0, 0, 5, 0, 0, 1, 7, 1])
    cfg = _cfg(1, 2)
    assert simulate(stream, cfg, prefetch=True) == simulate_reference(
        stream, cfg, prefetch=True
    )


def test_repeat_free_mask():
    assert repeat_free(np.array([], dtype=np.int64)).tolist() == []
    assert repeat_free(np.array([3])).tolist() == [True]
    assert repeat_free(np.array([3, 3, 4, 3, 3, 3])).tolist() == [
        True, False, True, True, False, False,
    ]


def test_list_inputs():
    cfg = _cfg(4, 2)
    stream = [1, 1, 2, 9, 9, 17, 1]
    assert simulate(stream, cfg, prefetch=True) == simulate_reference(
        stream, cfg, prefetch=True
    )
    assert simulate_shared([stream, []], cfg, quantum=2) == (
        simulate_shared_reference([stream, []], cfg, quantum=2)
    )


# -- the SMT schedule ---------------------------------------------------------


def _explicit_interleave(lengths, quantum, wrap):
    """The round-robin issue order written out access by access: each
    round every live thread issues up to ``quantum`` positions, restarting
    at 0 after its pass (``wrap``) or leaving (no wrap); rounds stop once
    every thread has finished one pass."""
    cursor = [0] * len(lengths)
    finished = [n == 0 for n in lengths]
    left = [n == 0 for n in lengths]
    order = []
    while not all(finished):
        for t, n in enumerate(lengths):
            if left[t]:
                continue
            end = min(cursor[t] + quantum, n)
            order.extend((t, k) for k in range(cursor[t], end))
            if end == n:
                finished[t] = True
                cursor[t] = 0
                left[t] = not wrap
            else:
                cursor[t] = end
    return order


def _scheduled(lengths, quantum, wrap):
    thread, start, length = smt_schedule(lengths, quantum, wrap=wrap)
    return [
        (t, k)
        for t, a, n in zip(thread.tolist(), start.tolist(), length.tolist())
        for k in range(a, a + n)
    ]


@pytest.mark.parametrize(
    "lengths",
    [
        [3, 5],
        [5, 3],
        [0, 4],
        [4, 0, 0],
        [0, 0],
        [1],
        [7, 7],
        [2, 9, 4],
        [16, 1, 0, 5],
    ],
)
@pytest.mark.parametrize("quantum", [1, 2, 3, 8, 20])
@pytest.mark.parametrize("wrap", [True, False])
def test_schedule_matches_explicit_interleave(lengths, quantum, wrap):
    assert _scheduled(lengths, quantum, wrap) == _explicit_interleave(
        lengths, quantum, wrap
    )


def test_schedule_pinned_example():
    thread, start, length = smt_schedule([3, 5], 2)
    # Three rounds; thread 0 wraps to its first chunk in round 2.
    assert thread.tolist() == [0, 1, 0, 1, 0, 1]
    assert start.tolist() == [0, 0, 2, 2, 0, 4]
    assert length.tolist() == [2, 2, 1, 2, 2, 1]
    thread, start, length = smt_schedule([3, 5], 2, wrap=False)
    assert thread.tolist() == [0, 1, 0, 1, 1]
    assert start.tolist() == [0, 0, 2, 2, 4]


def test_schedule_rejects_bad_quantum():
    with pytest.raises(ValueError):
        smt_schedule([4], 0)
