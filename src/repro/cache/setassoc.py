"""Event-driven set-associative LRU cache simulation (solo runs).

This is the reproduction's stand-in for the paper's Pin-based instruction
cache simulator.  It consumes the line-index streams produced by
:mod:`repro.engine.fetch` and reports :class:`~repro.cache.stats.CacheStats`.

Replacement is true LRU per set.  An optional *next-line prefetcher* models
the dominant hardware effect the paper credits for the gap between
hardware-counter and simulator miss reductions: on every demand miss of
line ``L``, line ``L+1`` is installed as well (tagged prefetch).  The clean
simulator channel runs with ``prefetch=False``; the hardware-counter channel
(:mod:`repro.machine.counters`) runs with ``prefetch=True``.

Implementation note: LRU is not vectorizable, so :func:`simulate` is a
deliberately tight Python loop — per-set Python lists with C-speed
``list.index`` / ``insert`` / ``pop`` over a stream converted with
``tolist()`` in bounded chunks.  Before the loop, one NumPy mask drops
every access that repeats the access just before it (about 16% of a
fetch stream: consecutive blocks on one line).  The drop is exact: the
predecessor left that line at the MRU slot of its set, so the repeat is a
hit at index 0 that moves nothing; and the predecessor already consumed
the line's pending prefetch tag, if any.  The prefetch of a miss lands in
set ``(L+1) & mask``, which differs from ``L``'s set whenever
``n_sets > 1``; with a single set and prefetch on, the prefetched line
goes in front of ``L`` and the repeat reorders the set, so that one
geometry runs uncollapsed.  ``accesses`` counts the full stream either
way.  :func:`simulate_reference` is the uncollapsed loop, kept as the
parity oracle for tests and the ``kernel-bench`` gate.
"""

from __future__ import annotations

import numpy as np

from .config import CacheConfig
from .stats import CacheStats

__all__ = [
    "simulate",
    "simulate_reference",
    "warm_cache",
    "CacheState",
    "repeat_free",
    "collapses_repeats",
]

#: accesses converted to a Python list at a time (bounds the loop's
#: list memory independently of the stream length).
_CHUNK = 1 << 16


class CacheState:
    """Mutable cache contents, reusable across simulation calls.

    Exposed so co-run simulations and warm-start experiments can share and
    inspect state; most callers use :func:`simulate` directly.
    """

    __slots__ = ("cfg", "sets", "prefetched")

    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg
        self.sets: list[list[int]] = [[] for _ in range(cfg.n_sets)]
        self.prefetched: set[int] = set()

    def resident_lines(self) -> set[int]:
        """All line indices currently cached."""
        return {line for s in self.sets for line in s}


def collapses_repeats(cfg: CacheConfig, prefetch: bool) -> bool:
    """Whether an access equal to its predecessor may be skipped exactly.

    True unless a single-set cache runs the prefetcher: there the
    prefetched line ``L+1`` lands in front of ``L`` in the same set, so
    the repeat of ``L`` is a hit that reorders the set.
    """
    return cfg.n_sets > 1 or not prefetch


def repeat_free(lines: np.ndarray) -> np.ndarray:
    """Mask keeping each access that differs from the one just before it."""
    keep = np.ones(len(lines), dtype=bool)
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    return keep


def simulate(
    lines: np.ndarray,
    cfg: CacheConfig,
    *,
    prefetch: bool = False,
    state: CacheState | None = None,
) -> CacheStats:
    """Run ``lines`` through a set-associative LRU cache.

    Parameters
    ----------
    lines: int array of line indices (byte address // line size).
    cfg: cache geometry.
    prefetch: enable the next-line prefetcher.
    state: optional pre-existing cache state (warm start); mutated in place.
    """
    if state is None:
        state = CacheState(cfg)
    elif state.cfg != cfg:
        raise ValueError("state was built for a different cache configuration")

    sets = state.sets
    prefetched = state.prefetched
    mask = cfg.n_sets - 1
    assoc = cfg.assoc
    misses = 0
    n_prefetch = 0
    n_prefetch_hits = 0

    stream = lines if isinstance(lines, np.ndarray) else np.asarray(lines, np.int64)
    accesses = len(stream)
    if collapses_repeats(cfg, prefetch):
        stream = stream[repeat_free(stream)]
    for lo in range(0, len(stream), _CHUNK):
        for line in stream[lo : lo + _CHUNK].tolist():
            s = sets[line & mask]
            try:
                i = s.index(line)
            except ValueError:
                misses += 1
                s.insert(0, line)
                if len(s) > assoc:
                    prefetched.discard(s.pop())
                if prefetch:
                    nxt = line + 1
                    ns = sets[nxt & mask]
                    # A tagged prefetch must never evict the demand line
                    # that triggered it (n_sets == 1 with L in the victim
                    # way); see simulate_reference.
                    if nxt not in ns and not (len(ns) >= assoc and ns[-1] == line):
                        n_prefetch += 1
                        prefetched.add(nxt)
                        ns.insert(0, nxt)
                        if len(ns) > assoc:
                            prefetched.discard(ns.pop())
                continue
            if i:
                s.insert(0, s.pop(i))
            if prefetch and line in prefetched:
                prefetched.discard(line)
                n_prefetch_hits += 1

    return CacheStats(
        accesses=accesses,
        misses=misses,
        prefetches=n_prefetch,
        prefetch_hits=n_prefetch_hits,
    )


def simulate_reference(
    lines: np.ndarray,
    cfg: CacheConfig,
    *,
    prefetch: bool = False,
    state: CacheState | None = None,
) -> CacheStats:
    """The uncollapsed LRU loop: parity oracle of :func:`simulate`.

    Same contract as :func:`simulate`, but it walks every access of
    ``lines``.  Tests and ``python -m repro.perf kernel-bench`` call it;
    no production path does.
    """
    if state is None:
        state = CacheState(cfg)
    elif state.cfg != cfg:
        raise ValueError("state was built for a different cache configuration")

    sets = state.sets
    prefetched = state.prefetched
    mask = cfg.n_sets - 1
    assoc = cfg.assoc
    stats = CacheStats()
    misses = 0
    accesses = 0
    n_prefetch = 0
    n_prefetch_hits = 0

    stream = lines.tolist() if isinstance(lines, np.ndarray) else list(lines)
    for line in stream:
        accesses += 1
        s = sets[line & mask]
        try:
            i = s.index(line)
        except ValueError:
            misses += 1
            s.insert(0, line)
            if len(s) > assoc:
                victim = s.pop()
                prefetched.discard(victim)
            if prefetch:
                nxt = line + 1
                ns = sets[nxt & mask]
                # A tagged prefetch must never evict the demand line that
                # triggered it.  That is only possible when L and L+1 map
                # to the same set (n_sets == 1) and L sits in the victim
                # way (assoc == 1) — degenerate geometry, but silently
                # re-missing the demand line corrupted miss counts there.
                if nxt not in ns and not (len(ns) >= assoc and ns[-1] == line):
                    n_prefetch += 1
                    prefetched.add(nxt)
                    ns.insert(0, nxt)
                    if len(ns) > assoc:
                        victim = ns.pop()
                        prefetched.discard(victim)
            continue
        if i:
            s.insert(0, s.pop(i))
        if prefetch and line in prefetched:
            prefetched.discard(line)
            n_prefetch_hits += 1

    stats.accesses = accesses
    stats.misses = misses
    stats.prefetches = n_prefetch
    stats.prefetch_hits = n_prefetch_hits
    return stats


def warm_cache(lines: np.ndarray, cfg: CacheConfig, *, prefetch: bool = False) -> CacheState:
    """Return the cache state after running ``lines`` (for warm-start tests)."""
    state = CacheState(cfg)
    simulate(lines, cfg, prefetch=prefetch, state=state)
    return state


def simulate_policy(
    lines: np.ndarray,
    cfg: CacheConfig,
    policy: str = "lru",
    seed: int = 0,
    *,
    prefetch: bool = False,
    state: CacheState | None = None,
) -> CacheStats:
    """Simulate under an alternative replacement policy.

    Slower than :func:`simulate` (polymorphic per-set objects instead of
    the tuned LRU loop); used by the replacement-policy ablation.  With
    ``policy="lru"`` the miss counts match :func:`simulate` exactly, which
    the test suite verifies.

    ``prefetch`` and ``state`` exist for signature compatibility with
    :func:`simulate` but are **not implemented** for the polymorphic
    policy sets; passing either raises :class:`ValueError` instead of
    silently simulating something else.
    """
    if prefetch:
        raise ValueError(
            "simulate_policy does not support the next-line prefetcher; "
            "use simulate() for prefetch-enabled runs"
        )
    if state is not None:
        raise ValueError(
            "simulate_policy does not support warm-start state; "
            "use simulate() for warm-start runs"
        )
    from .policies import make_policy

    sets = [make_policy(policy, cfg.assoc, seed + i) for i in range(cfg.n_sets)]
    mask = cfg.n_sets - 1
    stats = CacheStats()
    misses = 0
    stream = lines.tolist() if isinstance(lines, np.ndarray) else list(lines)
    for line in stream:
        if not sets[line & mask].lookup(line):
            misses += 1
    stats.accesses = len(stream)
    stats.misses = misses
    return stats
