"""Shared-cache co-run simulation (SMT hyper-threading).

When two programs co-run on the hyper-threads of one core, they share the
L1 instruction cache.  This simulator interleaves the threads' fetch
streams into one shared set-associative LRU cache and reports per-thread
statistics — the reproduction of the paper's "CMP L1 instruction cache"
Pin extension.

Interleaving policy: round-robin quanta of ``quantum`` line accesses per
thread, modeling the alternating fetch slots of SMT front-ends.  A thread
whose stream ends is restarted from the beginning (``wrap=True``, the
standard co-run methodology: the probe program is re-run until the measured
program completes), or drops out (``wrap=False``).  The simulation stops
once every thread has completed at least one full pass of its stream.

That schedule never depends on hits or misses, so :func:`smt_schedule`
computes it up front in NumPy: thread ``t`` splits its stream into
``c_t = ceil(n_t / quantum)`` chunks, and in round ``r`` it issues chunk
``r mod c_t`` (with ``wrap=False``, nothing once ``r >= c_t``), threads
in index order, for ``max_t c_t`` rounds.  :func:`simulate_shared` gathers
the merged line stream and a narrow thread-id array from it, counts
per-thread ``accesses`` with one ``bincount``, and runs one flat LRU loop
over the merged stream.  As in :func:`repro.cache.setassoc.simulate`, an
access equal to the one just before it in the *merged* stream is dropped
before the loop: its predecessor (of whichever thread) left the line at
MRU and already consumed its pending prefetch, so the repeat is a hit
that changes no state and no counter but ``accesses``.  A single-set
cache with prefetch on is the exception and runs uncollapsed (see
:func:`~repro.cache.setassoc.collapses_repeats`).
:func:`simulate_shared_reference` is the per-quantum loop the schedule
replaced, kept as the parity oracle for tests and ``kernel-bench``.

Per-thread stats cover all accesses the thread actually issued (including
wrapped passes), so miss ratios remain well-defined for both threads.

Prefetch attribution: the shared next-line prefetcher is one hardware
resource, so a line prefetched on thread A's miss can be consumed by
thread B.  The politeness accounting must not conflate those: per-thread
``prefetches`` counts lines the thread *issued*, and consumed hits are
split into ``prefetch_hits_self`` (the consuming thread also issued the
prefetch — self-help) and ``prefetch_hits_cross`` (a peer issued it —
peer-help received).  ``prefetch_hits`` remains the consumer-side total,
``self + cross``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CacheConfig
from .setassoc import _CHUNK, collapses_repeats, repeat_free
from .stats import CacheStats

__all__ = [
    "SharedCacheStats",
    "simulate_shared",
    "simulate_shared_reference",
    "smt_schedule",
]


@dataclass
class SharedCacheStats(CacheStats):
    """One thread's view of a shared-cache co-run.

    Extends :class:`CacheStats` with the issuer-aware prefetch split:
    ``prefetches`` counts prefetches this thread *issued* (its demand
    misses triggered them); ``prefetch_hits`` counts prefetched lines
    this thread *consumed*, split into ``prefetch_hits_self`` (it issued
    the prefetch itself) and ``prefetch_hits_cross`` (a co-running peer
    issued it).  Invariant: ``prefetch_hits == prefetch_hits_self +
    prefetch_hits_cross``, pinned by the test suite.
    """

    #: consumed prefetched lines this thread also issued (self-help).
    prefetch_hits_self: int = 0
    #: consumed prefetched lines a peer thread issued (peer-help received).
    prefetch_hits_cross: int = 0


def smt_schedule(
    lengths, quantum: int, *, wrap: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The round-robin SMT issue order as ``(thread, start, length)`` blocks.

    Block ``i`` is thread ``thread[i]`` issuing positions
    ``start[i] : start[i] + length[i]`` of its stream; blocks are in issue
    order.  Round ``r`` issues chunk ``r mod ceil(n_t / quantum)`` of each
    non-empty thread ``t`` in index order; with ``wrap=False`` a thread
    issues nothing after its one pass.  There are ``max_t ceil(n_t /
    quantum)`` rounds, so every thread completes at least one pass.
    """
    if quantum < 1:
        raise ValueError("quantum must be >= 1")
    n = np.asarray(lengths, dtype=np.int64).reshape(-1)
    chunks = -(-n // quantum)
    rounds = int(chunks.max()) if len(n) else 0
    r = np.arange(rounds, dtype=np.int64)[:, None]
    start = (r % np.maximum(chunks, 1)) * quantum
    length = np.minimum(n - start, quantum)
    if not wrap:
        length[r >= chunks] = 0
    issued = length.ravel() > 0
    thread = np.broadcast_to(np.arange(len(n)), start.shape).ravel()[issued]
    return thread, start.ravel()[issued], length.ravel()[issued]


def simulate_shared(
    streams: list[np.ndarray],
    cfg: CacheConfig,
    *,
    quantum: int = 8,
    wrap: bool = True,
    prefetch: bool = False,
) -> list[SharedCacheStats]:
    """Co-run ``streams`` in one shared cache; returns per-thread stats.

    ``quantum`` is the number of consecutive line accesses a thread issues
    before yielding (SMT fetch granularity).  With ``prefetch`` the shared
    next-line prefetcher runs for all threads (as on real SMT cores, where
    the L1I prefetcher is a shared resource); each pending prefetched line
    remembers its issuing thread so consumption is attributed self vs.
    cross (see :class:`SharedCacheStats`).
    """
    n_threads = len(streams)
    if n_threads == 0:
        return []
    arrays = [
        s if isinstance(s, np.ndarray) else np.asarray(s, np.int64) for s in streams
    ]
    thread, start, length = smt_schedule(
        [len(a) for a in arrays], quantum, wrap=wrap
    )
    # Block lengths sum exactly in float64 (far below 2**53 accesses).
    accesses = np.bincount(thread, weights=length, minlength=n_threads)
    accesses = accesses.astype(np.int64).tolist()
    merged, tids = _interleave(arrays, thread, start, length)
    del thread, start, length
    if collapses_repeats(cfg, prefetch):
        keep = np.flatnonzero(repeat_free(merged))
        merged, tids = merged[keep], tids[keep]
        del keep

    sets: list[list[int]] = [[] for _ in range(cfg.n_sets)]
    #: pending prefetched line -> thread that issued the prefetch.
    prefetched: dict[int, int] = {}
    mask = cfg.n_sets - 1
    assoc = cfg.assoc
    misses = [0] * n_threads
    prefetches = [0] * n_threads
    hits_self = [0] * n_threads
    hits_cross = [0] * n_threads

    for lo in range(0, len(merged), _CHUNK):
        hi = lo + _CHUNK
        for line, t in zip(merged[lo:hi].tolist(), tids[lo:hi].tolist()):
            s = sets[line & mask]
            try:
                i = s.index(line)
            except ValueError:
                misses[t] += 1
                s.insert(0, line)
                if len(s) > assoc:
                    prefetched.pop(s.pop(), None)
                if prefetch:
                    nxt = line + 1
                    ns = sets[nxt & mask]
                    # Never let the prefetch evict its own demand line
                    # (single-set, single-way geometry); same guard as
                    # the solo simulator.
                    if nxt not in ns and not (len(ns) >= assoc and ns[-1] == line):
                        prefetches[t] += 1
                        prefetched[nxt] = t
                        ns.insert(0, nxt)
                        if len(ns) > assoc:
                            prefetched.pop(ns.pop(), None)
                continue
            if i:
                s.insert(0, s.pop(i))
            if prefetch and line in prefetched:
                if prefetched.pop(line) == t:
                    hits_self[t] += 1
                else:
                    hits_cross[t] += 1

    return [
        SharedCacheStats(
            accesses=accesses[t],
            misses=misses[t],
            prefetches=prefetches[t],
            prefetch_hits=hits_self[t] + hits_cross[t],
            prefetch_hits_self=hits_self[t],
            prefetch_hits_cross=hits_cross[t],
        )
        for t in range(n_threads)
    ]


def _interleave(
    arrays: list[np.ndarray],
    thread: np.ndarray,
    start: np.ndarray,
    length: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the merged line stream and its thread ids from a schedule."""
    total = int(length.sum())
    lengths = [len(a) for a in arrays]
    idx_type = np.int32 if max(total, sum(lengths)) < 2**31 else np.int64
    base = np.cumsum([0] + lengths[:-1], dtype=np.int64)
    # Position k of block b reads concatenated index first[b] + (k - begin[b]).
    first = base[thread] + start - (np.cumsum(length) - length)
    idx = np.repeat(first.astype(idx_type), length)
    idx += np.arange(total, dtype=idx_type)
    merged = np.concatenate(arrays)[idx]
    del idx
    tids = np.repeat(thread.astype(np.min_scalar_type(len(arrays) - 1)), length)
    return merged, tids


def simulate_shared_reference(
    streams: list[np.ndarray],
    cfg: CacheConfig,
    *,
    quantum: int = 8,
    wrap: bool = True,
    prefetch: bool = False,
) -> list[SharedCacheStats]:
    """The per-quantum co-run loop: parity oracle of :func:`simulate_shared`.

    Same contract as :func:`simulate_shared`; it walks the round-robin
    quanta with Python cursors and simulates every access.  Tests and
    ``python -m repro.perf kernel-bench`` call it; no production path does.
    """
    n_threads = len(streams)
    if n_threads == 0:
        return []
    if quantum < 1:
        raise ValueError("quantum must be >= 1")

    lists = [
        s.tolist() if isinstance(s, np.ndarray) else list(s) for s in streams
    ]
    lengths = [len(s) for s in lists]
    stats = [SharedCacheStats() for _ in range(n_threads)]
    # Threads with empty streams are complete from the start.
    done = [n == 0 for n in lengths]
    cursors = [0] * n_threads

    sets: list[list[int]] = [[] for _ in range(cfg.n_sets)]
    #: pending prefetched line -> thread that issued the prefetch.
    prefetched: dict[int, int] = {}
    mask = cfg.n_sets - 1
    assoc = cfg.assoc

    active = [t for t in range(n_threads) if lengths[t] > 0]
    while not all(done):
        progressed = False
        for t in active:
            stream = lists[t]
            n = lengths[t]
            if n == 0:
                continue
            st = stats[t]
            pos = cursors[t]
            end = min(pos + quantum, n)
            accesses = 0
            misses = 0
            for k in range(pos, end):
                line = stream[k]
                accesses += 1
                s = sets[line & mask]
                try:
                    i = s.index(line)
                except ValueError:
                    misses += 1
                    s.insert(0, line)
                    if len(s) > assoc:
                        prefetched.pop(s.pop(), None)
                    if prefetch:
                        nxt = line + 1
                        ns = sets[nxt & mask]
                        # Never let the prefetch evict its own demand
                        # line (single-set, single-way geometry); same
                        # guard as the solo simulator.
                        if nxt not in ns and not (
                            len(ns) >= assoc and ns[-1] == line
                        ):
                            st.prefetches += 1
                            prefetched[nxt] = t
                            ns.insert(0, nxt)
                            if len(ns) > assoc:
                                prefetched.pop(ns.pop(), None)
                    continue
                if i:
                    s.insert(0, s.pop(i))
                if prefetch and line in prefetched:
                    issuer = prefetched.pop(line)
                    st.prefetch_hits += 1
                    if issuer == t:
                        st.prefetch_hits_self += 1
                    else:
                        st.prefetch_hits_cross += 1
            st.accesses += accesses
            st.misses += misses
            progressed = progressed or accesses > 0
            if end >= n:
                done[t] = True
                if wrap and not all(done):
                    cursors[t] = 0
                else:
                    cursors[t] = n
                    if not wrap:
                        # Thread leaves the core; stop issuing for it.
                        lengths[t] = 0
            else:
                cursors[t] = end
        if not progressed:  # pragma: no cover - guards infinite loops
            break
    return stats
