"""Content-addressed memoization of the evaluation's cached artifacts.

The evaluation matrix re-measures identical fetch streams across
experiments — the baseline stream of each study program alone is
simulated by the intro table, Table I, Fig. 4, Fig. 5, and every co-run
baseline.  :class:`SimMemo` keys each derived artifact by a content hash
of its inputs and replays the stored artifact instead of recomputing it.

Artifact kinds
--------------

One tier serves five kinds of artifact.  An :class:`ArtifactKind` is a
frozen record of everything that differs between them: its key
function, the computation run on a miss, the schema tag and JSON codec
of its entry, and what a lookup hands out.

=============  ==============================  ====================  ==========
kind           artifact (computed by)          key inputs            a lookup
                                                                     returns
=============  ==============================  ====================  ==========
``stats``      :class:`CacheStats`             stream, geometry,     a fresh
               (``setassoc.simulate``)         prefetch flag         object
``histogram``  :class:`DistanceHistogram`      stream, ``n_sets``    the stored
               (backend ``histogram``)                               object
``curve``      :class:`FootprintCurve`         stream                the stored
               (``footprint_curve``)                                 object
``affinity``   :class:`AffinityCoverage`       trace, ``w_max``,     a fresh
               (backend ``affinity``)          time horizon          object
``trg``        :class:`~repro.core.trg.TRG`    trace, window         a fresh
               (backend ``trg``)                                     object
=============  ==============================  ====================  ==========

Histograms and curves are immutable in practice, so the memory tier
keeps the object and every lookup shares it.  The other kinds may be
mutated by their callers (``reduce_trg`` consumes TRGs), so the memory
tier keeps their JSON entry — the compact form — and every lookup
decodes a fresh object from it.

Each kind hashes its own schema tag into its keys (affinity and TRG
share ``ANALYSIS_SCHEMA`` and differ in the model name), so keys never
collide across kinds and one in-memory dict holds all of them.  A cell
— the unit :mod:`repro.perf.parallel` fans out — is the tuple
``(kind name, stream, *params)``; every kind callable takes the same
``params`` after its first argument.

Keying rules
------------

A key is the SHA-256 of the kind's schema tag (bumped whenever the
computation's semantics change, so stale caches can never leak across
versions), its parameters, and the stream's content digest
(:func:`repro.perf.store.trace_digest`: SHA-256 over the stream
canonicalized to little-endian ``int64``).

Hashing the *digest* rather than the raw bytes is what unifies memo
keys with :class:`~repro.perf.store.TraceStore` keys: the store's
content key **is** the digest, so every key function here accepts
either the array or its digest string — a caller who already published
a stream derives all of its memo keys without rehashing the bytes.

The kernel backend never enters a key: every tier is bit-identical by
contract, so an entry written by one tier is a hit for every other.

Warm-state **mutating** simulations (``state=`` given) are *keyed* but
never *replayed*: a memo hit cannot reproduce the in-place state
mutation the caller asked for, so those calls pass through to the
simulator and are counted in :attr:`SimMemo.bypasses`.

Persistence is one JSON file per key under ``cache_dir``, written with
the crash-safe :func:`repro.robust.atomic.atomic_write_text` protocol —
a killed run leaves complete entries or none.  Unreadable,
schema-mismatched or otherwise undecodable entries (an affinity entry
whose parameters do not match its key included) are treated as misses
and dropped, never raised: a cache must degrade to recomputation, not
to failure.

Degradation and concurrency
---------------------------

The disk tier is wrapped in a
:class:`~repro.robust.supervisor.CircuitBreaker`: repeated read/write
``OSError`` s (a flaky disk, an NFS brown-out) trip it, after which
lookups run purely against the in-process memo (``degraded`` counts the
skipped disk operations) until the breaker half-opens on its timer and a
probe succeeds.  A missing entry file is a *healthy miss* — the tier
answered — and never counts against the breaker; corrupt entry *content*
stays on the degrade-to-recomputation path and is likewise no strike.

Concurrent writers computing the same key are de-duplicated with a
per-key advisory file lock (``flock`` on ``{key}.lock``): the loser
blocks until the winner publishes, then replays the winner's entry
instead of repeating the computation — one lookup, counted once, as a
hit.  The winner unlinks the lock file before releasing it, so a
populated cache holds entries only.  ``flock`` locks die with their
holder, so a killed winner can never deadlock the losers.  When the
platform has no ``fcntl`` the lock degrades to a no-op — both writers
compute, and the atomic rename keeps the entry intact either way.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..cache.config import CacheConfig
from ..cache.fastsim import DistanceHistogram
from ..cache.setassoc import CacheState, simulate
from ..cache.stats import CacheStats
from ..core.fastanalysis import AffinityCoverage, trg_from_payload, trg_to_payload
from ..locality.footprint import FootprintCurve, footprint_curve
from ..robust.atomic import atomic_write_text
from ..robust.faults import MEMO_READ, MEMO_WRITE, maybe_io_fault
from ..robust.supervisor import CircuitBreaker
from .backends import resolve_backend
from .store import trace_digest

__all__ = [
    "AFFINITY_KIND",
    "ArtifactKind",
    "CURVE_KIND",
    "HISTOGRAM_KIND",
    "KINDS",
    "STATS_KIND",
    "SimMemo",
    "TRG_KIND",
    "affinity_key",
    "analysis_key",
    "artifact_kind",
    "curve_key",
    "histogram_key",
    "memo_key",
    "state_fingerprint",
    "trg_key",
]

#: bumped whenever simulate()'s semantics change; invalidates old caches.
#: v3: keys hash the stream's content digest (store-key unification)
#: instead of the raw bytes.
SCHEMA = "repro.perf.memo.v3"

#: separate tag for stack-distance histogram entries (repro.cache.fastsim);
#: bumped whenever the kernel's semantics change (v2: digest-based keys).
KERNEL_SCHEMA = "repro.perf.memo.kernel.v2"

#: tag for locality-model analysis artifacts (repro.core.fastanalysis):
#: affinity coverage histograms and TRG payloads, keyed on the prepared
#: block trace + model parameters.  Bumped whenever either model's
#: semantics change (v2: digest-based keys).
ANALYSIS_SCHEMA = "repro.perf.memo.analysis.v2"

#: tag for all-window footprint curves (repro.locality.footprint).  The
#: curve depends only on the line stream, so one entry answers every
#: capacity, every peer group, and every co-run cell that program
#: appears in — the unit of reuse the fleet composition matrix counts
#: against (repro.fleet).
CURVE_SCHEMA = "repro.perf.memo.curve.v1"

#: stats fields persisted per entry, in schema order.
_STATS_FIELDS = ("accesses", "misses", "prefetches", "prefetch_hits")


def state_fingerprint(state: Optional[CacheState]) -> str:
    """Digest of a warm cache state (``"cold"`` for a fresh cache)."""
    if state is None:
        return "cold"
    h = hashlib.sha256()
    for s in state.sets:
        h.update(np.asarray(s, dtype="<i8").tobytes())
        h.update(b"/")
    h.update(np.asarray(sorted(state.prefetched), dtype="<i8").tobytes())
    return h.hexdigest()


def memo_key(
    lines,
    cfg: CacheConfig,
    *,
    prefetch: bool = False,
    state: Optional[CacheState] = None,
) -> str:
    """Content hash identifying one simulation's full input.

    ``lines`` may be the stream itself or its precomputed
    :func:`~repro.perf.store.trace_digest` — both yield the same key.
    """
    return hashlib.sha256(
        f"{SCHEMA}|{cfg.size_bytes}/{cfg.assoc}/{cfg.line_bytes}"
        f"|pf={int(prefetch)}|st={state_fingerprint(state)}"
        f"|{trace_digest(lines)}".encode()
    ).hexdigest()


def analysis_key(trace, kind: str, params: str) -> str:
    """Content hash identifying one locality-model analysis input.

    ``kind`` names the model (``affinity`` / ``trg``), ``params`` its
    result-relevant parameters — anything that changes the artifact must
    appear here, and nothing that does not (e.g. the affinity
    ``coverage`` threshold is applied at *query* time, so one coverage
    entry serves every threshold).  ``trace`` may be the symbol stream
    or its precomputed content digest.
    """
    return hashlib.sha256(
        f"{ANALYSIS_SCHEMA}|{kind}|{params}|{trace_digest(trace)}".encode()
    ).hexdigest()


def affinity_key(
    trace, *, w_max: int, time_horizon: Optional[int] = None
) -> str:
    """Key of one affinity-coverage artifact (all w <= w_max at once)."""
    return analysis_key(trace, "affinity", f"w={int(w_max)}/h={time_horizon}")


def trg_key(trace, *, window_blocks: Optional[int] = None) -> str:
    """Key of one TRG artifact."""
    return analysis_key(trace, "trg", f"win={window_blocks}")


def curve_key(lines) -> str:
    """Content hash identifying one footprint curve's input.

    The all-window footprint depends on the line stream alone — no
    geometry, no peers — so this is the coarsest memo unit in the
    family.  ``lines`` may be the stream or its content digest.
    """
    return hashlib.sha256(f"{CURVE_SCHEMA}|{trace_digest(lines)}".encode()).hexdigest()


def histogram_key(lines, n_sets: int) -> str:
    """Content hash identifying one stack-distance histogram's input.

    Deliberately coarser than :func:`memo_key`: the histogram depends
    only on the stream and ``n_sets``, so every associativity (and any
    ``line_bytes``) of the family shares one entry.  ``lines`` may be
    the stream or its content digest.
    """
    return hashlib.sha256(
        f"{KERNEL_SCHEMA}|sets={int(n_sets)}|{trace_digest(lines)}".encode()
    ).hexdigest()


# -- artifact kinds -----------------------------------------------------------


@dataclass(frozen=True)
class ArtifactKind:
    """How one kind of artifact is keyed, computed, stored and handed out.

    ``params`` below are the cell's parameters after its stream, in the
    order the kind's cells carry them (see the module docstring).
    """

    name: str
    #: tag stored in (and checked against) every entry of this kind.
    schema: str
    #: ``key(stream or its digest, *params)`` -> hex key.
    key: Callable[..., str]
    #: ``compute(backend, stream, *params)`` -> artifact, run on a miss.
    compute: Callable[..., Any]
    #: ``encode(artifact, *params)`` -> the entry's fields besides schema.
    encode: Callable[..., dict]
    #: ``decode(entry, *params)`` -> artifact; raises ``ValueError`` /
    #: ``TypeError`` / ``KeyError`` on an entry it cannot trust.
    decode: Callable[..., Any]
    #: True: memory keeps the artifact and every lookup shares it.
    #: False: memory keeps the entry and every lookup decodes a fresh one.
    shared: bool


def _decode_affinity(
    raw: dict, w_max: int, time_horizon: Optional[int]
) -> AffinityCoverage:
    covg = AffinityCoverage.from_dict(raw)
    if covg.w_max != w_max or covg.time_horizon != time_horizon:
        raise ValueError("analysis entry parameters do not match key")
    return covg


STATS_KIND = ArtifactKind(
    name="stats",
    schema=SCHEMA,
    key=lambda lines, cfg, prefetch: memo_key(lines, cfg, prefetch=prefetch),
    compute=lambda backend, lines, cfg, prefetch: simulate(
        lines, cfg, prefetch=prefetch
    ),
    encode=lambda stats, *_: {f: getattr(stats, f) for f in _STATS_FIELDS},
    decode=lambda raw, *_: CacheStats(**{f: int(raw[f]) for f in _STATS_FIELDS}),
    shared=False,
)

HISTOGRAM_KIND = ArtifactKind(
    name="histogram",
    schema=KERNEL_SCHEMA,
    key=histogram_key,
    compute=lambda backend, lines, n_sets: backend.histogram(lines, n_sets),
    encode=lambda hist, *_: hist.to_dict(),
    decode=lambda raw, *_: DistanceHistogram.from_dict(raw),
    shared=True,
)

CURVE_KIND = ArtifactKind(
    name="curve",
    schema=CURVE_SCHEMA,
    key=curve_key,
    compute=lambda backend, lines: footprint_curve(np.asarray(lines)),
    # JSON round-trips floats through ``repr``, so a reloaded curve is
    # bit-identical to the stored one — composition parity survives
    # persistence.
    encode=FootprintCurve.to_dict,
    decode=FootprintCurve.from_dict,
    shared=True,
)

AFFINITY_KIND = ArtifactKind(
    name="affinity",
    schema=ANALYSIS_SCHEMA,
    key=lambda trace, w_max, time_horizon: affinity_key(
        trace, w_max=w_max, time_horizon=time_horizon
    ),
    compute=lambda backend, trace, w_max, time_horizon: backend.affinity(
        trace, w_max=w_max, time_horizon=time_horizon
    ),
    encode=lambda covg, *_: covg.to_dict(),
    decode=_decode_affinity,
    shared=False,
)

TRG_KIND = ArtifactKind(
    name="trg",
    schema=ANALYSIS_SCHEMA,
    key=lambda trace, window_blocks: trg_key(trace, window_blocks=window_blocks),
    compute=lambda backend, trace, window_blocks: backend.trg(trace, window_blocks),
    encode=trg_to_payload,
    decode=lambda raw, *_: trg_from_payload(raw),
    shared=False,
)

#: every kind, by the name its cells carry.
KINDS: dict[str, ArtifactKind] = {
    kind.name: kind
    for kind in (STATS_KIND, HISTOGRAM_KIND, CURVE_KIND, AFFINITY_KIND, TRG_KIND)
}


def artifact_kind(name: str) -> ArtifactKind:
    """The kind a cell names; ``ValueError`` for an unknown name."""
    kind = KINDS.get(name)
    if kind is None:
        raise ValueError(
            f"unknown artifact kind {name!r}; known: {', '.join(KINDS)}"
        )
    return kind


class SimMemo:
    """Memo cache for every :class:`ArtifactKind`.

    Parameters
    ----------
    cache_dir:
        optional directory for persistent entries.  ``None`` keeps the
        memo purely in-memory (one process lifetime).
    breaker:
        the :class:`~repro.robust.supervisor.CircuitBreaker` guarding
        the disk tier (a default one is built when omitted).  Tripped,
        the memo keeps answering from memory and recomputation while
        ``degraded`` counts the skipped disk operations.

    Counters: ``hits`` / ``misses`` split lookups, each counted once;
    ``bypasses`` counts warm-state mutating calls that skipped the memo
    entirely; ``disk_failures`` / ``degraded`` / ``lock_waits`` track
    the disk tier's health (see the module docstring).
    """

    def __init__(
        self,
        cache_dir: Optional[str | Path] = None,
        *,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: decoded artifacts of every kind (keys are schema-distinct).
        self._mem: dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.disk_failures = 0
        self.degraded = 0
        self.lock_waits = 0

    # -- storage -----------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.json"

    def _disk_read(self, path: Path) -> Optional[str]:
        """Read an entry file through the circuit breaker.

        Returns the text, or None when the file is absent (a healthy
        miss — the tier answered, no strike), the tier is degraded
        (breaker open), or the read itself failed (one strike).
        """
        if not self.breaker.allow():
            self.degraded += 1
            return None
        try:
            maybe_io_fault(MEMO_READ, str(path))
            text = path.read_text()
        except FileNotFoundError:
            self.breaker.record_success()
            return None
        except OSError:
            self.disk_failures += 1
            self.breaker.record_failure()
            return None
        self.breaker.record_success()
        return text

    def _disk_write(self, path: Path, text: str) -> bool:
        """Persist an entry through the circuit breaker; False if the
        write was skipped (degraded) or failed.  The in-memory tier has
        the entry either way, so callers never need the outcome."""
        if not self.breaker.allow():
            self.degraded += 1
            return False
        assert self.cache_dir is not None
        try:
            maybe_io_fault(MEMO_WRITE, str(path))
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, text)
        except OSError:
            self.disk_failures += 1
            self.breaker.record_failure()
            return False
        self.breaker.record_success()
        return True

    @staticmethod
    def _drop_entry(path: Path) -> None:
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass  # cleanup is best-effort; the entry already lost.

    @contextmanager
    def _key_lock(self, key: str) -> Iterator[None]:
        """Cross-process advisory lock for one key (compute dedup).

        The caller must re-check the entry once inside: a holder it
        waited on may have published it meanwhile.  The holder unlinks
        the ``{key}.lock`` sidecar before releasing, so no lock file
        outlives its computation.  A waiter still blocked on the
        unlinked inode and a newcomer locking a fresh file can then both
        get in, but only after the entry is published, which their
        re-check finds.  ``flock`` is released by the kernel when its
        holder dies, so a killed winner cannot strand the losers; on
        lockless platforms (or an unwritable cache dir) this degrades
        to a no-op and both writers compute.
        """
        if self.cache_dir is None or fcntl is None:
            yield
            return
        path = self.cache_dir / f"{key}.lock"
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fh = open(path, "a+")
        except OSError:
            yield
            return
        try:
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self.lock_waits += 1
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            self._drop_entry(path)
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
            fh.close()

    def _peek(self, kind: ArtifactKind, key: str, params: tuple):
        """The artifact stored under ``key``, or None; no counters.

        An entry that fails to decode — corrupt, stale schema, or
        parameters that do not match the key — is dropped, so the
        caller recomputes and overwrites it.
        """
        held = self._mem.get(key)
        if held is not None and kind.shared:
            return held
        if held is None:
            if self.cache_dir is None:
                return None
            text = self._disk_read(self._entry_path(key))
            if text is None:
                return None
        try:
            entry = json.loads(text) if held is None else held
            if entry.get("schema") != kind.schema:
                raise ValueError(f"schema {entry.get('schema')!r}")
            artifact = kind.decode(entry, *params)
        except (ValueError, TypeError, KeyError, AttributeError):
            # Corrupt or stale entry: a cache degrades to recomputation.
            self._mem.pop(key, None)
            if held is None:
                self._drop_entry(self._entry_path(key))
            return None
        self._mem[key] = artifact if kind.shared else entry
        return artifact

    def get(self, kind: ArtifactKind, key: str, *params):
        """The stored artifact for ``key``, counting the lookup as a hit
        or a miss; ``params`` are the cell's (affinity entries are
        checked against them)."""
        artifact = self._peek(kind, key, params)
        if artifact is None:
            self.misses += 1
        else:
            self.hits += 1
        return artifact

    def put(self, kind: ArtifactKind, key: str, artifact, *params) -> None:
        """Store ``artifact`` under ``key`` (in memory, and on disk if
        enabled).  For unshared kinds memory keeps only the entry, never
        the caller's object."""
        entry = None
        if self.cache_dir is not None or not kind.shared:
            entry = {"schema": kind.schema, **kind.encode(artifact, *params)}
        self._mem[key] = artifact if kind.shared else entry
        if self.cache_dir is not None:
            self._disk_write(self._entry_path(key), json.dumps(entry, sort_keys=True))

    def get_or_compute(
        self, kind: ArtifactKind, lines, *params, backend=None
    ) -> tuple[Any, bool]:
        """The artifact for ``(lines, *params)`` and whether this call
        computed it.

        A miss takes the key's lock and re-checks the entry (another
        writer may have published it meanwhile); only then does it
        compute — on ``backend``, the fastest tier when None — and
        store.  Either way the lookup is counted once.
        """
        key = kind.key(lines, *params)
        artifact = self._peek(kind, key, params)
        if artifact is None:
            with self._key_lock(key):
                # Replay an entry a previous lock holder published
                # instead of repeating its computation.
                artifact = self._peek(kind, key, params)
                if artifact is None:
                    self.misses += 1
                    artifact = kind.compute(
                        backend or resolve_backend(), lines, *params
                    )
                    self.put(kind, key, artifact, *params)
                    return artifact, True
        self.hits += 1
        return artifact, False

    def invalidate(self, key: str) -> bool:
        """Drop ``key`` from memory and disk; True if anything was removed."""
        removed = self._mem.pop(key, None) is not None
        if self.cache_dir is not None:
            path = self._entry_path(key)
            if path.exists():
                path.unlink()
                removed = True
            # The lock sidecar is bookkeeping, not an entry: drop it
            # silently and without affecting the return value.
            self._drop_entry(self.cache_dir / f"{key}.lock")
        return removed

    # -- the memoized computations -----------------------------------------

    def simulate(
        self,
        lines: np.ndarray,
        cfg: CacheConfig,
        *,
        prefetch: bool = False,
        state: Optional[CacheState] = None,
    ) -> CacheStats:
        """Drop-in for :func:`repro.cache.setassoc.simulate`, memoized.

        Warm-state calls mutate ``state`` in place, which a replay cannot
        reproduce — they bypass the memo (counted in ``bypasses``).
        """
        if state is not None:
            self.bypasses += 1
            return simulate(lines, cfg, prefetch=prefetch, state=state)
        return self.get_or_compute(STATS_KIND, lines, cfg, prefetch)[0]

    def histogram(
        self, lines: np.ndarray, n_sets: int, *, backend=None
    ) -> DistanceHistogram:
        """Memoized stack-distance histogram; one entry answers every
        associativity at ``n_sets``."""
        return self.get_or_compute(HISTOGRAM_KIND, lines, n_sets, backend=backend)[0]

    def footprint_curve(self, lines: np.ndarray) -> FootprintCurve:
        """Memoized :func:`repro.locality.footprint.footprint_curve`."""
        return self.get_or_compute(CURVE_KIND, lines)[0]

    def affinity_coverage(
        self,
        trace: np.ndarray,
        *,
        w_max: int,
        time_horizon: Optional[int] = None,
        backend=None,
    ) -> AffinityCoverage:
        """Memoized affinity coverage; one entry answers every
        ``coverage`` threshold and every ``w <= w_max``."""
        return self.get_or_compute(
            AFFINITY_KIND, trace, w_max, time_horizon, backend=backend
        )[0]

    def trg(self, trace: np.ndarray, *, window_blocks: Optional[int] = None, backend=None):
        """Memoized TRG build; always a fresh graph."""
        return self.get_or_compute(TRG_KIND, trace, window_blocks, backend=backend)[0]

    # -- introspection -----------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hits over keyed lookups (bypasses excluded); 0.0 when unused."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "disk_failures": self.disk_failures,
            "degraded": self.degraded,
            "lock_waits": self.lock_waits,
            "breaker_trips": self.breaker.trips,
            "breaker_recoveries": self.breaker.recoveries,
            "hit_rate": round(self.hit_rate, 4),
        }

    def scrub(self) -> tuple[int, int]:
        """Validate every on-disk entry; returns ``(kept, dropped)``.

        Drops entries that are unreadable, non-JSON, or carry an unknown
        schema tag, plus stray ``.lock`` and ``.tmp`` files (lock files
        of killed lock holders, temp files from killed atomic writes).
        Run after a chaos soak — or any hard kill — to guarantee the
        cache directory holds only complete, valid artifacts.
        """
        if self.cache_dir is None or not self.cache_dir.exists():
            return (0, 0)
        kept = dropped = 0
        valid = {kind.schema for kind in KINDS.values()}
        for path in sorted(self.cache_dir.iterdir()):
            if path.suffix in (".lock", ".tmp"):
                self._drop_entry(path)
                continue
            if path.suffix != ".json":
                continue
            try:
                ok = json.loads(path.read_text()).get("schema") in valid
            except (OSError, ValueError, AttributeError):
                ok = False
            if ok:
                kept += 1
            else:
                self._drop_entry(path)
                dropped += 1
        return (kept, dropped)
