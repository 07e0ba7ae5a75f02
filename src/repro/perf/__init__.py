"""Performance subsystem: parallel execution, memoization, telemetry.

The evaluation matrix (programs x layouts x cache configs x co-run
pairs) is embarrassingly parallel and heavily redundant; this package
makes it fast without changing a single result:

- :mod:`repro.perf.parallel` — process-pool fan-out at two levels:
  whole experiments (``python -m repro.experiments --jobs N``) and
  independent ``(kind, stream, *params)`` cells inside a pipeline
  (:func:`~repro.perf.parallel.memoized_cells`);
- :mod:`repro.perf.memo` — a content-addressed, disk-persistent memo
  cache (:class:`~repro.perf.memo.SimMemo`) with one tier for the five
  cached artifact kinds (:data:`~repro.perf.memo.KINDS`): sim stats,
  stack-distance histograms, footprint curves, affinity coverage and
  TRGs, each keyed by a hash of its stream and result-relevant
  parameters;
- :mod:`repro.perf.store` — a zero-copy, content-addressed trace store
  (:class:`~repro.perf.store.TraceStore`): int64 streams persist as
  mmap-backed ``.npy`` entries keyed by :func:`~repro.perf.store.trace_digest`
  (the same digest every memo key consumes), so cell dispatches ship
  ~100-byte :class:`~repro.perf.store.StoreRef` descriptors instead of
  pickled arrays and workers attach with ``np.memmap`` reads;
- :mod:`repro.perf.telemetry` — per-stage wall time, simulator
  throughput, and memo hit rates aggregated into ``BENCH_perf.json``
  (:class:`~repro.perf.telemetry.Telemetry`), plus the journal-parity
  oracle used by the CI benchmark smoke job
  (``python -m repro.perf compare-journals``).

Determinism is the contract: every knob here trades wall-clock time,
never results — enforced by ``tests/perf/``.
"""

from .backends import (
    KernelBackend,
    available_backends,
    default_backend,
    resolve_backend,
)
from .memo import (
    ANALYSIS_SCHEMA,
    KINDS,
    ArtifactKind,
    SimMemo,
    affinity_key,
    analysis_key,
    histogram_key,
    memo_key,
    state_fingerprint,
    trg_key,
)
from .parallel import CellPool, compute_cells, memoized_cells, rebuild_error
from .store import StoreRef, TraceStore, trace_digest
from .telemetry import BENCH_SCHEMA, Telemetry, compare_journal_outcomes

__all__ = [
    "ANALYSIS_SCHEMA",
    "ArtifactKind",
    "BENCH_SCHEMA",
    "CellPool",
    "KINDS",
    "KernelBackend",
    "SimMemo",
    "StoreRef",
    "Telemetry",
    "TraceStore",
    "affinity_key",
    "analysis_key",
    "available_backends",
    "compare_journal_outcomes",
    "compute_cells",
    "default_backend",
    "histogram_key",
    "memo_key",
    "memoized_cells",
    "rebuild_error",
    "resolve_backend",
    "state_fingerprint",
    "trace_digest",
    "trg_key",
]
