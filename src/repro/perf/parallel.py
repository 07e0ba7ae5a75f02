"""Process-pool execution of experiments and simulation cells.

Two fan-out layers, matching the structure of the evaluation, with one
pool type each:

* **experiment level** — :class:`~repro.robust.supervisor.SupervisedPool`
  runs whole experiment drivers in worker processes.  Each worker is
  set up by :func:`_init_experiment_worker`, which builds its own
  :class:`~repro.experiments.pipeline.Lab` from the parent lab's
  configuration (labs hold megabytes of memoized traces and are not
  shareable); :func:`_experiment_task` executes the same per-experiment
  attempt loop as the serial runner and ships back a picklable payload:
  the :class:`~repro.experiments.report.ExperimentResult`, the typed
  error as a dict (rebuilt by :func:`rebuild_error`), retry notes, and
  the lab's stage timings/counters.  The parent consumes payloads **in
  submission order**, so output, journal, and outcomes are identical to
  a serial run (modulo wall-clock fields).

* **cell level** — :class:`CellPool` maps independent cells.  A cell
  is ``(kind, stream, *params)``, ``kind`` naming one of the five
  :class:`~repro.perf.memo.ArtifactKind` s (sim stats, stack-distance
  histograms, footprint curves, affinity coverage, TRGs), and one cell
  function, :func:`_compute_cell`, computes any of them.
  :func:`compute_cells` maps cells as they are; :func:`memoized_cells`
  is the memo-aware fan-out — it answers what the memo holds, ships
  only the misses and stores their results.  The
  :class:`~repro.compiler.driver.Driver` evaluation stage and
  ``Lab.precompute_{solo,footprints,layouts}`` all go through it; a
  ``CellPool(1)`` is a plain serial loop in the calling process.

Cell traffic is zero-copy when a :class:`~repro.perf.store.TraceStore`
is attached: a cell's stream argument may be a
:class:`~repro.perf.store.StoreRef` descriptor instead of the pickled
array, and workers resolve it against the store with an ``np.memmap``
read.  :class:`CellPool` keeps the workers alive across fan-out calls
(one persistent pool per Lab/Driver instead of a throwaway
``ProcessPoolExecutor`` per map) and submits cells in batches to
amortize IPC.

Every simulation here is deterministic (seeded noise, content-addressed
inputs), so distributing work across processes cannot change any result
— the parity tests in ``tests/perf/`` and the CI benchmark smoke job
enforce exactly that.
"""

from __future__ import annotations

import functools
import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Optional

import numpy as np

from ..robust.errors import (
    ArtifactError,
    ProfileError,
    ReproError,
    SimulationError,
    WorkerCrashError,
    WorkerHangError,
)
from .store import StoreRef, TraceStore, trace_digest

__all__ = [
    "CellPool",
    "compute_cells",
    "memoized_cells",
    "rebuild_error",
]

#: the per-process Lab of an experiment worker (set by the initializer).
_WORKER_LAB = None

#: the per-process TraceStore cell kernels resolve StoreRefs against.
#: Set by the cell-worker initializer; in the parent it is (re)pointed at
#: the pool's store on every map, so the serial degradation path resolves
#: the exact same refs.
_CELL_STORE: Optional[TraceStore] = None

#: the per-process KernelBackend cell kernels run on.  Set by the
#: cell-worker initializer from the *requested* tier name with
#: ``strict=False`` — each worker resolves against its own environment,
#: so a ``compiled`` parent mixed with a numba-less worker degrades to
#: ``numpy`` with bit-identical results.  ``None`` means "not resolved
#: yet"; :func:`_cell_backend` then picks the fastest available tier.
_CELL_BACKEND = None


def _cell_backend():
    """This process's resolved kernel backend (fastest tier by default)."""
    global _CELL_BACKEND
    if _CELL_BACKEND is None:
        from .backends import resolve_backend

        _CELL_BACKEND = resolve_backend(None)
    return _CELL_BACKEND


def _mp_context():
    """Prefer fork (fast, POSIX) and fall back to spawn portably."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# -- experiment-level fan-out -------------------------------------------------

def _init_experiment_worker(
    lab_config: dict,
    memo_dir: Optional[str],
    breaker_config: Optional[dict] = None,
    store_dir: Optional[str] = None,
) -> None:
    from ..experiments.pipeline import Lab
    from .memo import SimMemo

    global _WORKER_LAB
    lab_config = dict(lab_config)
    lab_config["jobs"] = 1  # no nested pools inside a worker
    if memo_dir is not None:
        if breaker_config:
            from ..robust.supervisor import CircuitBreaker

            lab_config["memo"] = SimMemo(
                memo_dir, breaker=CircuitBreaker(**breaker_config)
            )
        else:
            lab_config["memo"] = SimMemo(memo_dir)
    if store_dir is not None:
        lab_config["store"] = TraceStore(store_dir)
    _WORKER_LAB = Lab(**lab_config)


def _experiment_task(
    exp_id: str, retries: int, inject_fault: Optional[str], policy=None
) -> dict:
    """Run one experiment in the worker; return a picklable payload."""
    from ..experiments.runner import attempt_experiment

    lab = _WORKER_LAB
    assert lab is not None, "worker pool used without initializer"
    # A worker lab lives across tasks; ship per-task *deltas* so the
    # parent can sum payloads without double counting.
    counters_before = dict(lab.counters)
    memo_before = lab.memo.counters() if lab.memo is not None else None
    store_before = lab.store.counters() if lab.store is not None else None
    outcome, notes = attempt_experiment(
        lab, exp_id, retries=retries, inject_fault=inject_fault, policy=policy
    )
    error = outcome.error
    memo_delta = None
    if lab.memo is not None:
        after = lab.memo.counters()
        memo_delta = {
            k: after[k] - (memo_before or {}).get(k, 0)
            for k in after
            if k != "hit_rate"
        }
    store_delta = None
    if lab.store is not None:
        after = lab.store.counters()
        store_delta = {
            k: after[k] - (store_before or {}).get(k, 0) for k in after
        }
    return {
        "exp_id": outcome.exp_id,
        "status": outcome.status,
        "elapsed_s": outcome.elapsed_s,
        "attempts": outcome.attempts,
        "result": outcome.result,
        "error": None
        if error is None
        else {
            "type": type(error).__name__,
            "dict": error.to_dict(),
            "rendered": str(error),
        },
        "notes": notes,
        "timings": outcome.timings,
        "counters": {
            k: lab.counters[k] - counters_before.get(k, 0) for k in lab.counters
        },
        "memo": memo_delta,
        "store": store_delta,
    }


_ERROR_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        ReproError,
        ProfileError,
        SimulationError,
        ArtifactError,
        WorkerCrashError,
        WorkerHangError,
    )
}


def rebuild_error(payload: dict) -> ReproError:
    """Reconstruct a worker's typed error in the parent process.

    The subclass and machine-readable context survive; the original
    ``cause`` exception does not cross the process boundary, so its
    rendered form is preserved verbatim via the exception message.
    """
    cls = _ERROR_TYPES.get(payload.get("type", ""), SimulationError)
    raw = dict(payload.get("dict") or {})
    raw.pop("type", None)
    message = raw.pop("message", "experiment failed")
    cause_repr = raw.pop("cause", None)
    err = cls(message, **raw)
    if cause_repr is not None:
        err.context.setdefault("cause", cause_repr)
    # Preserve the worker-side rendering exactly (parity with serial output).
    err.args = (payload.get("rendered", str(err)),)
    return err


# -- cell-level fan-out -------------------------------------------------------

def _init_cell_worker(
    store_dir: Optional[str], backend_name: Optional[str] = None
) -> None:
    """Cell-worker initializer: attach to the trace store and resolve
    this process's kernel backend from the requested tier name."""
    from .backends import resolve_backend

    global _CELL_STORE, _CELL_BACKEND
    _CELL_STORE = TraceStore(store_dir) if store_dir is not None else None
    _CELL_BACKEND = resolve_backend(backend_name, strict=False)


def _resolve_stream(trace) -> np.ndarray:
    """A cell's stream argument: a pickled array, or a StoreRef resolved
    against the attached store with a zero-copy memmap read."""
    if isinstance(trace, StoreRef):
        store = _CELL_STORE
        if store is None:
            raise SimulationError(
                f"cell carries store ref {trace.key[:12]}… but this process "
                "has no trace store attached",
                stage="simulate",
                defect="no trace store",
            )
        try:
            return store.resolve(trace)
        except KeyError:
            raise SimulationError(
                f"trace store entry {trace.key[:12]}… is missing or corrupt",
                stage="simulate",
                defect="store entry lost",
            ) from None
    return np.asarray(trace)


def _run_batch(fn: Callable[[Any], Any], cells: list) -> list:
    """Worker body of one batched dispatch (amortizes per-task IPC)."""
    return [fn(c) for c in cells]


class CellPool:
    """A persistent pool of cell-kernel workers, reused across fan-outs.

    The throwaway-pool model paid process startup (and, via ``fork``,
    page-table duplication) on *every* fan-out.  A ``CellPool`` is
    owned by its Lab/Driver, spawns workers on first use, keeps them
    alive across calls (``reuses`` counts the amortized fan-outs), and
    submits cells in batches of roughly ``2 * jobs`` per map so the IPC
    cost scales with worker count, not cell count.

    Fault model: a pool broken mid-map (a worker OOM-killed or
    segfaulted) loses only the batches that had not completed — finished
    futures keep their results, and only the lost cells are recomputed
    serially in the parent (``recomputed`` counts them).  The dead
    executor is discarded and the next map spawns a fresh one.  Cell
    kernels are pure, so none of this can change a result.
    """

    def __init__(
        self,
        jobs: int,
        *,
        store: Optional[TraceStore] = None,
        kernel_backend: Optional[str] = None,
    ):
        from .backends import resolve_backend

        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self._store = store
        #: requested tier name (ships to worker initializers verbatim).
        self._backend_name = kernel_backend
        #: parent-side resolution, for the serial/recompute paths.
        self._backend = resolve_backend(kernel_backend, strict=False)
        self._executor: Optional[ProcessPoolExecutor] = None
        self.maps = 0
        self.reuses = 0
        self.batches = 0
        self.broken_pools = 0
        self.recomputed = 0

    @property
    def store(self) -> Optional[TraceStore]:
        return self._store

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            store_dir = str(self._store.root) if self._store is not None else None
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=_mp_context(),
                initializer=_init_cell_worker,
                initargs=(store_dir, self._backend_name),
            )
        else:
            self.reuses += 1
        return self._executor

    def map(self, fn: Callable[[Any], Any], cells: list) -> list:
        """Map ``fn`` over ``cells``; results positionally aligned and
        bit-identical to ``[fn(c) for c in cells]``."""
        # Point the parent-side resolver at our store and backend so the
        # serial paths below handle cells exactly like workers do.
        global _CELL_STORE, _CELL_BACKEND
        if self._store is not None:
            _CELL_STORE = self._store
        _CELL_BACKEND = self._backend
        self.maps += 1
        n = len(cells)
        if n == 0:
            return []
        if self.jobs <= 1 or n == 1:
            return [fn(c) for c in cells]
        executor = self._ensure_executor()
        per_batch = max(1, -(-n // (self.jobs * 2)))
        results: list = [None] * n
        done = [False] * n
        broken = False
        futures: list[tuple[int, Future]] = []
        try:
            for start in range(0, n, per_batch):
                futures.append(
                    (
                        start,
                        executor.submit(_run_batch, fn, cells[start:start + per_batch]),
                    )
                )
                self.batches += 1
        except BrokenProcessPool:
            broken = True
        for start, fut in futures:
            try:
                batch_out = fut.result()
            except BrokenProcessPool:
                broken = True
                continue
            for j, value in enumerate(batch_out):
                results[start + j] = value
                done[start + j] = True
        if broken:
            self.broken_pools += 1
            self.shutdown()
        for i, cell in enumerate(cells):
            if not done[i]:
                results[i] = fn(cell)
                self.recomputed += 1
        return results

    def shutdown(self) -> None:
        """Release the workers (the pool respawns them on next use)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def counters(self) -> dict[str, int]:
        return {
            "maps": self.maps,
            "reuses": self.reuses,
            "batches": self.batches,
            "broken_pools": self.broken_pools,
            "recomputed": self.recomputed,
        }

    def __enter__(self) -> "CellPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _store_ref(store: Optional[TraceStore], stream, digest: Optional[str]):
    """``stream`` as its zero-copy ref when there is a store, else as is."""
    return stream if store is None else store.ref(stream, key=digest)


def _compute_cell(cell: tuple):
    """One ``(kind, stream, *params)`` cell computed on this process's
    kernel backend — the cell function every fan-out ships."""
    from .memo import artifact_kind

    name, lines, *params = cell
    return artifact_kind(name).compute(
        _cell_backend(), _resolve_stream(lines), *params
    )


def compute_cells(cells: list[tuple], *, pool: CellPool) -> list:
    """Compute independent ``(kind, stream, *params)`` cells on ``pool``.

    ``kind`` names an :class:`~repro.perf.memo.ArtifactKind` and
    ``stream`` may be an array or a :class:`~repro.perf.store.StoreRef`.
    Artifacts cross the process boundary pickled (exact, floats
    included) and come back positionally aligned with ``cells`` and
    identical to serial computations — the cells share no state and the
    kernels are deterministic, so execution order cannot matter.
    """
    return pool.map(_compute_cell, cells)


def memoized_cells(
    cells: list[tuple],
    *,
    pool: CellPool,
    memo=None,
    ship: Optional[Callable[[Any, Optional[str]], Any]] = None,
    fn: Callable[[tuple], Any] = _compute_cell,
) -> tuple[list, list[bool]]:
    """Answer ``(kind, stream, *params)`` cells from ``memo``, computing
    only its misses on ``pool``.

    Each distinct key is looked up once, counted as a hit or a miss;
    cells repeating a key get the same artifact object.  Misses ship
    through ``ship(stream, digest)`` — by default the pool store's
    :class:`~repro.perf.store.StoreRef` when it has one, else the array
    — run ``fn`` (default :func:`_compute_cell`) and are stored back.
    Streams are hashed only when there is a memo or a store to key.

    Returns the artifacts, aligned with ``cells``, and for each cell
    whether this call computed its artifact.
    """
    from .memo import artifact_kind

    store = pool.store
    if ship is None:
        ship = functools.partial(_store_ref, store)
    out: list = [None] * len(cells)
    computed = [False] * len(cells)
    first: dict[str, int] = {}  # memo key -> the cell that looked it up
    repeats: list[tuple[int, int]] = []  # (cell, earlier cell of its key)
    misses: list[tuple[int, Optional[str]]] = []  # (cell, memo key)
    tasks = []
    for i, (name, stream, *params) in enumerate(cells):
        kind = artifact_kind(name)
        digest = trace_digest(stream) if store is not None else None
        key = None
        if memo is not None:
            key = kind.key(stream if digest is None else digest, *params)
            if key in first:
                repeats.append((i, first[key]))
                continue
            first[key] = i
            out[i] = memo.get(kind, key, *params)
            if out[i] is not None:
                continue
        misses.append((i, key))
        tasks.append((name, ship(stream, digest), *params))
    results = pool.map(fn, tasks) if tasks else []
    for (i, key), artifact in zip(misses, results):
        if memo is not None:
            name, _, *params = cells[i]
            memo.put(artifact_kind(name), key, artifact, *params)
        out[i] = artifact
        computed[i] = True
    for i, j in repeats:
        out[i] = out[j]
    return out, computed
