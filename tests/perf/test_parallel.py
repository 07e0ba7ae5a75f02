"""Parallel execution parity (repro.perf.parallel + runner --jobs).

The acceptance contract: a ``--jobs N`` suite run produces byte-identical
outcomes, journal entries, and report text to the serial run, modulo
timing fields — including under injected failures, retries, and resume.
"""

import io
import multiprocessing
import os
import re
import signal

import numpy as np
import pytest

from repro.cache import PAPER_L1I, simulate
from repro.experiments import Lab
from repro.experiments.runner import run_suite
from repro.perf import (
    CellPool,
    compare_journal_outcomes,
    compute_cells,
    memoized_cells,
    rebuild_error,
)
from repro.robust import ProfileError, RunJournal, SimulationError

FAST = "ablation-optimal-gap"
FAST2 = "ablation-pruning"
IDS = [FAST, FAST2]


def _strip_timings(text: str) -> str:
    return re.sub(r"\[\d+\.\d+s(, \d+ attempt\(s\))?\]", "[T]", text)


def _run(tmp_path, tag, *, jobs, **kwargs):
    lab = Lab(scale=0.05, noise_sigma=0.0)
    journal = RunJournal(tmp_path / f"{tag}.jsonl")
    out = io.StringIO()
    outcomes = run_suite(
        lab, IDS, journal=journal, out=out, jobs=jobs, keep_going=True, **kwargs
    )
    return outcomes, journal, out.getvalue()


class TestSuiteParity:
    def test_parallel_matches_serial(self, tmp_path):
        serial, js, text_s = _run(tmp_path, "serial", jobs=1)
        parallel, jp, text_p = _run(tmp_path, "parallel", jobs=2)
        assert _strip_timings(text_s) == _strip_timings(text_p)
        assert [o.status for o in serial] == [o.status for o in parallel]
        assert [o.result.to_text() for o in serial] == [
            o.result.to_text() for o in parallel
        ]
        assert compare_journal_outcomes(
            [vars(e) for e in js.entries()], [vars(e) for e in jp.entries()]
        ) == []

    def test_parallel_failure_parity(self, tmp_path):
        serial, js, text_s = _run(tmp_path, "serial", jobs=1, inject_fault=FAST)
        parallel, jp, text_p = _run(tmp_path, "par", jobs=2, inject_fault=FAST)
        assert _strip_timings(text_s) == _strip_timings(text_p)
        assert isinstance(parallel[0].error, SimulationError)
        assert str(parallel[0].error) == str(serial[0].error)
        assert js.entries()[0].error == jp.entries()[0].error

    def test_parallel_stops_at_first_failure_without_keep_going(self, tmp_path):
        lab = Lab(scale=0.05, noise_sigma=0.0)
        outcomes = run_suite(
            lab, IDS, inject_fault=FAST, out=io.StringIO(), jobs=2
        )
        assert [o.exp_id for o in outcomes] == [FAST]
        assert outcomes[0].status == "failed"

    def test_parallel_resume_skips_completed(self, tmp_path):
        lab = Lab(scale=0.05, noise_sigma=0.0)
        journal = RunJournal(tmp_path / "resume.jsonl")
        run_suite(
            lab, IDS, journal=journal, keep_going=True,
            inject_fault=FAST2, out=io.StringIO(), jobs=2,
        )
        second = run_suite(
            lab, IDS, journal=journal, keep_going=True, resume=True,
            out=io.StringIO(), jobs=2,
        )
        by_id = {o.exp_id: o for o in second}
        assert by_id[FAST].status == "skipped"
        assert by_id[FAST2].status == "ok"
        assert journal.completed() == {FAST, FAST2}

    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            run_suite(Lab(scale=0.05), [FAST], jobs=0, out=io.StringIO())


class TestPrecomputeSolo:
    """Cell-level fan-out inside the Lab (satellite cross-check)."""

    CELLS = [
        ("syn-gcc", "baseline", "hw"),
        ("syn-gcc", "baseline", "sim"),
        ("syn-mcf", "baseline", "hw"),
        ("syn-mcf", "baseline", "sim"),
    ]

    def test_parallel_cells_match_serial_solo_miss(self):
        fanned = Lab(scale=0.05, jobs=2)
        fanned.precompute_solo(self.CELLS)
        serial = Lab(scale=0.05)
        for name, layout, channel in self.CELLS:
            assert fanned.solo_miss(name, layout, channel) == serial.solo_miss(
                name, layout, channel
            ), (name, layout, channel)

    def test_serial_precompute_equals_lazy(self):
        eager = Lab(scale=0.05)
        eager.precompute_solo(self.CELLS, jobs=1)
        lazy = Lab(scale=0.05)
        for cell in self.CELLS:
            assert eager.solo_miss(*cell) == lazy.solo_miss(*cell)

    def test_rejects_unknown_channel(self):
        with pytest.raises(ValueError, match="unknown channel"):
            Lab(scale=0.05).precompute_solo([("syn-gcc", "baseline", "spectre")])


class TestSimulateCells:
    def test_results_identical_to_serial(self):
        rng = np.random.default_rng(3)
        cells = [
            ("stats", rng.integers(0, 600, 4000), PAPER_L1I, bool(i % 2))
            for i in range(5)
        ]
        with CellPool(2) as pool:
            parallel = compute_cells(cells, pool=pool)
        serial = [simulate(lines, cfg, prefetch=pf) for _, lines, cfg, pf in cells]
        assert parallel == serial

    def test_empty(self):
        with CellPool(2) as pool:
            assert compute_cells([], pool=pool) == []


class TestHistogramCells:
    def test_results_identical_to_serial(self):
        from repro.cache import stack_distance_histogram

        rng = np.random.default_rng(8)
        cells = [
            ("histogram", rng.integers(0, 600, 4000), 1 << (i % 3 + 5))
            for i in range(5)
        ]
        with CellPool(2) as pool:
            parallel = compute_cells(cells, pool=pool)
        serial = [stack_distance_histogram(lines, n_sets) for _, lines, n_sets in cells]
        assert parallel == serial
        # One histogram per cell answers every associativity.
        from repro.cache import CacheConfig

        _, lines, n_sets = cells[0]
        cfg = CacheConfig(size_bytes=n_sets * 4 * 64, assoc=4, line_bytes=64)
        assert parallel[0].stats(4) == simulate(lines, cfg)

    def test_empty(self):
        with CellPool(2) as pool:
            assert memoized_cells([], pool=pool) == ([], [])


class TestAnalysisCells:
    def test_results_identical_to_serial(self):
        from repro.core import affinity_coverage, build_trg_fast

        rng = np.random.default_rng(5)
        traces = [rng.integers(0, 30, 2000) for _ in range(3)]
        cells = [("affinity", t, 8, None) for t in traces] + [
            ("trg", t, 64) for t in traces
        ]
        with CellPool(2) as pool:
            parallel = compute_cells(cells, pool=pool)
        serial = compute_cells(cells, pool=CellPool(1))
        assert parallel == serial
        assert parallel[0] == affinity_coverage(traces[0], w_max=8)
        assert parallel[3] == build_trg_fast(traces[0], window_blocks=64)

    def test_payloads_feed_the_memo(self):
        """The precompute handshake: worker artifacts stored with
        ``put`` replay as artifacts identical to direct kernel runs."""
        from repro.core import affinity_coverage
        from repro.perf import SimMemo, affinity_key
        from repro.perf.memo import AFFINITY_KIND

        rng = np.random.default_rng(6)
        trace = rng.integers(0, 30, 2000)
        (covg,) = compute_cells([("affinity", trace, 8, None)], pool=CellPool(1))
        memo = SimMemo()
        memo.put(AFFINITY_KIND, affinity_key(trace, w_max=8), covg, 8, None)
        assert memo.affinity_coverage(trace, w_max=8) == affinity_coverage(
            trace, w_max=8
        )
        assert (memo.hits, memo.misses) == (1, 0)

    def test_empty_and_unknown_kind(self):
        with CellPool(2) as pool:
            assert compute_cells([], pool=pool) == []
        with pytest.raises(ValueError, match="unknown artifact kind"):
            compute_cells([("zipf", None)], pool=CellPool(1))


class TestMemoizedCells:
    """The one memo-aware fan-out behind Driver._evaluate and the three
    Lab.precompute_* methods."""

    @staticmethod
    def _cells():
        rng = np.random.default_rng(21)
        streams = [rng.integers(0, 600, 3000) for _ in range(3)]
        # The last cell repeats the first one's key.
        return [("stats", s, PAPER_L1I, False) for s in streams] + [
            ("stats", streams[0].copy(), PAPER_L1I, False)
        ]

    def test_misses_computed_stored_then_replayed(self, tmp_path):
        from repro.perf import SimMemo

        cells = self._cells()
        expected = [simulate(s, cfg, prefetch=pf) for _, s, cfg, pf in cells]
        memo = SimMemo(tmp_path)
        with CellPool(2) as pool:
            got, computed = memoized_cells(cells, pool=pool, memo=memo)
            assert got == expected
            assert computed == [True, True, True, False]
            # Three distinct keys, each looked up once.
            assert (memo.hits, memo.misses) == (0, 3)
            maps = pool.maps
            again, computed = memoized_cells(
                cells, pool=pool, memo=SimMemo(tmp_path)
            )
            assert pool.maps == maps  # all hits: nothing shipped
        assert again == expected and computed == [False] * 4
        assert got[3] is got[0]  # the repeated cell shares its twin's stats

    def test_no_hashing_without_memo_or_store(self, monkeypatch):
        import repro.perf.memo as memo_mod
        import repro.perf.parallel as parallel_mod

        def refuse(*_):
            raise AssertionError("stream hashed without memo or store")

        monkeypatch.setattr(memo_mod, "trace_digest", refuse)
        monkeypatch.setattr(parallel_mod, "trace_digest", refuse)
        cells = self._cells()
        got, computed = memoized_cells(cells, pool=CellPool(1))
        assert got == [simulate(s, cfg) for _, s, cfg, _ in cells]
        assert computed == [True] * 4

    def test_custom_cell_function_sees_every_miss(self):
        seen = []

        def spy(cell):
            seen.append(cell[0])
            return simulate(cell[1], cell[2], prefetch=cell[3])

        cells = self._cells()
        got, _ = memoized_cells(cells, pool=CellPool(1), fn=spy)
        assert seen == ["stats"] * 4
        assert got == [simulate(s, cfg) for _, s, cfg, _ in cells]


_PROBE = "probe-breaker"


def _probe_worker_breaker(lab):
    """An experiment that reports its worker lab's memo breaker config."""
    from repro.experiments.report import ExperimentResult

    breaker = lab.memo.breaker
    return ExperimentResult(
        exp_id=_PROBE,
        title="breaker probe",
        headers=[],
        rows=[],
        summary={
            "failure_threshold": float(breaker.failure_threshold),
            "reset_after_s": float(breaker.reset_after_s),
        },
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the probe experiment is registered in the parent and "
    "inherited by forked workers",
)
class TestSupervisedPoolBreaker:
    """Regression: the experiment pool must thread breaker_config to
    its workers' memo.

    :func:`repro.perf.parallel._init_experiment_worker` accepts
    ``breaker_config``; a pool that drops it from the worker setup runs
    the memo disk tier with a default breaker instead of the configured
    one.  The probe reads the breaker off the worker's own SimMemo.
    """

    def test_worker_memo_carries_configured_breaker(self, tmp_path, monkeypatch):
        from repro.experiments import runner
        from repro.robust.supervisor import SupervisedPool

        monkeypatch.setitem(runner.EXPERIMENTS, _PROBE, _probe_worker_breaker)
        lab = Lab(scale=0.05, noise_sigma=0.0)
        with SupervisedPool(
            1,
            lab.spawn_config(),
            memo_dir=str(tmp_path / "memo"),
            breaker_config={"failure_threshold": 7, "reset_after_s": 11.0},
        ) as pool:
            payload = pool.submit(_PROBE).result(timeout=60)
        assert payload["status"] == "ok", payload["error"]
        assert payload["result"].summary == {
            "failure_threshold": 7.0,
            "reset_after_s": 11.0,
        }


def _crashy_cell(cell):
    """Log one execution, then SIGKILL the worker on the marked cell.

    The parent-pid guard keeps the serial recompute path (which runs
    this same function in the parent) from killing the test process.
    """
    idx, log_path, kill_idx, parent_pid = cell
    with open(log_path, "a") as fh:  # O_APPEND: atomic small writes
        fh.write(f"{idx}\n")
        fh.flush()
        os.fsync(fh.fileno())
    if idx == kill_idx and os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return idx * 2


def _executions(log_path) -> list[int]:
    with open(log_path) as fh:
        return [int(line) for line in fh.read().split()]


class TestBrokenPoolRecomputesOnlyLostCells:
    """Regression: a pool broken mid-map must not discard completed work.

    The old fallback recomputed *every* cell serially; with individual
    futures, results finished before the crash are kept and only the
    lost tail is recomputed.
    """

    def test_cell_pool_recovers_and_respawns(self, tmp_path):
        log = tmp_path / "runs.log"
        log.touch()
        cells = [(i, str(log), 0, os.getpid()) for i in range(8)]
        with CellPool(2) as pool:
            results = pool.map(_crashy_cell, cells)
            assert results == [i * 2 for i in range(8)]
            assert pool.broken_pools == 1
            assert 1 <= pool.recomputed <= len(cells)
            # Every cell executed somewhere; none more than twice.
            runs = _executions(log)
            assert {i for i in runs} == set(range(8))
            assert all(runs.count(i) <= 2 for i in range(8))
            # The pool respawns workers and keeps serving maps.
            clean = [(i, str(log), -1, os.getpid()) for i in range(4)]
            assert pool.map(_crashy_cell, clean) == [i * 2 for i in range(4)]


class TestCellPoolReuse:
    def test_fanouts_share_one_executor(self):
        rng = np.random.default_rng(11)
        cells = [
            ("stats", rng.integers(0, 600, 2000), PAPER_L1I, False) for _ in range(4)
        ]
        with CellPool(2) as pool:
            first = compute_cells(cells, pool=pool)
            second = compute_cells(cells, pool=pool)
        assert first == second == compute_cells(cells, pool=CellPool(1))
        assert pool.maps == 2
        assert pool.reuses == 1  # second fan-out reused the warm workers

    def test_jobs_one_stays_serial(self):
        with CellPool(1) as pool:
            assert pool.map(len, [[1, 2], [3]]) == [2, 1]
            assert pool._executor is None  # never spawned workers


class TestRebuildError:
    def test_subclass_context_and_rendering_survive(self):
        original = ProfileError(
            "bad trace", stage="prepare", program="syn-gcc", defect="float dtype"
        )
        payload = {
            "type": "ProfileError",
            "dict": original.to_dict(),
            "rendered": str(original),
        }
        rebuilt = rebuild_error(payload)
        assert isinstance(rebuilt, ProfileError)
        assert str(rebuilt) == str(original)
        assert rebuilt.stage == "prepare"
        assert rebuilt.program == "syn-gcc"

    def test_unknown_type_falls_back_to_simulation_error(self):
        rebuilt = rebuild_error({"type": "Exotic", "dict": {"message": "x"}})
        assert isinstance(rebuilt, SimulationError)


class TestCurveCells:
    def test_results_identical_to_serial(self):
        from repro.locality.footprint import footprint_curve

        rng = np.random.default_rng(13)
        cells = [("curve", rng.integers(0, 500, 3000)) for _ in range(5)]
        with CellPool(2) as pool:
            parallel = compute_cells(cells, pool=pool)
        serial = [footprint_curve(lines) for _, lines in cells]
        assert len(parallel) == len(serial)
        for got, ref in zip(parallel, serial):
            assert got.n == ref.n and got.m == ref.m
            assert (got.fp == ref.fp).all()  # bit-identical across the pool

    def test_store_ref_cells_resolve(self, tmp_path):
        from repro.locality.footprint import footprint_curve
        from repro.perf import TraceStore

        rng = np.random.default_rng(14)
        store = TraceStore(tmp_path)
        traces = [rng.integers(0, 500, 3000) for _ in range(3)]
        cells = [("curve", store.ref(t)) for t in traces]
        with CellPool(2, store=store) as pool:
            got = compute_cells(cells, pool=pool)
        for curve, t in zip(got, traces):
            ref = footprint_curve(t)
            assert (curve.fp == ref.fp).all()

    def test_shared_pool_and_empty(self):
        assert compute_cells([], pool=CellPool(1)) == []
        rng = np.random.default_rng(15)
        cells = [("curve", rng.integers(0, 200, 1000)) for _ in range(3)]
        with CellPool(2) as pool:
            first = compute_cells(cells, pool=pool)
            second = compute_cells(cells, pool=pool)
        for a, b in zip(first, second):
            assert (a.fp == b.fp).all()
        assert pool.maps == 2
