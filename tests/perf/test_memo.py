"""The content-addressed memo cache (repro.perf.memo).

The contract under test: a memo hit returns an artifact identical to a
fresh computation; keys are sensitive to every input and pinned to the
digests existing caches were written under; disk entries survive
process turnover, tolerate corruption, and can be invalidated — for
every artifact kind through the one tier.
"""

import dataclasses
import json
import threading
import time

import numpy as np
import pytest

from repro.cache import CacheConfig, PAPER_L1I, simulate, warm_cache
from repro.perf import SimMemo, memo_key, resolve_backend, state_fingerprint
from repro.perf.memo import (
    AFFINITY_KIND,
    CURVE_KIND,
    HISTOGRAM_KIND,
    KINDS,
    STATS_KIND,
    TRG_KIND,
    affinity_key,
    curve_key,
    histogram_key,
    trg_key,
)


@pytest.fixture
def lines():
    rng = np.random.default_rng(42)
    return rng.integers(0, 700, 5000).astype(np.int32)


class TestMemoKey:
    def test_deterministic(self, lines):
        assert memo_key(lines, PAPER_L1I) == memo_key(lines.copy(), PAPER_L1I)

    def test_dtype_canonicalized(self, lines):
        """The same logical stream keys identically regardless of dtype."""
        assert memo_key(lines, PAPER_L1I) == memo_key(
            lines.astype(np.int64), PAPER_L1I
        )

    def test_sensitive_to_stream(self, lines):
        other = lines.copy()
        other[17] += 1
        assert memo_key(lines, PAPER_L1I) != memo_key(other, PAPER_L1I)

    def test_sensitive_to_geometry_and_prefetch(self, lines):
        small = CacheConfig(size_bytes=16 * 1024, assoc=4, line_bytes=64)
        keys = {
            memo_key(lines, PAPER_L1I),
            memo_key(lines, small),
            memo_key(lines, PAPER_L1I, prefetch=True),
        }
        assert len(keys) == 3

    def test_sensitive_to_warm_state(self, lines):
        warm = warm_cache(np.arange(64), PAPER_L1I)
        assert memo_key(lines, PAPER_L1I) != memo_key(lines, PAPER_L1I, state=warm)
        assert state_fingerprint(None) == "cold"
        assert state_fingerprint(warm) != state_fingerprint(None)


class TestSimMemo:
    def test_hit_returns_identical_stats(self, lines):
        memo = SimMemo()
        fresh = simulate(lines, PAPER_L1I, prefetch=True)
        first = memo.simulate(lines, PAPER_L1I, prefetch=True)
        hit = memo.simulate(lines, PAPER_L1I, prefetch=True)
        assert first == fresh
        assert hit == fresh
        assert (memo.hits, memo.misses) == (1, 1)
        assert memo.hit_rate == 0.5

    def test_hit_result_is_not_aliased(self, lines):
        memo = SimMemo()
        a = memo.simulate(lines, PAPER_L1I)
        a.misses = -1  # caller mutates its copy
        assert memo.simulate(lines, PAPER_L1I).misses != -1

    def test_warm_state_calls_bypass_and_still_mutate(self, lines):
        """A replay cannot reproduce the in-place mutation, so warm-state
        calls must reach the real simulator every time."""
        memo = SimMemo()
        ref = warm_cache(lines, PAPER_L1I)
        state = warm_cache(np.array([], dtype=np.int64), PAPER_L1I)
        stats = memo.simulate(lines, PAPER_L1I, state=state)
        assert memo.bypasses == 1
        assert (memo.hits, memo.misses) == (0, 0)
        assert state.resident_lines() == ref.resident_lines()
        assert stats == simulate(lines, PAPER_L1I)

    def test_disk_persistence_across_instances(self, tmp_path, lines):
        fresh = simulate(lines, PAPER_L1I)
        SimMemo(tmp_path).simulate(lines, PAPER_L1I)
        reread = SimMemo(tmp_path)
        assert reread.simulate(lines, PAPER_L1I) == fresh
        assert (reread.hits, reread.misses) == (1, 0)

    def test_invalidate_key(self, tmp_path, lines):
        memo = SimMemo(tmp_path)
        key = memo_key(lines, PAPER_L1I)
        memo.simulate(lines, PAPER_L1I)
        assert memo.invalidate(key)
        assert not memo.invalidate(key)  # already gone
        assert not list(tmp_path.glob(f"{key}*"))
        memo.simulate(lines, PAPER_L1I)
        assert memo.misses == 2  # recomputed after invalidation

    def test_corrupt_entry_degrades_to_recomputation(self, tmp_path, lines):
        memo = SimMemo(tmp_path)
        key = memo_key(lines, PAPER_L1I)
        fresh = memo.simulate(lines, PAPER_L1I)
        (tmp_path / f"{key}.json").write_text("{ truncated")
        reread = SimMemo(tmp_path)
        assert reread.simulate(lines, PAPER_L1I) == fresh
        assert reread.misses == 1  # corrupt file never served

    def test_stale_schema_entry_dropped(self, tmp_path, lines):
        memo = SimMemo(tmp_path)
        key = memo_key(lines, PAPER_L1I)
        memo.simulate(lines, PAPER_L1I)
        path = tmp_path / f"{key}.json"
        raw = json.loads(path.read_text())
        raw["schema"] = "repro.perf.memo.v0"
        path.write_text(json.dumps(raw))
        reread = SimMemo(tmp_path)
        reread.simulate(lines, PAPER_L1I)
        assert reread.misses == 1
        # the stale file was replaced with a current-schema entry.
        assert json.loads(path.read_text())["schema"] != "repro.perf.memo.v0"

    def test_concurrent_writers_dedup_via_key_lock(self, tmp_path, lines, monkeypatch):
        """Two writers racing on the same key must run ONE simulation:
        the loser blocks on the per-key flock, then replays the winner's
        published entry instead of recomputing (the concurrent-put fix)."""
        import threading

        import repro.perf.memo as memo_mod

        real_simulate = memo_mod.simulate
        calls = []
        started = threading.Barrier(2)

        def slow_simulate(*args, **kwargs):
            calls.append(1)
            import time

            time.sleep(0.3)  # hold the lock long enough to force contention
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr(memo_mod, "simulate", slow_simulate)
        memos = [SimMemo(tmp_path), SimMemo(tmp_path)]
        results = [None, None]

        def worker(i):
            started.wait()
            results[i] = memos[i].simulate(lines, PAPER_L1I)

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert results[0] == results[1] == real_simulate(lines, PAPER_L1I)
        assert len(calls) == 1  # the whole point: one compute, not two
        assert sum(m.lock_waits for m in memos) == 1
        assert sum(m.hits for m in memos) == 1  # the loser replayed
        assert sum(m.misses for m in memos) == 1  # ...and is not also a miss

    def test_in_memory_only_mode(self, lines):
        memo = SimMemo()
        memo.simulate(lines, PAPER_L1I)
        memo.simulate(lines, PAPER_L1I)
        assert memo.counters() == {
            "hits": 1,
            "misses": 1,
            "bypasses": 0,
            "disk_failures": 0,
            "degraded": 0,
            "lock_waits": 0,
            "breaker_trips": 0,
            "breaker_recoveries": 0,
            "hit_rate": 0.5,
        }


class TestHistogramMemo:
    """Kernel histograms: coarser keys (stream + n_sets only), same
    degrade-to-recompute storage discipline."""

    def test_key_ignores_assoc_and_line_bytes(self, lines):
        from repro.perf import histogram_key

        key = histogram_key(lines, PAPER_L1I.n_sets)
        assert key == histogram_key(lines.astype(np.int64), PAPER_L1I.n_sets)
        assert key != histogram_key(lines, 64)
        other = lines.copy()
        other[3] += 1
        assert key != histogram_key(other, PAPER_L1I.n_sets)
        # Distinct from the CacheStats key space for the same stream.
        assert key != memo_key(lines, PAPER_L1I)

    def test_histogram_hit_answers_every_assoc(self, lines):
        from repro.cache import stack_distance_histogram

        memo = SimMemo()
        fresh = stack_distance_histogram(lines, PAPER_L1I.n_sets)
        assert memo.histogram(lines, PAPER_L1I.n_sets) == fresh
        assert memo.histogram(lines, PAPER_L1I.n_sets) == fresh
        assert (memo.hits, memo.misses) == (1, 1)
        # One histogram entry answers every associativity of the family.
        for assoc in (1, 2, 4, 8):
            cfg = CacheConfig(
                size_bytes=PAPER_L1I.n_sets * assoc * 64,
                assoc=assoc,
                line_bytes=64,
            )
            hist = memo.histogram(lines, cfg.n_sets)
            assert hist.stats(assoc) == simulate(lines, cfg)
        assert memo.misses == 1  # no further kernel passes were needed

    def test_histogram_disk_persistence(self, tmp_path, lines):
        from repro.cache import stack_distance_histogram

        fresh = stack_distance_histogram(lines, 128)
        SimMemo(tmp_path).histogram(lines, 128)
        reread = SimMemo(tmp_path)
        assert reread.histogram(lines, 128) == fresh
        assert (reread.hits, reread.misses) == (1, 0)

    def test_corrupt_histogram_entry_recomputed(self, tmp_path, lines):
        from repro.perf import histogram_key

        memo = SimMemo(tmp_path)
        key = histogram_key(lines, 128)
        fresh = memo.histogram(lines, 128)
        (tmp_path / f"{key}.json").write_text("{ nope")
        reread = SimMemo(tmp_path)
        assert reread.histogram(lines, 128) == fresh
        assert reread.misses == 1

    def test_stale_kernel_schema_dropped(self, tmp_path, lines):
        from repro.perf import histogram_key

        memo = SimMemo(tmp_path)
        key = histogram_key(lines, 128)
        memo.histogram(lines, 128)
        path = tmp_path / f"{key}.json"
        raw = json.loads(path.read_text())
        raw["schema"] = "repro.perf.memo.kernel.v0"
        path.write_text(json.dumps(raw))
        reread = SimMemo(tmp_path)
        reread.histogram(lines, 128)
        assert reread.misses == 1
        assert json.loads(path.read_text())["schema"] != "repro.perf.memo.kernel.v0"


class TestCurveMemo:
    """Footprint-curve tier: coarsest keys (stream only), bit-identical
    replay through the JSON wire format."""

    def test_key_depends_on_stream_only(self, lines):
        from repro.perf.memo import curve_key, trace_digest

        key = curve_key(lines)
        assert key == curve_key(lines.astype(np.int64))
        # A digest string keys identically to the stream it digests.
        assert key == curve_key(trace_digest(lines))
        other = lines.copy()
        other[5] += 1
        assert key != curve_key(other)
        assert key != memo_key(lines, PAPER_L1I)

    def test_memoized_curve_is_bit_identical(self, lines):
        from repro.locality.footprint import footprint_curve

        memo = SimMemo()
        fresh = footprint_curve(lines)
        first = memo.footprint_curve(lines)
        hit = memo.footprint_curve(lines)
        assert (memo.hits, memo.misses) == (1, 1)
        for got in (first, hit):
            assert got.n == fresh.n and got.m == fresh.m
            assert (got.fp == fresh.fp).all()

    def test_curve_disk_persistence(self, tmp_path, lines):
        from repro.locality.footprint import footprint_curve

        fresh = footprint_curve(lines)
        SimMemo(tmp_path).footprint_curve(lines)
        reread = SimMemo(tmp_path)
        got = reread.footprint_curve(lines)
        assert (reread.hits, reread.misses) == (1, 0)
        assert (got.fp == fresh.fp).all()  # JSON round trip is exact

    def test_corrupt_curve_entry_recomputed(self, tmp_path, lines):
        from repro.perf.memo import curve_key

        memo = SimMemo(tmp_path)
        memo.footprint_curve(lines)
        (tmp_path / f"{curve_key(lines)}.json").write_text("{ bad")
        reread = SimMemo(tmp_path)
        reread.footprint_curve(lines)
        assert reread.misses == 1

    def test_curve_invalidate(self, tmp_path, lines):
        from repro.perf.memo import curve_key

        memo = SimMemo(tmp_path)
        key = curve_key(lines)
        memo.footprint_curve(lines)
        assert memo.invalidate(key)
        memo.footprint_curve(lines)
        assert memo.misses == 2

    def test_scrub_keeps_current_curve_schema(self, tmp_path, lines):
        import json as _json

        from repro.perf.memo import CURVE_SCHEMA, curve_key

        memo = SimMemo(tmp_path)
        key = curve_key(lines)
        memo.footprint_curve(lines)
        # Plant a stale-schema sibling; scrub must drop it, keep ours.
        stale = tmp_path / ("0" * 64 + ".json")
        stale.write_text(_json.dumps({"schema": "repro.perf.memo.curve.v0"}))
        kept_n, dropped = memo.scrub()
        assert kept_n >= 1 and dropped >= 1
        assert not stale.exists()
        kept = _json.loads((tmp_path / f"{key}.json").read_text())
        assert kept["schema"] == CURVE_SCHEMA


# -- the tier contract, over every artifact kind ----------------------------

#: the fixed input the key pins below were recorded on.
_PIN = np.arange(1000, dtype=np.int64) % 97

#: key digests of ``_PIN``, recorded before the tiers were unified;
#: a change here orphans every existing ``--memo-dir`` cache.
_KEY_PINS = {
    "memo_key": (
        lambda: memo_key(_PIN, PAPER_L1I, prefetch=True),
        "143cab2fe990e12deceef1d25dc95dce69960eb718110a7a9fb8cf520be6fdaf",
    ),
    "memo_key-cold": (
        lambda: memo_key(_PIN, PAPER_L1I),
        "280b7540169b76a34053e405a008a38132b5eb65bbd972a863e6a3ae25547af9",
    ),
    "histogram_key": (
        lambda: histogram_key(_PIN, 64),
        "bbedc999d7fb0d28f779df14bb85b31062387da8039e3e446d7a05c0c33146e1",
    ),
    "curve_key": (
        lambda: curve_key(_PIN),
        "2b23ee01b5bb89ea2d614f4a2d475f0d6b20232743694686f349a93dbf31b56a",
    ),
    "affinity_key": (
        lambda: affinity_key(_PIN, w_max=12, time_horizon=40),
        "040933682ef36bf48f1d16637c14f22b91203a83ed8097ca3cb5b66bf3cfe8b5",
    ),
    "affinity_key-default": (
        lambda: affinity_key(_PIN, w_max=20),
        "089ec28624f6ab00b8852582ef3f34333df70dfd2dbfe68aabb9b982ab4a1ad4",
    ),
    "trg_key": (
        lambda: trg_key(_PIN, window_blocks=64),
        "5fc55e0ea775b722c291854e7559b633125111f86a2c5480eac465f6268530a4",
    ),
    "trg_key-unwindowed": (
        lambda: trg_key(_PIN),
        "db8045494fc6548210ac277fae99700da030e41bad96ea62279d663ca191414d",
    ),
}


@pytest.mark.parametrize("name", sorted(_KEY_PINS))
def test_key_functions_pinned(name):
    key_fn, digest = _KEY_PINS[name]
    assert key_fn() == digest


def _cell(name):
    """(kind, stream, params) of one small cell of each kind."""
    lines = np.random.default_rng(42).integers(0, 700, 5000).astype(np.int32)
    trace = np.random.default_rng(7).integers(0, 40, 3000).astype(np.int64)
    return {
        "stats": (STATS_KIND, lines, (PAPER_L1I, True)),
        "histogram": (HISTOGRAM_KIND, lines, (128,)),
        "curve": (CURVE_KIND, lines, ()),
        "affinity": (AFFINITY_KIND, trace, (12, None)),
        "trg": (TRG_KIND, trace, (64,)),
    }[name]


def _entry(kind, artifact, params):
    """The JSON entry an artifact persists as: one equality for every kind."""
    return json.dumps(kind.encode(artifact, *params), sort_keys=True)


@pytest.mark.parametrize("name", sorted(KINDS))
class TestTierContract:
    """Round trip, corruption, stale schema, lock dedup and aliasing hold
    for every kind through the one tier."""

    def test_round_trip_and_disk_persistence(self, name, tmp_path):
        kind, stream, params = _cell(name)
        scalar = resolve_backend("scalar")  # the oracle tier
        oracle = _entry(kind, kind.compute(scalar, stream, *params), params)
        memo = SimMemo(tmp_path)
        first, computed = memo.get_or_compute(kind, stream, *params)
        hit, recomputed = memo.get_or_compute(kind, stream, *params)
        assert (computed, recomputed) == (True, False)
        assert (memo.hits, memo.misses) == (1, 1)
        assert _entry(kind, first, params) == _entry(kind, hit, params) == oracle
        reread = SimMemo(tmp_path)
        replay, computed = reread.get_or_compute(kind, stream, *params)
        assert not computed and (reread.hits, reread.misses) == (1, 0)
        assert _entry(kind, replay, params) == oracle
        raw = json.loads((tmp_path / f"{kind.key(stream, *params)}.json").read_text())
        assert raw["schema"] == kind.schema

    def test_corrupt_entry_dropped_and_recomputed(self, name, tmp_path):
        kind, stream, params = _cell(name)
        fresh, _ = SimMemo(tmp_path).get_or_compute(kind, stream, *params)
        path = tmp_path / f"{kind.key(stream, *params)}.json"
        path.write_text("{ truncated")
        reread = SimMemo(tmp_path)
        again, computed = reread.get_or_compute(kind, stream, *params)
        assert computed and (reread.hits, reread.misses) == (0, 1)
        assert _entry(kind, again, params) == _entry(kind, fresh, params)
        # the corrupt file was replaced by a valid recomputed entry.
        assert json.loads(path.read_text())["schema"] == kind.schema

    def test_non_object_entry_dropped_and_scrubbed(self, name, tmp_path):
        """Valid JSON that is not an entry object degrades like any other
        corruption — neither the lookup nor scrub() may raise."""
        kind, stream, params = _cell(name)
        SimMemo(tmp_path).get_or_compute(kind, stream, *params)
        path = tmp_path / f"{kind.key(stream, *params)}.json"
        path.write_text("[1, 2]")
        reread = SimMemo(tmp_path)
        _, computed = reread.get_or_compute(kind, stream, *params)
        assert computed and reread.misses == 1
        path.write_text("[1, 2]")
        assert reread.scrub() == (0, 1)
        assert not path.exists()

    def test_stale_schema_entry_dropped(self, name, tmp_path):
        kind, stream, params = _cell(name)
        SimMemo(tmp_path).get_or_compute(kind, stream, *params)
        path = tmp_path / f"{kind.key(stream, *params)}.json"
        raw = json.loads(path.read_text())
        raw["schema"] = kind.schema + ".stale"
        path.write_text(json.dumps(raw))
        reread = SimMemo(tmp_path)
        _, computed = reread.get_or_compute(kind, stream, *params)
        assert computed and reread.misses == 1
        assert json.loads(path.read_text())["schema"] == kind.schema

    def test_concurrent_writers_compute_once(self, name, tmp_path):
        kind, stream, params = _cell(name)
        calls = []
        started = threading.Barrier(2)

        def slow_compute(*args):
            calls.append(1)
            time.sleep(0.3)  # hold the key lock long enough to force contention
            return kind.compute(*args)

        slow = dataclasses.replace(kind, compute=slow_compute)
        memos = [SimMemo(tmp_path), SimMemo(tmp_path)]
        results: list = [None, None]

        def worker(i):
            started.wait()
            results[i] = memos[i].get_or_compute(slow, stream, *params)

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(calls) == 1
        assert sorted(computed for _, computed in results) == [False, True]
        assert _entry(kind, results[0][0], params) == _entry(kind, results[1][0], params)
        assert sum(m.lock_waits for m in memos) == 1
        assert sum(m.hits for m in memos) == 1
        assert sum(m.misses for m in memos) == 1
        assert not list(tmp_path.glob("*.lock"))

    def test_cold_compute_leaves_no_lock_file(self, name, tmp_path):
        """The key lock's sidecar goes with the computation that took
        it: a populated cache directory holds entries only."""
        kind, stream, params = _cell(name)
        memo = SimMemo(tmp_path)
        memo.get_or_compute(kind, stream, *params)
        memo.get_or_compute(kind, stream, *params)
        assert not list(tmp_path.glob("*.lock"))
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]
        assert (memo.hits, memo.misses) == (1, 1)

    def test_aliasing_policy(self, name):
        """Stats, affinity coverage and TRGs come back as copies;
        histograms and curves are shared (immutable in practice)."""
        kind, stream, params = _cell(name)
        memo = SimMemo()
        first, _ = memo.get_or_compute(kind, stream, *params)
        hit, _ = memo.get_or_compute(kind, stream, *params)
        again, _ = memo.get_or_compute(kind, stream, *params)
        if name in ("histogram", "curve"):
            assert first is hit is again
        else:
            assert first is not hit and hit is not again
