"""Unit tests for the experiment Lab (repro.experiments.pipeline).

These run at a very small scale so the whole file stays in seconds.
"""

import numpy as np
import pytest

from repro.experiments import BASELINE, Lab

SCALE = 0.05


@pytest.fixture(scope="module")
def lab():
    return Lab(scale=SCALE, noise_sigma=0.0)


def test_scale_validation():
    with pytest.raises(ValueError):
        Lab(scale=0.0)
    with pytest.raises(ValueError):
        Lab(scale=1.5)


def test_program_memoized(lab):
    p1 = lab.program("syn-mcf")
    p2 = lab.program("syn-mcf")
    assert p1 is p2
    assert p1.prog.name == "syn-mcf"
    assert p1.instr_count > 0


def test_scale_shrinks_budgets(lab):
    p = lab.program("syn-mcf")
    from repro.workloads import SUITE

    assert p.ref_bundle.n_dynamic_blocks <= SUITE["syn-mcf"].spec.ref_blocks * SCALE + 1


def test_layout_memoized_and_kinds(lab):
    base = lab.layout("syn-mcf", BASELINE)
    assert base is lab.layout("syn-mcf", BASELINE)
    opt = lab.layout("syn-mcf", "function-affinity")
    assert opt.kind.value == "function-reorder"


def test_supports_reflects_suite_metadata(lab):
    assert not lab.supports("syn-perlbench", "bb-affinity")
    assert not lab.supports("syn-povray", "bb-trg")
    assert lab.supports("syn-perlbench", "function-affinity")
    assert lab.supports("syn-gcc", "bb-affinity")


def test_lines_cached_and_int32(lab):
    lines = lab.lines("syn-mcf", BASELINE)
    assert lines.dtype == np.int32
    assert lines is lab.lines("syn-mcf", BASELINE)


def test_solo_miss_channels(lab):
    sim = lab.solo_miss("syn-mcf", BASELINE, channel="sim")
    hw = lab.solo_miss("syn-mcf", BASELINE, channel="hw")
    assert sim.instructions == hw.instructions
    assert sim.ratio >= 0
    with pytest.raises(ValueError):
        lab.solo_miss("syn-mcf", BASELINE, channel="bogus")


def test_corun_symmetric_cache(lab):
    a = ("syn-mcf", BASELINE)
    b = ("syn-sjeng", BASELINE)
    r1 = lab.corun_miss(a, b)
    r2 = lab.corun_miss(b, a)
    assert r1[0] == r2[1]
    assert r1[1] == r2[0]


def test_corun_contention_visible(lab):
    solo = lab.solo_miss("syn-mcf", BASELINE, channel="sim").ratio
    corun = lab.corun_miss(
        ("syn-mcf", BASELINE), ("syn-gamess", BASELINE), channel="sim"
    )[0].ratio
    assert corun > solo


def test_corun_speedup_sane(lab):
    s = lab.corun_speedup("syn-mcf", "function-affinity", "syn-sjeng")
    assert 0.8 < s < 1.3


def test_timing_pieces(lab):
    cost = lab.solo_cost("syn-mcf", BASELINE)
    assert cost.total_cycles > cost.compute_cycles
    timing = lab.corun_timing(("syn-mcf", BASELINE), ("syn-sjeng", BASELINE))
    assert timing.makespan <= timing.solo_cycles[0] + timing.solo_cycles[1]
    assert timing.corun_slowdown(0) >= 1.0


def _direct_sim(lab, name, layout):
    """The oracle: the event-driven simulator on the lab's own stream."""
    from repro.cache import simulate

    stats = simulate(lab.lines(name, layout), lab.cache_cfg, prefetch=False)
    return stats.misses


class TestKernelRouting:
    """The sim channel always reads the stack-distance histogram and must
    be bit-identical to a direct ``setassoc.simulate`` of the stream."""

    CELLS = [
        (name, layout, channel)
        for name in ("syn-mcf", "syn-sjeng")
        for layout in (BASELINE, "function-affinity")
        for channel in ("sim", "hw")
    ]

    def test_solo_miss_parity_with_scalar_oracle(self):
        fast = Lab(scale=SCALE, noise_sigma=0.0)
        scalar = Lab(scale=SCALE, noise_sigma=0.0, kernel_backend="scalar")
        for name, layout, channel in self.CELLS:
            got = fast.solo_miss(name, layout, channel)
            assert got == scalar.solo_miss(name, layout, channel)
            if channel == "sim":
                assert got.misses == _direct_sim(fast, name, layout)
        assert fast.counters["kernel_cells"] > 0
        assert fast.counters["kernel_passes"] > 0

    def test_precompute_solo_kernel_fanout_parity(self):
        from repro.perf import SimMemo

        batched = Lab(scale=SCALE, noise_sigma=0.0, memo=SimMemo())
        batched.precompute_solo(self.CELLS, jobs=2)
        lazy = Lab(scale=SCALE, noise_sigma=0.0, kernel_backend="scalar")
        for name, layout, channel in self.CELLS:
            got = batched.solo_miss(name, layout, channel)
            assert got == lazy.solo_miss(name, layout, channel)
            if channel == "sim":
                assert got.misses == _direct_sim(lazy, name, layout)
        # The second precompute replays histograms from the memo.
        again = Lab(scale=SCALE, noise_sigma=0.0, memo=batched.memo)
        again.precompute_solo(self.CELLS, jobs=2)
        assert again.counters["kernel_passes"] == 0
        assert again.counters["kernel_cells"] > 0

    def test_histogram_shared_across_assoc_family(self):
        lab = Lab(scale=SCALE, noise_sigma=0.0)
        h4 = lab.histogram("syn-mcf", BASELINE)
        assert lab.histogram("syn-mcf", BASELINE) is h4
        assert lab.counters["kernel_passes"] == 1
        # One histogram answers other associativities of the family.
        assert h4.misses(1) >= h4.misses(8)

    def test_spawn_config_carries_kernel_backend(self):
        assert Lab(scale=SCALE).spawn_config()["kernel_backend"] is None
        cfg = Lab(scale=SCALE, kernel_backend="scalar").spawn_config()
        assert cfg["kernel_backend"] == "scalar"
        assert Lab(**cfg)._backend.name == "scalar"

    def test_hw_channel_never_uses_kernel(self):
        lab = Lab(scale=SCALE, noise_sigma=0.0)
        lab.solo_miss("syn-mcf", BASELINE, channel="hw")
        assert lab.counters["kernel_cells"] == 0
        assert lab.counters["sim_accesses"] > 0


class TestAnalysisRouting:
    """Locality-model kernel routing: bit-identical layouts, counter
    accounting, and the batch precompute path."""

    LAYOUTS = ("function-affinity", "function-trg", "bb-affinity", "bb-trg")

    @staticmethod
    def _same_layout(a, b):
        am, bm = a.address_map, b.address_map
        return (
            am.order == bm.order
            and np.array_equal(am.starts, bm.starts)
            and np.array_equal(am.sizes, bm.sizes)
            and am.added_jumps == bm.added_jumps
        )

    def test_layout_parity_fast_vs_scalar(self):
        fast = Lab(scale=SCALE, noise_sigma=0.0)
        scalar = Lab(scale=SCALE, noise_sigma=0.0, kernel_backend="scalar")
        for layout_name in self.LAYOUTS:
            assert self._same_layout(
                fast.layout("syn-mcf", layout_name),
                scalar.layout("syn-mcf", layout_name),
            ), layout_name
        # Every tier feeds the same analysis counters.
        for lab in (fast, scalar):
            assert lab.counters["analysis_cells"] == len(self.LAYOUTS)
            assert lab.counters["analysis_passes"] == len(self.LAYOUTS)
            assert lab.counters["analysis_accesses"] > 0

    def test_lab_optimize_inherits_kernel_backend(self, monkeypatch):
        """Spy on the tier every analysis resolves: a caller's config
        (``kernel_backend=None``) must not drop the lab's tier, neither
        through :meth:`Lab.layout` nor through :meth:`Lab.optimize`."""
        from repro.core.layout import Granularity
        from repro.core.optimizers import Model, OptimizerConfig
        from repro.perf import backends

        requested = []
        real = backends.resolve_backend

        def spy(name=None, *, strict=True):
            backend = real(name, strict=strict)
            requested.append(backend.name)
            return backend

        monkeypatch.setattr(backends, "resolve_backend", spy)
        cfg = OptimizerConfig(w_max=8)
        scalar = Lab(scale=SCALE, noise_sigma=0.0, kernel_backend="scalar")
        scalar.layout("syn-mcf", "function-trg")
        b = scalar.optimize("syn-mcf", Granularity.FUNCTION, Model.AFFINITY, cfg)
        assert requested and set(requested) == {"scalar"}
        assert scalar.counters["analysis_cells"] == 2
        fast = Lab(scale=SCALE, noise_sigma=0.0)
        a = fast.optimize("syn-mcf", Granularity.FUNCTION, Model.AFFINITY, cfg)
        assert self._same_layout(a, b)

    @pytest.mark.parametrize("module", ["exp_cache_sweep", "exp_staticlint"])
    def test_sub_labs_inherit_tier(self, module, monkeypatch):
        """Experiments that derive a second lab hand it the parent's tier
        (the spy stops the experiment at the sub-lab's construction)."""
        import importlib

        experiment = importlib.import_module(f"repro.experiments.{module}")
        lab = Lab(scale=SCALE, noise_sigma=0.0, kernel_backend="scalar")
        requested = []

        class Stop(Exception):
            pass

        def spy(self, *args, **kwargs):
            requested.append(kwargs.get("kernel_backend"))
            raise Stop

        monkeypatch.setattr(Lab, "__init__", spy)
        with pytest.raises(Stop):
            experiment.run(lab)
        assert requested == ["scalar"]

    def test_repeated_layout_config_hits_analysis_memo(self):
        """Two optimizers sharing one analysis (same trace + params)
        compute it once and replay it the second time."""
        from repro.core.optimizers import Model, OptimizerConfig
        from repro.core.layout import Granularity

        lab = Lab(scale=SCALE, noise_sigma=0.0)
        cfg = OptimizerConfig(w_max=8)
        lab.optimize("syn-mcf", Granularity.FUNCTION, Model.AFFINITY, cfg)
        assert lab.counters["analysis_memo_hits"] == 0
        lab.optimize("syn-mcf", Granularity.FUNCTION, Model.AFFINITY, cfg)
        assert lab.counters["analysis_memo_hits"] == 1
        assert lab.counters["analysis_passes"] == 1  # only the first ran

    def test_precompute_layouts_parity_and_memo(self, tmp_path):
        from repro.perf import SimMemo

        cells = [("syn-mcf", layout_name) for layout_name in self.LAYOUTS]
        batched = Lab(
            scale=SCALE, noise_sigma=0.0, memo=SimMemo(tmp_path / "memo")
        )
        batched.precompute_layouts(cells, jobs=2)
        assert batched.counters["analysis_passes"] == len(self.LAYOUTS)
        lazy = Lab(scale=SCALE, noise_sigma=0.0, kernel_backend="scalar")
        for cell in cells:
            assert self._same_layout(
                batched.layout(*cell), lazy.layout(*cell)
            ), cell
        # Consumption replayed every batch-built artifact from the memo.
        assert batched.counters["analysis_memo_hits"] == len(self.LAYOUTS)
        # A fresh lab on the same memo dir replays without any pass.
        again = Lab(
            scale=SCALE, noise_sigma=0.0, memo=SimMemo(tmp_path / "memo")
        )
        again.precompute_layouts(cells, jobs=2)
        assert again.counters["analysis_passes"] == 0
        assert again.counters["analysis_memo_hits"] == len(self.LAYOUTS)

    def test_precompute_solo_fans_out_layout_analyses(self, monkeypatch):
        """With jobs > 1, precompute_solo sends the optimized cells'
        model analyses through the cell fan-out before any stream is
        built; layouts and measurements equal the serial run's."""
        from repro.perf import SimMemo

        cells = [
            ("syn-mcf", layout, "hw")
            for layout in (BASELINE, "function-affinity", "function-trg")
        ]
        kinds = []
        real_fan_out = Lab._fan_out

        def spy(self, work, jobs, memo):
            kinds.extend(cell[0] for cell in work)
            return real_fan_out(self, work, jobs, memo)

        monkeypatch.setattr(Lab, "_fan_out", spy)
        fanned = Lab(scale=SCALE, noise_sigma=0.0, memo=SimMemo())
        fanned.precompute_solo(cells, jobs=2)
        assert kinds == ["affinity", "trg", "stats", "stats", "stats"]
        assert fanned.counters["analysis_passes"] == 2
        assert fanned.counters["analysis_memo_hits"] == 2

        kinds.clear()
        serial = Lab(scale=SCALE, noise_sigma=0.0, memo=SimMemo())
        serial.precompute_solo(cells, jobs=1)
        assert kinds == []
        for name, layout, channel in cells:
            assert self._same_layout(
                fanned.layout(name, layout), serial.layout(name, layout)
            )
            assert fanned.solo_miss(name, layout, channel) == serial.solo_miss(
                name, layout, channel
            )

    def test_precompute_layouts_serial_and_scalar_fallbacks(self):
        """jobs=1, and the scalar tier fanned out, must still build
        every layout."""
        serial = Lab(scale=SCALE, noise_sigma=0.0)
        serial.precompute_layouts([("syn-mcf", "function-trg")], jobs=1)
        scalar = Lab(scale=SCALE, noise_sigma=0.0, kernel_backend="scalar")
        scalar.precompute_layouts(
            [("syn-mcf", "function-trg"), ("syn-mcf", "bb-trg")], jobs=2
        )
        assert self._same_layout(
            serial.layout("syn-mcf", "function-trg"),
            scalar.layout("syn-mcf", "function-trg"),
        )

    def test_config_tier_adopted_not_mirrored(self):
        """The lab's ``kernel_backend`` is the one copy of the tier: a
        tier named only in ``optimizer_config`` is adopted, an explicit
        lab tier wins, and neither is written back into the config."""
        from repro.core.optimizers import OptimizerConfig

        cfg = OptimizerConfig(kernel_backend="scalar")
        adopted = Lab(scale=SCALE, optimizer_config=cfg)
        assert adopted.kernel_backend == "scalar"
        assert adopted.optimizer_config is cfg
        explicit = Lab(scale=SCALE, optimizer_config=cfg, kernel_backend="numpy")
        assert explicit._backend.name == "numpy"
        assert explicit.optimizer_config.kernel_backend == "scalar"
        default = Lab(scale=SCALE)
        assert default.optimizer_config.kernel_backend is None
