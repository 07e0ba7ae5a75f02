"""The three request workloads of the repo benchmark.

Each workload is a closed loop driven by one client: the next request is
issued only when the previous one has returned.  A workload object is
built once per set-up from the benchmark seed; it holds the seeded
request *pool* (the generated inputs) and the warmed program state, and
exposes:

* ``run(req)``     — one request through the program's public API;
* ``check(req, out)`` — the output checks that feed ``failed``;
* ``record(req, out)`` — the request's simulated figures, which
  :func:`summary` folds over one pass of the pool;
* ``digest(out)``    — a stable hash of the request's output;
* ``run_checks(out)`` — the once-per-run parity checks, on the output of
  the pool's first request.

Program calls go through module attributes (``driver_mod.Driver``,
``placement.POLICIES[...]``, ...) so the traced run's span wrappers,
which patch those attributes, see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.cache import setassoc, shared
from repro.cache.config import PAPER_L1I
from repro.compiler import driver as driver_mod
from repro.engine import fetch, instrument
from repro.experiments import pipeline
from repro.fleet import compose, placement
from repro.ir import transforms
from repro.ir.validate import validate_module
from repro.lint.diagnostics import Severity
from repro.lint.integrity import RULE_INTEGRITY, audit_address_map
from repro.locality import hotl
from repro.machine import timing as timing_mod
from repro.workloads import generator
from repro.workloads.suite import ALL_PROGRAMS, PROBE_PROGRAMS, STUDY_PROGRAMS, SUITE

BASELINE = pipeline.BASELINE
FUNCTION_LAYOUTS = ("function-affinity", "function-trg")


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent seeded stream per workload (same seed, same inputs)."""
    return np.random.default_rng([int(seed), stream])


def _hash(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def summary(records: list[tuple[float, float, float]]) -> dict[str, float]:
    """Simulated metrics over one pass of the pool, from each request's
    ``(baseline misses, optimized misses, speedup)`` record."""
    return {
        "miss_reduction": sum(r[0] for r in records) / sum(r[1] for r in records),
        "model_speedup": math.exp(
            sum(math.log(r[2]) for r in records) / len(records)
        ),
    }


# ---------------------------------------------------------------------------
# build: the layout-service request path (Driver.build, all four optimizers)
# ---------------------------------------------------------------------------

#: reduced trace budgets: the suite's 80k-120k/250k-400k blocks take 1-25 s
#: per build; at 700/3.5k a request takes 0.05-0.7 s, so a run holds the
#: whole pool and the hierarchy still dominates the large-code requests.
BUILD_TEST_BLOCKS = 700
BUILD_REF_BLOCKS = 3_500
#: programs per suite shape in the request pool (116 programs, so
#: latency_p90_s is read off 100+ distinct programs).
BUILD_PER_SHAPE = 4
#: the largest-code shapes (core.hierarchy.large_share is measured on them).
LARGE_SHAPES = frozenset(
    {"syn-gcc", "syn-xalancbmk", "syn-gobmk", "syn-povray", "syn-perlbench"}
)


@dataclass(frozen=True)
class BuildRequest:
    shape: str
    spec: generator.WorkloadSpec
    module: Any

    @property
    def large(self) -> bool:
        return self.shape in LARGE_SHAPES


class BuildWorkload:
    name = "build"

    def __init__(self, seed: int):
        rng = _rng(seed, 1)
        self.pool: list[BuildRequest] = []
        # Each of the 29 suite shapes BUILD_PER_SHAPE times, in seeded
        # order, with a fresh generator seed: every seed gets the same
        # size mix, so run-to-run spread comes from the program, not
        # from the draw.
        for _ in range(BUILD_PER_SHAPE):
            for idx in rng.permutation(len(ALL_PROGRAMS)):
                shape = ALL_PROGRAMS[int(idx)]
                spec = dataclasses.replace(
                    SUITE[shape].spec,
                    seed=int(rng.integers(1, 2**31 - 1)),
                    test_blocks=BUILD_TEST_BLOCKS,
                    ref_blocks=BUILD_REF_BLOCKS,
                )
                module = generator.build_program(spec)
                self.pool.append(BuildRequest(shape, spec, module))
        self.driver = driver_mod.Driver(jobs=1)

    def run(self, req: BuildRequest):
        return self.driver.build(
            req.module, req.spec.test_input(), req.spec.ref_input(), lint=True
        )

    def check(self, req: BuildRequest, out) -> list[str]:
        problems = []
        validate_module(req.module)  # raises ValidationError when broken
        expected = {BASELINE, *self.driver.optimizer_names}
        if set(out.layouts) != expected:
            problems.append(f"layouts {sorted(out.layouts)} != {sorted(expected)}")
        for name, layout in out.layouts.items():
            audit = audit_address_map(req.module, layout.address_map)
            lint = out.lint_reports.get(name)
            integrity = [] if lint is None else lint.by_rule(RULE_INTEGRITY)
            if lint is None:
                problems.append(f"{name}: no lint report")
            if any(d.severity is Severity.ERROR for d in audit + integrity):
                problems.append(f"{name}: {RULE_INTEGRITY} integrity error")
            ratio = out.miss_ratios.get(name)
            if ratio is None or not (math.isfinite(ratio) and ratio >= 0):
                problems.append(f"{name}: bad miss ratio {ratio!r}")
        return problems

    def digest(self, out) -> str:
        return _hash(
            out.program,
            [(n, lay.order, lay.address_map.total_bytes) for n, lay in out.layouts.items()],
            sorted((n, r.hex()) for n, r in out.miss_ratios.items()),
        )

    def record(self, req: BuildRequest, out) -> tuple[float, float, float]:
        """(baseline misses, best layout's misses, timing-model speedup),
        misses per instruction of the ref input."""
        base = out.miss_ratios[BASELINE]
        best = min(out.miss_ratios[n] for n in self.driver.optimizer_names)
        timing = timing_mod.TimingParams()
        cycles = [
            timing_mod.thread_cost(1.0, r, req.spec.data_cpi, timing).total_cycles
            for r in (base, best)
        ]
        return base, best, cycles[0] / cycles[1]

    def run_checks(self, out) -> list[str]:
        """The Driver's baseline miss ratio equals a direct simulation."""
        req = self.pool[0]
        ref = instrument.collect_trace(req.module, req.spec.ref_input())
        stream = fetch.fetch_lines(
            ref.bb_trace,
            transforms.baseline_layout(req.module).address_map,
            PAPER_L1I.line_bytes,
        )
        direct = setassoc.simulate(stream, PAPER_L1I).misses / ref.instr_count
        if direct != out.miss_ratios[BASELINE]:
            return [f"baseline miss ratio {out.miss_ratios[BASELINE]!r} != direct {direct!r}"]
        return []


# ---------------------------------------------------------------------------
# corun: defensiveness and politeness (Lab.corun_speedup, hw channel)
# ---------------------------------------------------------------------------

#: trace-budget scale of the corun lab (0.1-0.25 s per request).
CORUN_SCALE = 0.12


@dataclass(frozen=True)
class CorunRequest:
    target: str
    layout: str
    probe: str


class CorunWorkload:
    name = "corun"

    def __init__(self, seed: int):
        rng = _rng(seed, 2)
        # Table II's design: every study program against both probes
        # with each function-level layout (32 requests).  The seed sets
        # the order; every seed measures the same programs, layouts and
        # probes, so the cost mix is fixed.
        triples = [
            CorunRequest(t, lay, p)
            for t in STUDY_PROGRAMS
            for lay in FUNCTION_LAYOUTS
            for p in PROBE_PROGRAMS
        ]
        self.pool = [triples[int(i)] for i in rng.permutation(len(triples))]
        # Warm the prerequisites: profiles, function-level layouts and
        # ref-input fetch streams of every program a request touches.
        self.lab = pipeline.Lab(scale=CORUN_SCALE, jobs=1)
        for t in STUDY_PROGRAMS:
            for lay in (BASELINE, *FUNCTION_LAYOUTS):
                self.lab.lines(t, lay)
        for p in PROBE_PROGRAMS:
            self.lab.lines(p, BASELINE)

    def run(self, req: CorunRequest):
        # The lab memoizes measurements; a request measures afresh, on
        # the warmed streams.
        self.lab._solo.clear()
        self.lab._corun.clear()
        speedup = self.lab.corun_speedup(req.target, req.layout, req.probe)
        base = self.lab.corun_miss((req.target, BASELINE), (req.probe, BASELINE))
        opt = self.lab.corun_miss((req.target, req.layout), (req.probe, BASELINE))
        return speedup, base[0].misses, opt[0].misses

    def check(self, req: CorunRequest, out) -> list[str]:
        speedup, base, opt = out
        problems = []
        if not (math.isfinite(speedup) and speedup > 0):
            problems.append(f"speedup {speedup!r} not finite and positive")
        if not all(math.isfinite(m) and m >= 0 for m in (base, opt)):
            problems.append(f"bad co-run misses {base!r}/{opt!r}")
        return problems

    def digest(self, out) -> str:
        return _hash([float(x).hex() for x in out])

    def record(self, req: CorunRequest, out) -> tuple[float, float, float]:
        """(baseline target's co-run misses, optimized target's, speedup)."""
        speedup, base, opt = out
        return base, opt, speedup

    def run_checks(self, out) -> list[str]:
        """Per-thread shared-cache accesses cover exactly the streams: every
        thread issues at least one full pass and the last to finish
        issues exactly one."""
        req = self.pool[0]
        streams = [
            self.lab.lines(req.target, req.layout),
            self.lab.lines(req.probe, BASELINE) + pipeline.THREAD_STRIDE,
        ]
        stats = shared.simulate_shared(
            streams, self.lab.cache_cfg, quantum=self.lab.quantum, prefetch=True
        )
        issued = [st.accesses for st in stats]
        lengths = [len(s) for s in streams]
        if not (
            all(a >= n for a, n in zip(issued, lengths))
            and any(a == n for a, n in zip(issued, lengths))
        ):
            return [f"shared accesses {issued} do not cover streams {lengths}"]
        return []


# ---------------------------------------------------------------------------
# fleet: placements of hundreds to ~2,000 instances (repro.fleet.placement)
# ---------------------------------------------------------------------------

#: trace-budget scale of the curve lab (every model at its trace floor).
FLEET_SCALE = 0.03
#: instances per socket (N instances onto N/4 shared caches).
FLEET_DENSITY = 4
#: fleet sizes in the pool (instances): 24 small ones and a tail of 6
#: large ones, where the superlinear score-aware and worst-fit policies
#: set latency_p90_s.  p90 falls inside the five equal 1,200-instance
#: fleets, not on a size boundary.  Fixed, so every seed has the same
#: size spectrum.
FLEET_SIZES = tuple(
    int(n) // FLEET_DENSITY * FLEET_DENSITY
    for n in (*np.geomspace(100, 600, 24), *[1200] * 5, 2000)
)
FLEET_LAYOUTS = (BASELINE, *FUNCTION_LAYOUTS)


@dataclass(frozen=True)
class FleetRequest:
    instances: tuple
    n_sockets: int
    seed: int


class FleetWorkload:
    name = "fleet"

    def __init__(self, seed: int):
        rng = _rng(seed, 3)
        self.lab = pipeline.Lab(scale=FLEET_SCALE, jobs=1)
        self.models = [(p, lay) for p in ALL_PROGRAMS for lay in FLEET_LAYOUTS]
        curves = [self.lab.footprint(p, lay) for p, lay in self.models]
        self.curve_set = compose.CurveSet(curves)
        self.capacity = float(self.lab.cache_cfg.n_lines)
        self.pool = []
        for i in rng.permutation(len(FLEET_SIZES)):
            n = FLEET_SIZES[int(i)]
            ids = rng.integers(0, len(self.models), n)
            instances = tuple(
                placement.Instance(
                    name=self.models[c][0],
                    layout=self.models[c][1],
                    curve_id=int(c),
                    weight=float(curves[c].n),
                )
                for c in ids
            )
            self.pool.append(
                FleetRequest(instances, n // FLEET_DENSITY, int(rng.integers(2**31)))
            )

    def run(self, req: FleetRequest):
        out = {}
        for name in placement.POLICIES:
            groups = placement.POLICIES[name](
                req.instances,
                req.n_sockets,
                curve_set=self.curve_set,
                capacity=self.capacity,
                seed=req.seed,
            )
            out[name] = placement.evaluate_placement(
                self.curve_set, req.instances, groups, self.capacity,
                self.lab.timing, policy=name,
            )
        return out

    def check(self, req: FleetRequest, out) -> list[str]:
        problems = []
        n = len(req.instances)
        for name, placed in out.items():
            flat = sorted(i for g in placed.groups for i in g)
            if flat != list(range(n)):
                problems.append(f"{name}: instances not placed exactly once")
            if len(placed.groups) > req.n_sockets:
                problems.append(f"{name}: {len(placed.groups)} sockets > {req.n_sockets}")
            if not (math.isfinite(placed.total_misses) and placed.makespan > 0):
                problems.append(f"{name}: bad score")
        if set(out) != set(placement.POLICIES):
            problems.append(f"policies {sorted(out)}")
        return problems

    def digest(self, out) -> str:
        return _hash(
            [(n, p.groups, p.total_misses.hex(), p.makespan.hex()) for n, p in out.items()]
        )

    def record(self, req: FleetRequest, out) -> tuple[float, float, float]:
        """(best oblivious predicted misses, best aware's, makespan ratio)."""
        oblivious = min(
            (out[n] for n in placement.OBLIVIOUS_POLICIES), key=lambda p: p.total_misses
        )
        aware = min(
            (out[n] for n in placement.AWARE_POLICIES), key=lambda p: p.total_misses
        )
        return (
            oblivious.total_misses,
            aware.total_misses,
            oblivious.makespan / aware.makespan,
        )

    def run_checks(self, out) -> list[str]:
        """The vectorized composition equals the scalar oracle (==)."""
        req = self.pool[0]
        group = next(g for g in out["score-aware"].groups if len(g) >= 2)
        ids = [req.instances[i].curve_id for i in group[:2]]
        caps = self.capacity * np.linspace(0.25, 1.5, 16)
        matrix = self.curve_set.group(ids).miss_ratio_matrix(caps)
        pair = [self.curve_set.curves[c] for c in ids]
        for k, cap in enumerate(caps):
            scalar = hotl.shared_miss_ratios_scalar(pair, float(cap))
            if list(matrix[:, k]) != scalar:
                return [f"pair {ids} at capacity {cap}: {list(matrix[:, k])} != {scalar}"]
        return []


WORKLOADS = {w.name: w for w in (BuildWorkload, CorunWorkload, FleetWorkload)}
