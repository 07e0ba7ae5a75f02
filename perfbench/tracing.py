"""Span tracing for the benchmark's traced run.

Imported only when ``--trace 1``: the untraced run never loads this
module, so its end-to-end numbers carry no tracing cost.

:class:`Tracer` wraps the public functions each layer exposes — at the
attribute its caller resolves, e.g. ``repro.core.optimizers.build_hierarchy``
rather than ``repro.core.hierarchy.build_hierarchy``, since the optimizers
bind it by name — with span wrappers.  A span records its layer, request
id, parent span, start and end; spans stay in memory and are written out
once, at the end.  A layer's self time is its span time minus the time
its child spans cover, so self times over all layers (with the
benchmark's own ``bench.request`` glue) add up to the request time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Optional

from repro.core import optimizers
from repro.fleet.placement import POLICIES
from repro.perf import backends
from repro.robust.errors import ReproError

#: program layers, in the order reported.
LAYERS = (
    "compiler.driver",
    "experiments.lab",
    "core.optimize",
    "core.analysis",
    "core.hierarchy",
    "core.trg_reduce",
    "engine.trace",
    "engine.fetch",
    "ir.transform",
    "lint",
    "cache.solo",
    "cache.shared",
    "machine",
    "locality.footprint",
    "fleet.compose",
    "fleet.placement",
    "fleet.evaluate",
    "workloads.generate",
)
#: the benchmark's own request glue (request time outside every layer).
GLUE = "bench.request"
#: layers whose set-up time is reported (the ``setup_s`` contributors).
SETUP_LAYERS = (
    "workloads.generate",
    "engine.trace",
    "engine.fetch",
    "core.analysis",
    "core.hierarchy",
    "core.trg_reduce",
    "ir.transform",
    "locality.footprint",
)


def _len0(args, kwargs, out) -> int:
    return len(args[0])


def _len_out(args, kwargs, out) -> int:
    return len(out)


def _blocks(args, kwargs, out) -> int:
    return len(out.bb_trace)


def _symbols(args, kwargs, out) -> int:
    return len(args[0].symbols)


def _shared_accesses(args, kwargs, out) -> int:
    return sum(st.accesses for st in out)


def _cells(args, kwargs, out) -> int:
    return int(out.size)


#: (module, attribute path, layer, work counter) for each function the
#: three workloads reach.  Every attribute is the one the caller resolves
#: at call time.
PATCHES: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.compiler.driver", "Driver.build", "compiler.driver", None),
    ("repro.compiler.driver", "collect_trace", "engine.trace", _blocks),
    ("repro.compiler.driver", "fetch_lines", "engine.fetch", _len_out),
    ("repro.compiler.driver", "baseline_layout", "ir.transform", None),
    ("repro.compiler.driver", "run_lint", "lint", None),
    ("repro.compiler.driver", "simulate", "cache.solo", _len0),
    ("repro.core.optimizers", "build_hierarchy", "core.hierarchy", _symbols),
    ("repro.core.optimizers", "reduce_trg", "core.trg_reduce", None),
    ("repro.core.optimizers", "analysis_from_coverage", "core.analysis", None),
    ("repro.core.optimizers", "apply_symbol_order", "ir.transform", None),
    ("repro.experiments.pipeline", "Lab.corun_speedup", "experiments.lab", None),
    ("repro.experiments.pipeline", "collect_trace", "engine.trace", _blocks),
    ("repro.experiments.pipeline", "fetch_lines", "engine.fetch", _len_out),
    ("repro.experiments.pipeline", "baseline_layout", "ir.transform", None),
    ("repro.experiments.pipeline", "footprint_curve", "locality.footprint", _len0),
    ("repro.experiments.pipeline", "measure_solo", "machine", None),
    ("repro.experiments.pipeline", "measure_corun", "machine", None),
    ("repro.experiments.pipeline", "thread_cost", "machine", None),
    ("repro.experiments.pipeline", "corun_pair", "machine", None),
    ("repro.machine.counters", "simulate", "cache.solo", _len0),
    ("repro.machine.counters", "simulate_shared", "cache.shared", _shared_accesses),
    ("repro.workloads.generator", "build_program", "workloads.generate", None),
    ("repro.workloads.suite", "build_program", "workloads.generate", None),
    ("repro.fleet.compose", "CurveSet.group", "fleet.compose", None),
    ("repro.fleet.compose", "ComposedGroup.miss_ratio_matrix", "fleet.compose", _cells),
    ("repro.fleet.placement", "evaluate_placement", "fleet.evaluate", None),
)

#: the work count each layer reports, by layer.
COUNTS = {
    "core.hierarchy": "symbols",
    "core.analysis": "accesses",
    "engine.trace": "blocks",
    "engine.fetch": "lines",
    "cache.solo": "accesses",
    "cache.shared": "accesses",
    "locality.footprint": "accesses",
    "fleet.compose": "cells",
}
#: layers whose throughput (work per self second) is reported.
RATES = ("core.analysis", "engine.trace", "cache.solo", "cache.shared")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self.request: Any = None

    # -- spans -----------------------------------------------------------

    def span(self, layer: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            # [id, parent id, request, layer, start, end, child time, work, error]
            rec = [len(tracer.spans), parent[0] if parent else None,
                   tracer.request, layer, time.perf_counter(), 0.0, 0.0, 0, False]
            tracer.spans.append(rec)
            tracer._stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            except ReproError as exc:
                # Count an error once, at the innermost layer it crossed.
                if not getattr(exc, "_bench_seen", False):
                    rec[8] = True
                    exc._bench_seen = True
                raise
            finally:
                rec[5] = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent[6] += rec[5] - rec[4]
            if counter is not None:
                rec[7] = counter(args, kwargs, out)
            return out

        return traced

    def run(self, request: Any, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)`` as request ``request``, under a root span
        whose self time is the benchmark's own glue."""
        self.request = request
        try:
            return self.span(GLUE, fn, None)(*args)
        finally:
            self.request = None

    # -- patching --------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, path, layer, counter in PATCHES:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            self._set(owner, attr, self.span(layer, getattr(owner, attr), counter))
        # The optimizer and policy registries are dicts their callers
        # index at call time; the kernel registry is resolved per call.
        for name, fn in list(optimizers.OPTIMIZERS.items()):
            self._set_item(optimizers.OPTIMIZERS, name, self.span("core.optimize", fn, None))
        for name, fn in list(POLICIES.items()):
            self._set_item(POLICIES, name, self.span(f"fleet.placement.{name}", fn, None))
        for name, backend in list(backends._REGISTRY.items()):
            self._set_item(
                backends._REGISTRY,
                name,
                dataclasses.replace(
                    backend,
                    histogram=self.span("cache.solo", backend.histogram, _len0),
                    affinity=self.span("core.analysis", backend.affinity, _len0),
                    trg=self.span("core.analysis", backend.trg, _len0),
                ),
            )

    def _set_item(self, mapping: dict, key: str, value: Any) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- reporting -------------------------------------------------------

    def aggregate(self, latency: list[float], large: set[int]) -> dict[str, float]:
        """Per-layer metrics over the timed requests (request ids index
        ``latency``; ``large`` holds the large-program ones) and the
        traced set-up (request ``"setup"``)."""
        self_s: dict[str, float] = defaultdict(float)
        setup_s: dict[str, float] = defaultdict(float)
        work: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        errors: dict[str, int] = defaultdict(int)
        large_hier = 0.0
        spans = 0
        for rec in self.spans:
            req, layer = rec[2], rec[3]
            own = rec[5] - rec[4] - rec[6]
            if req == "setup":
                setup_s[_base(layer)] += own
                continue
            if not isinstance(req, int):
                continue  # warm-up and overhead re-runs
            spans += 1
            self_s[layer] += own
            base = _base(layer)
            if base != layer:
                self_s[base] += own
            work[base] += rec[7]
            calls[base] += 1
            errors[base] += rec[8]
            if base == "core.hierarchy" and req in large:
                large_hier += own
        n = len(latency)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer] / n
            if layer in COUNTS:
                out[f"{layer}.{COUNTS[layer]}"] = work[layer] / n
            if layer in RATES:
                out[f"{layer}.{COUNTS[layer]}_per_s"] = (
                    work[layer] / self_s[layer] if self_s[layer] else 0.0
                )
            out[f"{layer}.errors"] = float(errors[layer])
        out["core.hierarchy.calls"] = calls["core.hierarchy"] / n
        large_time = sum(latency[r] for r in large)
        out["core.hierarchy.large_share"] = large_hier / large_time if large_time else 0.0
        for p in POLICIES:
            out[f"fleet.placement.{p}.self_s"] = self_s[f"fleet.placement.{p}"] / n
        for layer in SETUP_LAYERS:
            out[f"setup.{layer}.self_s"] = setup_s[layer]
        out[f"{GLUE}.self_s"] = self_s[GLUE] / n
        out["trace.spans"] = spans / n
        return out

    def write(self, path, env: dict) -> None:
        fields = ["id", "parent", "request", "layer", "start", "end", "child_s", "work", "error"]
        with open(path, "w") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(fields, rec))) + "\n")


def _base(layer: str) -> str:
    return "fleet.placement" if layer.startswith("fleet.placement.") else layer
