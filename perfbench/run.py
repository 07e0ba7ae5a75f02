"""Request-level benchmark of the layout service, the co-run lab and the
fleet placer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload build --seed 1 --seconds 15 --trace 0

One client issues requests back to back (closed loop, ``jobs=1``) in
whole passes over a seeded request pool, for ``--seconds`` seconds and at
least ``MIN_REQUESTS`` requests.  Host times are scaled to the reference
host speed by a probe timed before every request and around every set-up
(see ``_probe``).  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` — with names and units from ``BENCHMARK.json``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os

# One client at jobs=1: keep numerical libraries from starting thread pools
# that would contend with it for the few cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: fewest timed requests in a run (p90 then has 10+ samples beyond it).
MIN_REQUESTS = 100
#: requests re-run traced and untraced to measure the tracing overhead.
OVERHEAD_REQUESTS = 12
#: the host-speed probe's two parts, about 1 ms each: arithmetic loop
#: iterations, and lookups into a table of PROBE_TABLE_KEYS random keys (a
#: few MB, like the program's working sets); and the fixed unit of scaled
#: times: the probe's time on the reference host (x86_64, 2 vCPUs, Python
#: 3.11) in a typical quiet period (0.9-1.4 ms seen).
PROBE_ITERS = 6_000
PROBE_LOOKUPS = 15_000
PROBE_TABLE_KEYS = 50_000
PROBE_REF_S = 0.00135
#: probes before and after each set-up.
SETUP_PROBES = 5


def _fail(message: str) -> None:
    """Usage or environment error: exit 2 without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        _fail(f"imported repro from {repro.__file__}, not {SRC}")


_rand = random.Random(0)
_PROBE_KEYS = [_rand.getrandbits(30) for _ in range(PROBE_TABLE_KEYS)]
_PROBE_TABLE = {k: i for i, k in enumerate(_PROBE_KEYS)}
_PROBE_KEYS = _PROBE_KEYS[:PROBE_LOOKUPS]


def _probe_pass() -> float:
    t0 = time.perf_counter()
    small = {}
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i % 7
        small[i & 1023] = acc
    for k in _PROBE_KEYS:
        acc += _PROBE_TABLE[k]
    return time.perf_counter() - t0


def _probe() -> float:
    """Host seconds of a fixed pure-Python loop: the host-speed probe.

    A shared host's co-tenants slow every instruction of this process, by
    up to 2.5x for tens of seconds at a time, so raw times measure the
    neighbours as much as the program.  The probe is interpreter- and
    cache-bound like the program and runs next to every timed region; a
    host time ``t`` with probe time ``p`` nearby is reported as
    ``t * PROBE_REF_S / p``, host seconds at the reference host's speed.
    For a request ``p`` is the mean of the probes just before and just
    after it; for a set-up, the median of the SETUP_PROBES on each side.
    The probe runs no program code, and only its second, warm pass is
    timed, so what the program left in the caches does not move it: a
    change to the program moves the reported times as much as raw ones.
    """
    _probe_pass()
    return _probe_pass()


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"missing {path}")
    return json.loads(path.read_text())


def _environment() -> dict:
    import numpy
    from repro.perf import backends

    return {
        "kernel_backend": backends.default_backend(),
        "available_backends": list(backends.available_backends()),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _code_hash() -> str:
    """Content hash of the program and the benchmark (keys the digests)."""
    h = hashlib.sha256()
    for base in (SRC / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def _check_repeatable(workload: str, seed: int, record: dict) -> list[str]:
    """Same seed, same code: simulated metrics and digest must be identical
    to any earlier run in this checkout."""
    path = OUT / "digests" / f"{workload}-{seed}-{_code_hash()}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        if before != record:
            return [f"seed {seed} not repeatable: {before} != {record}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    tmp.replace(path)
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    spec = _spec()
    _import_program()
    from workloads import WORKLOADS, summary

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    env = _environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    # -- set-up: median of SETUP_REPS fresh builds of the seeded inputs ----
    setup_times, setup_raw = [], []
    wl = None
    for rep in range(SETUP_REPS):
        wl = None
        gc.collect()
        traced = tracer is not None and rep == SETUP_REPS - 1
        if traced:
            tracer.install()
        around = [_probe() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        if traced:
            wl = tracer.run("setup", WORKLOADS[args.workload], args.seed)
        else:
            wl = WORKLOADS[args.workload](args.seed)
        setup_raw.append(time.perf_counter() - start)
        around += [_probe() for _ in range(SETUP_PROBES)]
        setup_times.append(setup_raw[-1] * PROBE_REF_S / statistics.median(around))
    pool = wl.pool
    # One untimed request finishes lazy imports and first-call set-up.
    wl.run(pool[-1])
    # Set-up state is long-lived: keep the collector from rescanning it.
    gc.collect()
    gc.freeze()

    # -- timed closed loop ---------------------------------------------------
    # A request is timed around wl.run alone; its output checks run between
    # requests, outside the timed phase (whose length is the summed
    # request time).  The loop runs whole passes of the pool, so every
    # run of a seed weighs every request equally.  A host-speed probe
    # runs before each request and after the last, outside their timing.
    latency: list[float] = []
    probes: list[float] = []
    records, digests, errors = [], [], {}
    first_digest: dict[int, str] = {}
    first_out = None
    busy = 0.0
    i = 0
    while i < MIN_REQUESTS or busy < args.seconds or i % len(pool):
        req = pool[i % len(pool)]
        probes.append(_probe())
        t0 = time.perf_counter()
        try:
            out = wl.run(req) if tracer is None else tracer.run(i, wl.run, req)
        except Exception as exc:  # a failed request is counted, not fatal
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        latency.append(time.perf_counter() - t0)
        busy += latency[-1]
        if out is not None:
            try:
                problems = wl.check(req, out)
                digest = wl.digest(out)
                if first_digest.setdefault(i % len(pool), digest) != digest:
                    problems.append("repeat of a request gave a different output")
                if i < len(pool):
                    records.append(wl.record(req, out))
                    digests.append(digest)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                errors[i] = "; ".join(problems)
            if i == 0:
                first_out = out
        i += 1
    probes.append(_probe())
    if tracer is not None:
        tracer.uninstall()

    failed = len(errors)
    run_problems = []
    if len(records) == len(pool) and first_out is not None:
        sim = summary(records)
        run_problems += wl.run_checks(first_out)
        record = {
            "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
            **{k: v.hex() for k, v in sorted(sim.items())},
        }
        run_problems += _check_repeatable(args.workload, args.seed, record)
    else:
        sim, record = {}, {}
        run_problems.append("a request of the first pass failed")
    for k, msg in sorted(errors.items())[:5]:
        print(f"failed request {k}: {msg}", file=sys.stderr)
    for msg in run_problems:
        print(f"failed check: {msg}", file=sys.stderr)

    # -- report ----------------------------------------------------------------
    # Each request's time at the reference host speed (see _probe).
    scaled = [
        t * PROBE_REF_S / ((probes[k] + probes[k + 1]) / 2)
        for k, t in enumerate(latency)
    ]
    values = {
        "setup_s": statistics.median(setup_times),
        "throughput_rps": len(scaled) / sum(scaled),
        "latency_p50_s": statistics.median(scaled),
        "latency_p90_s": _quantile(scaled, 0.90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **sim,
    }
    section = "end_to_end"
    if tracer is not None:
        section = "per_layer"
        # Tracing overhead: the first requests again, each run traced then
        # untraced back to back, so machine drift cancels within a pair.
        traced_s = plain_s = 0.0
        for req in pool[:OVERHEAD_REQUESTS]:
            tracer.install()
            t0 = time.perf_counter()
            tracer.run("overhead", wl.run, req)
            t1 = time.perf_counter()
            tracer.uninstall()
            wl.run(req)
            traced_s += t1 - t0
            plain_s += time.perf_counter() - t1
        large = {r for r in range(len(latency)) if getattr(pool[r % len(pool)], "large", False)}
        values = tracer.aggregate(latency, large)
        values["trace.overhead_ratio"] = traced_s / plain_s - 1.0
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl", env)

    metrics = {}
    for entry in spec[section]:
        value = values.get(entry["name"])
        if value is None or not math.isfinite(value):
            _fail(f"metric {entry['name']!r} not measured")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = failed == 0 and not run_problems
    print(
        f"summary workload={args.workload} seed={args.seed} requests={len(latency)} "
        f"pool={len(pool)} passes={len(latency) // len(pool)} busy_s={busy:.3f} "
        f"failed={failed} raw_p50_s={statistics.median(latency):.4f} "
        f"raw_p90_s={_quantile(latency, 0.90):.4f} probe_s={statistics.median(probes):.5f} "
        f"setups_s={[round(t, 4) for t in setup_times]} "
        f"raw_setups_s={[round(t, 4) for t in setup_raw]} digest={record.get('digest', '-')}",
        flush=True,
    )
    print(json.dumps({
        "correct": correct,
        "attempted": len(latency),
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
