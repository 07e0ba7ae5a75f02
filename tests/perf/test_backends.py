"""Kernel-backend registry tests (repro.perf.backends).

The contract under test: every registered tier — ``scalar``, ``numpy``,
and (when numba is installed) ``compiled`` — produces **bit-identical**
histograms, affinity coverage tables, and TRGs; resolution degrades
``compiled -> numpy -> scalar`` under ``strict=False``; and backend
choice never enters memo keys, so a memo populated by one tier is a
cache hit for every other.

The ``compiled`` tier's *logic* is pinned here on every machine: its
kernel bodies are plain Python until numba decorates them, so the
parity matrix runs them undecorated even where the tier itself is not
registered.  The CI ``[compiled]`` job proves the same functions JIT.
"""

import numpy as np
import pytest

from repro.perf._numba_kernels import HAVE_NUMBA
from repro.perf.backends import (
    _COMPILED,
    _SCALAR,
    RESOLUTION_ORDER,
    available_backends,
    default_backend,
    resolve_backend,
)

ALL_TIERS = ("scalar", "numpy", "compiled")


def _random_trace(rng, n_syms_hi=60, n_hi=900):
    return rng.integers(0, rng.integers(2, n_syms_hi), rng.integers(1, n_hi))


# -- registry + resolution ----------------------------------------------------


def test_registry_contents():
    names = available_backends()
    assert "numpy" in names and "scalar" in names
    assert names.index("numpy") < names.index("scalar")  # fastest first
    assert ("compiled" in names) == HAVE_NUMBA
    assert tuple(names) == tuple(n for n in RESOLUTION_ORDER if n in names)


def test_default_is_fastest_available():
    assert default_backend() == available_backends()[0]
    assert resolve_backend(None).name == default_backend()
    assert resolve_backend(None, strict=False).name == default_backend()


def test_unknown_backend_always_raises():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend("magic")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend("magic", strict=False)


def test_known_names_resolve_to_themselves_when_available():
    for name in available_backends():
        assert resolve_backend(name).name == name
        assert resolve_backend(name, strict=False).name == name


@pytest.mark.skipif(HAVE_NUMBA, reason="compiled tier is installed here")
def test_unavailable_compiled_strict_vs_degrade():
    with pytest.raises(ValueError, match="not available"):
        resolve_backend("compiled")
    # strict=False walks down the resolution order instead — the worker
    # inheritance path (compiled parent, numba-less worker).
    assert resolve_backend("compiled", strict=False).name == "numpy"


# -- cross-backend parity matrix ----------------------------------------------

def _backend_under_test(name):
    """The tier to exercise, or a skip for a genuinely absent one.

    ``compiled`` is special-cased: when numba is missing its kernel
    bodies still run as plain Python, so its logic is tested everywhere
    via the unregistered ``_COMPILED`` backend object.
    """
    if name in available_backends():
        return resolve_backend(name)
    if name == "compiled":
        return _COMPILED
    pytest.skip(f"backend {name!r} unavailable")  # pragma: no cover


@pytest.mark.parametrize("name", ALL_TIERS)
def test_histogram_parity_matrix(name):
    backend = _backend_under_test(name)
    rng = np.random.default_rng(2014_0731)
    for trial in range(8):
        n_sets = int(rng.choice([1, 2, 8, 128]))
        lines = rng.integers(0, rng.integers(4, 4000), rng.integers(0, 2500))
        assert backend.histogram(lines, n_sets) == _SCALAR.histogram(
            lines, n_sets
        ), (name, trial, n_sets)


@pytest.mark.parametrize("name", ALL_TIERS)
def test_affinity_parity_matrix(name):
    backend = _backend_under_test(name)
    rng = np.random.default_rng(51)
    for trial in range(6):
        trace = _random_trace(rng)
        w_max = int(rng.integers(1, 9))
        horizon = None if rng.random() < 0.5 else int(rng.integers(0, 60))
        got = backend.affinity(trace, w_max=w_max, time_horizon=horizon)
        want = _SCALAR.affinity(trace, w_max=w_max, time_horizon=horizon)
        assert got == want, (name, trial, w_max, horizon)


@pytest.mark.parametrize("name", ALL_TIERS)
def test_trg_parity_matrix(name):
    backend = _backend_under_test(name)
    rng = np.random.default_rng(77)
    for trial in range(6):
        trace = _random_trace(rng)
        window = None if rng.random() < 0.4 else int(rng.integers(1, 24))
        got = backend.trg(trace, window)
        want = _SCALAR.trg(trace, window)
        assert got.weights == want.weights, (name, trial, window)
        assert got.nodes == want.nodes, (name, trial, window)


# -- memo keys are backend-free -----------------------------------------------


def test_cross_backend_memo_hits(tmp_path):
    """A memo populated by one tier replays for every other tier.

    This pins the design decision that backend choice does NOT enter
    memo keys: results are bit-identical by contract, so keying on the
    tier would only fragment the cache.
    """
    from repro.perf.memo import SimMemo

    rng = np.random.default_rng(13)
    stream = rng.integers(0, 700, 3000)
    trace = _random_trace(rng)

    writer = SimMemo(tmp_path)
    hist = writer.histogram(stream, 128, backend=resolve_backend("numpy"))
    covg = writer.affinity_coverage(
        trace, w_max=4, backend=resolve_backend("numpy")
    )
    trg = writer.trg(trace, window_blocks=16, backend=resolve_backend("numpy"))
    assert writer.misses == 3

    # A different tier against the same directory: all hits, no kernels
    # run (the scalar oracle would be the one to notice).
    for other in (_SCALAR, _COMPILED):
        reader = SimMemo(tmp_path)
        assert reader.histogram(stream, 128, backend=other) == hist
        assert reader.affinity_coverage(trace, w_max=4, backend=other) == covg
        replay = reader.trg(trace, window_blocks=16, backend=other)
        assert replay.weights == trg.weights and replay.nodes == trg.nodes
        assert reader.misses == 0 and reader.hits == 3


# -- worker inheritance -------------------------------------------------------


def test_cell_pool_degrades_requested_tier(tmp_path):
    """A pool asked for ``compiled`` on a numba-less machine degrades its
    workers to ``numpy`` and still matches the scalar oracle."""
    from repro.perf.parallel import CellPool, compute_cells

    rng = np.random.default_rng(5)
    streams = [rng.integers(0, 900, 2000) for _ in range(4)]
    traces = [_random_trace(rng) for _ in range(2)]
    cells = [("histogram", s, 128) for s in streams]
    acells = [("affinity", traces[0], 4, None), ("trg", traces[1], 12)]
    with CellPool(2, kernel_backend="compiled") as pool:
        hists = compute_cells(cells, pool=pool)
        artifacts = compute_cells(acells, pool=pool)
    for stream, hist in zip(streams, hists):
        assert hist == _SCALAR.histogram(stream, 128)
    assert artifacts[0] == _SCALAR.affinity(traces[0], w_max=4)
    assert artifacts[1] == _SCALAR.trg(traces[1], 12)


def test_lab_threads_backend_through_spawn_config():
    from repro.experiments.pipeline import Lab

    lab = Lab(scale=0.05, kernel_backend="scalar")
    cfg = lab.spawn_config()
    assert cfg["kernel_backend"] == "scalar"
    # The lab's field is the one copy of the tier; the config is not
    # rewritten (every analysis the lab runs reads the lab's tier).
    assert lab.optimizer_config.kernel_backend is None
    # A worker reconstructs an identical lab from the picklable config.
    clone = Lab(**cfg)
    assert clone.kernel_backend == "scalar"
    # Requesting an uninstalled tier must not blow up a worker: the lab
    # resolves strict=False and degrades.
    degraded = Lab(scale=0.05, kernel_backend="compiled")
    assert degraded._backend.name == default_backend() or HAVE_NUMBA
