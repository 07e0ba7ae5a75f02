"""The four code-layout optimizers (paper Sec. II-F).

Crossing two locality models with two granularities yields the paper's four
optimizers:

====================  =====================  ==========================
name                  model                  transformation
====================  =====================  ==========================
``function-affinity``  w-window affinity      function reordering
``bb-affinity``        w-window affinity      inter-procedural BB reorder
``function-trg``       TRG + reduction        function reordering
``bb-trg``             TRG + reduction        inter-procedural BB reorder
====================  =====================  ==========================

Each optimizer consumes an instrumented *test-input* trace
(:class:`~repro.engine.instrument.TraceBundle`) and the module, and emits a
:class:`~repro.ir.transforms.LayoutResult`.  The shared pipeline is: trim
the trace (Def. 1), prune to the most popular symbols (Sec. II-F), run the
model, expand the symbol order into a full layout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..cache.config import PAPER_L1I, CacheConfig
from ..engine.instrument import TraceBundle
from ..ir.module import Module
from ..ir.transforms import LayoutResult
from ..trace.prune import prune_top_k
from ..trace.trim import trim
from .affinity import AffinityAnalysis
from .fastanalysis import analysis_from_coverage
from .hierarchy import build_hierarchy, layout_order
from .layout import Granularity, apply_symbol_order
from .trg import trg_window_blocks, uniform_block_slots
from .trg_reduce import reduce_trg

__all__ = [
    "Model",
    "OptimizerConfig",
    "analysis_cell",
    "optimize",
    "function_affinity",
    "bb_affinity",
    "function_trg",
    "bb_trg",
    "OPTIMIZERS",
]


class Model:
    """Locality model names.

    ``AFFINITY`` and ``TRG`` are the paper's two models; ``PH`` (Pettis-
    Hansen chain merging) and ``POPULARITY`` (hot-first frequency sort)
    are comparison baselines used by the extension experiments.
    """

    AFFINITY = "affinity"
    TRG = "trg"
    PH = "pettis-hansen"
    POPULARITY = "popularity"


@dataclass(frozen=True)
class OptimizerConfig:
    """Tunables shared by all four optimizers.

    Defaults follow the paper: affinity windows 2..20, strict coverage,
    top-10,000-block pruning, the 32KB/4-way/64B cache, and the
    Gloy-Smith window factor of 2.
    """

    #: affinity window range (paper: "we choose w between 2 and 20").
    w_min: int = 2
    w_max: int = 20
    #: fraction of occurrences that must be covered (1.0 = Definition 3).
    coverage: float = 1.0
    #: optional pending-occurrence time horizon for the affinity pass.
    affinity_time_horizon: Optional[int] = None
    #: popularity pruning: keep this many most-frequent symbols.
    prune_k: int = 10_000
    #: cache geometry used by the TRG slot computation.
    cache: CacheConfig = field(default=PAPER_L1I)
    #: TRG examines a window of ``trg_window_factor * cache size``.
    trg_window_factor: float = 2.0
    #: kernel backend tier for the locality models (``scalar`` — the
    #: :class:`AffinityAnalysis` / :func:`~repro.core.trg.build_trg`
    #: oracles — or ``numpy`` / ``compiled``; see
    #: :mod:`repro.perf.backends`).  None
    #: resolves to the fastest tier available *where the analysis runs*
    #: — a worker without numba degrades a ``compiled`` request to
    #: ``numpy`` with bit-identical results.
    kernel_backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.w_min < 1:
            raise ValueError(f"w_min={self.w_min} must be >= 1")

    def w_values(self) -> range:
        return range(self.w_min, self.w_max + 1)


def _prepare_trace(
    bundle: TraceBundle, granularity: Granularity, config: OptimizerConfig
) -> np.ndarray:
    raw = (
        bundle.func_trace
        if granularity is Granularity.FUNCTION
        else bundle.bb_trace
    )
    trimmed = trim(raw)
    return prune_top_k(trimmed, config.prune_k).trace


def _uniform_size(
    module: Module, bundle: TraceBundle, granularity: Granularity
) -> int:
    """The uniform code-block size S for the TRG slot computation.

    The paper assumes one size for every function/basic block because its
    compiler sees IR, not binaries; we take the mean encoded size at the
    chosen granularity, which keeps S faithful to the program at hand.
    """
    if granularity is Granularity.FUNCTION:
        sizes = [f.size_bytes for f in module.functions]
    else:
        sizes = module.block_sizes()
    return max(1, int(round(float(np.mean(sizes)))))


def _note_analysis(
    stats: Optional[dict], *, accesses: int, seconds: float, fresh: bool
) -> None:
    """Fold one model-analysis consumption into a caller's counter dict.

    ``cells`` counts every analysis an optimizer consumed; the
    passes/accesses/seconds throughput triple only advances when the
    analysis was actually (re)computed, and ``memo_hits`` when a memo
    replayed it.
    """
    if stats is None:
        return
    stats["analysis_cells"] = stats.get("analysis_cells", 0) + 1
    if fresh:
        stats["analysis_passes"] = stats.get("analysis_passes", 0) + 1
        stats["analysis_accesses"] = stats.get("analysis_accesses", 0) + accesses
        stats["analysis_seconds"] = stats.get("analysis_seconds", 0.0) + seconds
    else:
        stats["analysis_memo_hits"] = stats.get("analysis_memo_hits", 0) + 1


def _affinity_analysis(
    trace: np.ndarray, config: OptimizerConfig, memo, stats: Optional[dict]
) -> AffinityAnalysis:
    """The affinity model, through the config's kernel tier and the memo."""
    from ..perf.backends import resolve_backend

    backend = resolve_backend(config.kernel_backend, strict=False)
    start = time.perf_counter()
    if memo is not None:
        misses_before = memo.misses
        covg = memo.affinity_coverage(
            trace,
            w_max=config.w_max,
            time_horizon=config.affinity_time_horizon,
            backend=backend,
        )
        fresh = memo.misses > misses_before
    else:
        covg = backend.affinity(
            trace, w_max=config.w_max, time_horizon=config.affinity_time_horizon
        )
        fresh = True
    _note_analysis(
        stats,
        accesses=int(trace.shape[0]),
        seconds=time.perf_counter() - start,
        fresh=fresh,
    )
    return analysis_from_coverage(trace, covg, coverage=config.coverage)


def _trg_analysis(
    trace: np.ndarray, window: int, config: OptimizerConfig, memo, stats
):
    """The TRG model, through the config's kernel tier and the memo."""
    from ..perf.backends import resolve_backend

    backend = resolve_backend(config.kernel_backend, strict=False)
    start = time.perf_counter()
    if memo is not None:
        misses_before = memo.misses
        trg = memo.trg(trace, window_blocks=window, backend=backend)
        fresh = memo.misses > misses_before
    else:
        trg = backend.trg(trace, window_blocks=window)
        fresh = True
    _note_analysis(
        stats,
        accesses=int(trace.shape[0]),
        seconds=time.perf_counter() - start,
        fresh=fresh,
    )
    return trg


def analysis_cell(
    module: Module,
    bundle: TraceBundle,
    layout_name: str,
    config: OptimizerConfig = OptimizerConfig(),
) -> Optional[tuple]:
    """The kernel-analysis work item ``optimize()`` would need for one of
    the four model-driven optimizers: ``("affinity", trace, w_max,
    time_horizon)`` or ``("trg", trace, window_blocks)``.

    ``None`` for layouts without a precomputable model analysis.  Used by
    :meth:`repro.experiments.pipeline.Lab.precompute_layouts` and
    :func:`repro.perf.parallel.analysis_cells` to fan the expensive model
    passes across workers before the (serial, memo-hitting) layout
    builds.
    """
    spec = _OPTIMIZER_SPECS.get(layout_name)
    if spec is None:
        return None
    granularity, model = spec
    trace = _prepare_trace(bundle, granularity, config)
    if model == Model.AFFINITY:
        return ("affinity", trace, config.w_max, config.affinity_time_horizon)
    size = _uniform_size(module, bundle, granularity)
    window = trg_window_blocks(config.cache, size, config.trg_window_factor)
    return ("trg", trace, window)


def optimize(
    module: Module,
    bundle: TraceBundle,
    granularity: Granularity,
    model: str,
    config: OptimizerConfig = OptimizerConfig(),
    *,
    memo=None,
    stats: Optional[dict] = None,
) -> LayoutResult:
    """Run one of the four optimizers and return the new layout.

    ``memo`` (a :class:`repro.perf.memo.SimMemo`) replays identical
    model analyses from the content-addressed cache; ``stats`` collects
    ``analysis_*`` throughput counters.  Neither ever changes the
    produced layout — every kernel tier is parity-gated bit-identical
    to the scalar models.
    """
    trace = _prepare_trace(bundle, granularity, config)
    if model == Model.AFFINITY:
        analysis = _affinity_analysis(trace, config, memo, stats)
        forest = build_hierarchy(analysis, config.w_values())
        order = layout_order(forest)
        note = f"affinity(w={config.w_min}..{config.w_max}, cov={config.coverage})"
    elif model == Model.TRG:
        size = _uniform_size(module, bundle, granularity)
        window = trg_window_blocks(config.cache, size, config.trg_window_factor)
        slots = uniform_block_slots(config.cache, size)
        trg = _trg_analysis(trace, window, config, memo, stats)
        order = reduce_trg(trg, slots).order
        note = f"trg(window={window} blocks, slots={slots}, S={size}B)"
    elif model == Model.PH:
        from .pettis_hansen import pettis_hansen_order

        order = pettis_hansen_order(trace)
        note = "pettis-hansen(chain merge on transition graph)"
    elif model == Model.POPULARITY:
        from ..trace.prune import popularity

        symbols, _counts = popularity(trace)
        order = [int(s) for s in symbols]
        note = "popularity(hot-first frequency sort)"
    else:
        raise ValueError(f"unknown model {model!r}")
    return apply_symbol_order(module, bundle, order, granularity, note=note)


def function_affinity(
    module: Module,
    bundle: TraceBundle,
    config: OptimizerConfig = OptimizerConfig(),
    *,
    memo=None,
    stats: Optional[dict] = None,
) -> LayoutResult:
    """Function reordering driven by w-window affinity."""
    return optimize(
        module, bundle, Granularity.FUNCTION, Model.AFFINITY, config,
        memo=memo, stats=stats,
    )


def bb_affinity(
    module: Module,
    bundle: TraceBundle,
    config: OptimizerConfig = OptimizerConfig(),
    *,
    memo=None,
    stats: Optional[dict] = None,
) -> LayoutResult:
    """Inter-procedural basic-block reordering driven by w-window affinity."""
    return optimize(
        module, bundle, Granularity.BASIC_BLOCK, Model.AFFINITY, config,
        memo=memo, stats=stats,
    )


def function_trg(
    module: Module,
    bundle: TraceBundle,
    config: OptimizerConfig = OptimizerConfig(),
    *,
    memo=None,
    stats: Optional[dict] = None,
) -> LayoutResult:
    """Function reordering driven by TRG reduction."""
    return optimize(
        module, bundle, Granularity.FUNCTION, Model.TRG, config,
        memo=memo, stats=stats,
    )


def bb_trg(
    module: Module,
    bundle: TraceBundle,
    config: OptimizerConfig = OptimizerConfig(),
    *,
    memo=None,
    stats: Optional[dict] = None,
) -> LayoutResult:
    """Inter-procedural basic-block reordering driven by TRG reduction."""
    return optimize(
        module, bundle, Granularity.BASIC_BLOCK, Model.TRG, config,
        memo=memo, stats=stats,
    )


#: Optimizer registry, keyed by the names used throughout the evaluation.
OPTIMIZERS: dict[str, Callable[..., LayoutResult]] = {
    "function-affinity": function_affinity,
    "bb-affinity": bb_affinity,
    "function-trg": function_trg,
    "bb-trg": bb_trg,
}

#: (granularity, model) behind each of the four optimizers — the basis of
#: :func:`analysis_cell`'s precomputation contract.
_OPTIMIZER_SPECS: dict[str, tuple[Granularity, str]] = {
    "function-affinity": (Granularity.FUNCTION, Model.AFFINITY),
    "bb-affinity": (Granularity.BASIC_BLOCK, Model.AFFINITY),
    "function-trg": (Granularity.FUNCTION, Model.TRG),
    "bb-trg": (Granularity.BASIC_BLOCK, Model.TRG),
}


def _comparator(granularity: Granularity, model: str) -> Callable[..., LayoutResult]:
    def run(
        module: Module,
        bundle: TraceBundle,
        config: OptimizerConfig = OptimizerConfig(),
        *,
        memo=None,
        stats: Optional[dict] = None,
    ) -> LayoutResult:
        return optimize(
            module, bundle, granularity, model, config, memo=memo, stats=stats
        )

    return run


#: Comparison baselines (not part of the paper's four optimizers): the
#: classic Pettis-Hansen ordering and a naive hot-first frequency sort,
#: at both granularities.  Used by the extension experiments to locate the
#: paper's models against prior and trivial art.
COMPARATORS: dict[str, Callable[..., LayoutResult]] = {
    "function-ph": _comparator(Granularity.FUNCTION, Model.PH),
    "bb-ph": _comparator(Granularity.BASIC_BLOCK, Model.PH),
    "function-popularity": _comparator(Granularity.FUNCTION, Model.POPULARITY),
    "bb-popularity": _comparator(Granularity.BASIC_BLOCK, Model.POPULARITY),
}


def _register_extras() -> None:
    from .coloring import color_functions
    from .splitting import hot_cold_split

    COMPARATORS["hotcold-split"] = hot_cold_split
    COMPARATORS["function-coloring"] = color_functions


_register_extras()
