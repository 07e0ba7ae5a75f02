"""w-window reference affinity analysis (paper Sec. II-B).

Definitions (paper Defs. 1-5), over a *trimmed* code-block trace:

* the **footprint** ``fp<a, b>`` of two occurrences is the number of
  distinct blocks in the window spanning them, endpoints inclusive;
* blocks X and Y have **w-window affinity** iff *every* occurrence of X has
  some occurrence of Y with ``fp <= w``, and vice versa;
* for a given w, blocks partition greedily into **affinity groups** in
  which every pair is w-affine (Algorithm 1); sweeping w yields the
  **affinity hierarchy** (:mod:`repro.core.hierarchy`).

Two implementations:

* :func:`affine_pairs_naive` — Algorithm 1's direct reading: per occurrence
  pair, compute the window footprint by scanning.  O(B² · occ · n); the test
  oracle.
* :class:`AffinityAnalysis` — the efficient one-pass stack simulation
  (paper's "efficient solution", Sec. II-B).  One LRU-stack pass handles
  **all** window sizes up to ``w_max`` simultaneously:

  - when block Z is accessed, the stack depth d of any block Y equals the
    footprint of the window from Y's latest occurrence to Z's — that covers
    Z's new occurrence *backward* with fp = d;
  - *forward* coverage is credited when the partner arrives: Z's arrival
    covers every still-pending occurrence O (of another block, at time t)
    that Z had not visited since t; the footprint of ``[t, now]`` is the
    number of stack entries more recent than t, read off during the same
    walk (stack order = recency order).  Only Z's **first** occurrence
    after t can be the minimal forward window, and ``t > last(Z)``
    identifies exactly those occurrences, so each (occurrence, partner)
    pair is credited at most once;
  - an occurrence is *finalized* once more than ``w_max`` distinct blocks
    have been accessed since it — no future partner can reach it within
    ``w_max`` — and its per-partner minimal footprints are folded into
    per-pair coverage histograms.

  The result answers "are X, Y w-affine?" for every ``w <= w_max`` from the
  histograms in O(1).

A ``coverage`` threshold below 1.0 relaxes "every occurrence" to "at least
this fraction of occurrences", which trades the strict definition for
robustness to profiling noise (ablated in the experiments).
"""

from __future__ import annotations

from collections import deque
from itertools import chain

import numpy as np

from ..trace.trim import trim

__all__ = ["AffinityAnalysis", "affine_pairs_naive", "window_footprint"]


def window_footprint(trace: np.ndarray, i: int, j: int) -> int:
    """``fp<trace[i], trace[j]>`` — distinct symbols in the closed window.

    Counted with a set rather than ``np.unique``: the naive oracle calls
    this per occurrence pair, and an O(n log n) sort per window made the
    oracle quadratic-with-a-sort on exactly the traces it exists to
    cross-check.  A hash-set distinct count is O(window).
    """
    lo, hi = (i, j) if i <= j else (j, i)
    return len(set(trace[lo : hi + 1].tolist()))


def affine_pairs_naive(trace: np.ndarray, w: int) -> set[tuple[int, int]]:
    """All unordered w-affine pairs, by direct application of Definition 3.

    Exponential in nothing but heavy (O(B² · occ · window)); for tests and
    tiny traces only.
    """
    t = trim(np.asarray(trace))
    n = int(t.shape[0])
    occ: dict[int, list[int]] = {}
    for i in range(n):
        occ.setdefault(int(t[i]), []).append(i)
    symbols = sorted(occ)
    pairs: set[tuple[int, int]] = set()
    for a_idx, x in enumerate(symbols):
        for y in symbols[a_idx + 1 :]:
            if _covered_naive(t, occ[x], occ[y], w) and _covered_naive(
                t, occ[y], occ[x], w
            ):
                pairs.add((x, y))
    return pairs


def _covered_naive(trace: np.ndarray, xs: list[int], ys: list[int], w: int) -> bool:
    """True if every occurrence in ``xs`` has a ``ys`` occurrence within fp <= w.

    Only the nearest ``y`` on each side can give the minimal footprint
    (windows nest, and footprint is monotone under window inclusion).
    """
    ys_arr = np.asarray(ys)
    for i in xs:
        k = int(np.searchsorted(ys_arr, i))
        candidates = []
        if k < len(ys):
            candidates.append(int(ys_arr[k]))
        if k > 0:
            candidates.append(int(ys_arr[k - 1]))
        if not any(window_footprint(trace, i, j) <= w for j in candidates):
            return False
    return True


class _Pending:
    """One not-yet-finalized occurrence."""

    __slots__ = ("time", "symbol", "record")

    def __init__(self, time: int, symbol: int):
        self.time = time
        self.symbol = symbol
        #: partner -> minimal footprint seen so far (2 .. w_max)
        self.record: dict[int, int] = {}


class AffinityAnalysis:
    """One-pass w-window affinity over a code-block trace.

    Parameters
    ----------
    trace:
        dynamic block trace (trimmed internally).
    w_max:
        largest window footprint analysed (paper uses 2..20).
    coverage:
        fraction of occurrences that must be covered for affinity
        (1.0 = the strict Definition 3).
    time_horizon:
        optional cap, in trace steps, on how long an occurrence may stay
        pending.  ``None`` is exact; a finite horizon bounds memory on
        loop-dominated traces at the cost of missing coverage through very
        long low-footprint windows (an approximation in the spirit of the
        paper's trace pruning).
    """

    def __init__(
        self,
        trace: np.ndarray,
        w_max: int = 20,
        coverage: float = 1.0,
        time_horizon: int | None = None,
    ):
        if w_max < 1:
            raise ValueError("w_max must be >= 1")
        if not 0.0 < coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        self.w_max = w_max
        self.coverage = coverage
        self.trace = trim(np.asarray(trace))
        self._n_occ: dict[int, int] = {}
        self._cov: dict[tuple[int, int], np.ndarray] = {}
        self._first_occ: dict[int, int] = {}
        self._analyze(time_horizon)

    @classmethod
    def from_precomputed(
        cls,
        trace: np.ndarray,
        *,
        w_max: int,
        coverage: float = 1.0,
        n_occ: dict[int, int],
        first_occ: dict[int, int],
        cov: dict[tuple[int, int], np.ndarray],
    ) -> "AffinityAnalysis":
        """Wrap an externally computed analysis (the vectorized kernel in
        :mod:`repro.core.fastanalysis`, or a memoized artifact) so every
        query and hierarchy consumer runs the same code path.

        The inputs must be exactly what ``_analyze`` would have produced
        for ``trace`` — the kernel parity suite pins that contract.
        """
        if w_max < 1:
            raise ValueError("w_max must be >= 1")
        if not 0.0 < coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        self = object.__new__(cls)
        self.w_max = w_max
        self.coverage = coverage
        self.trace = trim(np.asarray(trace))
        self._n_occ = {int(k): int(v) for k, v in n_occ.items()}
        self._first_occ = {int(k): int(v) for k, v in first_occ.items()}
        self._cov = {
            (int(x), int(y)): np.asarray(h, dtype=np.int64)
            for (x, y), h in cov.items()
        }
        return self

    # -- analysis ----------------------------------------------------------

    def _analyze(self, time_horizon: int | None) -> None:
        w_max = self.w_max
        trace = self.trace.tolist()
        n_occ = self._n_occ
        first_occ = self._first_occ

        # Recency list of (symbol, last_access); most recent first.  A dict
        # preserves insertion order, so re-inserting on access keeps it
        # sorted by recency with O(1) updates.
        last_access: dict[int, int] = {}
        pending: deque[_Pending] = deque()  # oldest first

        for now, z in enumerate(trace):
            n_occ[z] = n_occ.get(z, 0) + 1
            if z not in first_occ:
                first_occ[z] = now
            prev_z = last_access.get(z, -1)

            new_occ = _Pending(now, z)

            # One walk over the recency order serves both directions.  The
            # entry at walk position d (1-based, z counted as position 1)
            # has the d-th most recent last-access; every pending occurrence
            # with time in (access[d+1], access[d]] sees exactly d distinct
            # blocks up to now.
            #
            # Walk entries most-recent-first, skipping z (conceptually
            # already moved to front).
            depth = 1  # z itself
            credit_cutoff = prev_z  # only occurrences newer than this
            # Last-access times of the other blocks, most recent first.  One
            # extra entry beyond w_max disambiguates "exactly w_max" from
            # "beyond w_max" during forward crediting.
            boundary_times: list[int] = []
            for sym in reversed(last_access):
                if sym == z:
                    continue
                depth += 1
                if depth > w_max + 1:
                    break
                boundary_times.append(last_access[sym])
                if depth <= w_max:
                    # Backward coverage for z's new occurrence.
                    new_occ.record[sym] = depth

            # Forward crediting: pending occurrences newer than prev_z, i.e.
            # those for which this is z's first arrival since.  Iterate from
            # the newest pending backward; the footprint of [t, now] is
            # 1 + (number of boundary times >= t), merged in one pass since
            # both sequences descend in time.
            if pending:
                bi = 0
                n_bounds = len(boundary_times)
                for occ_obj in reversed(pending):
                    t = occ_obj.time
                    if t <= credit_cutoff:
                        break
                    while bi < n_bounds and boundary_times[bi] >= t:
                        bi += 1
                    d = 1 + bi
                    if d > w_max:
                        break
                    if occ_obj.symbol == z:
                        continue
                    rec = occ_obj.record
                    old = rec.get(z)
                    if old is None or d < old:
                        rec[z] = d

            last_access.pop(z, None)
            last_access[z] = now
            pending.append(new_occ)

            # Finalize occurrences that fell out of the footprint horizon:
            # more than w_max distinct blocks accessed since them.
            if len(last_access) > w_max:
                # Time of the (w_max+1)-th most recent distinct block.
                cutoff = _kth_most_recent(last_access, w_max + 1)
                while pending and pending[0].time <= cutoff:
                    self._finalize(pending.popleft())
            if time_horizon is not None:
                while pending and pending[0].time < now - time_horizon:
                    self._finalize(pending.popleft())

        while pending:
            self._finalize(pending.popleft())

    def _finalize(self, occ: _Pending) -> None:
        w_max = self.w_max
        cov = self._cov
        y = occ.symbol
        for partner, d in occ.record.items():
            key = (y, partner)
            hist = cov.get(key)
            if hist is None:
                hist = np.zeros(w_max + 1, dtype=np.int64)
                cov[key] = hist
            hist[d] += 1

    # -- queries -----------------------------------------------------------

    @property
    def symbols(self) -> list[int]:
        """Distinct blocks of the trimmed trace, by first occurrence."""
        return sorted(self._n_occ, key=self._first_occ.__getitem__)

    def occurrences(self, x: int) -> int:
        return self._n_occ.get(x, 0)

    def first_occurrence(self, x: int) -> int:
        return self._first_occ[x]

    def covered(self, x: int, y: int, w: int) -> int:
        """Occurrences of ``x`` whose minimal window footprint to ``y`` <= w."""
        _check_window(w)
        hist = self._cov.get((x, y))
        if hist is None:
            return 0
        w = min(w, self.w_max)
        return int(hist[: w + 1].sum())

    def is_affine(self, x: int, y: int, w: int) -> bool:
        """w-window affinity per Definition 3 (with the coverage threshold)."""
        _check_window(w)
        if w > self.w_max:
            raise ValueError(f"w={w} exceeds analysed w_max={self.w_max}")
        if x == y:
            return True
        need_x = self.coverage * self._n_occ.get(x, 0)
        need_y = self.coverage * self._n_occ.get(y, 0)
        if need_x == 0 or need_y == 0:
            return False
        return self.covered(x, y, w) >= need_x and self.covered(y, x, w) >= need_y

    def affinity_thresholds(self) -> tuple[list[int], np.ndarray]:
        """Smallest affine window of every symbol pair, as one dense matrix.

        Returns ``(symbols, T)`` with ``symbols`` in first-occurrence
        order and ``T[i, j]`` the smallest ``w`` in ``1 .. w_max`` at
        which ``is_affine(symbols[i], symbols[j], w)`` holds, or
        ``w_max + 1`` if it holds for none (the diagonal is 1).  One
        matrix answers every window: ``covered(x, y, w)`` is a prefix sum
        of a non-negative histogram, so it only grows with ``w``, and
        ``is_affine(x, y, w) == (T[i, j] <= w)`` for every ``w``.

        The histograms are folded in bounded chunks (an in-place
        ``cumsum`` of the stacked rows, compared with ``coverage * n_occ``
        exactly as :meth:`is_affine` compares them), and ``T`` is stored
        in the smallest unsigned dtype that holds ``w_max + 1`` — one
        byte per cell up to ``w_max = 254``.  That is the dominant memory
        cost of a hierarchy build: a BB-level trace of 4,491 symbols needs
        about 20 MB per matrix at one byte, against 161 MB at int64.
        """
        symbols = self.symbols
        n = len(symbols)
        none = self.w_max + 1
        # Symbol -> matrix index, by binary search over the sorted symbols.
        by_value = np.argsort(symbols)
        sorted_symbols = np.asarray(symbols, dtype=np.int64)[by_value]
        n_occ = np.fromiter((self._n_occ[s] for s in symbols), np.int64, n)
        # one_way[i, j]: smallest w at which covered(i, j, w) meets i's need.
        one_way = np.full((n, n), none, dtype=np.min_scalar_type(none))
        keys, hists = list(self._cov), list(self._cov.values())
        for lo in range(0, len(keys), _THRESHOLD_CHUNK):
            chunk = keys[lo : lo + _THRESHOLD_CHUNK]
            pairs = np.fromiter(chain.from_iterable(chunk), np.int64, 2 * len(chunk))
            rows, cols = by_value[np.searchsorted(sorted_symbols, pairs)].reshape(-1, 2).T
            covered = np.array(hists[lo : lo + _THRESHOLD_CHUNK], dtype=np.int64)
            np.cumsum(covered, axis=1, out=covered)
            need = self.coverage * n_occ[rows]
            # covered is non-decreasing in w, so the number of windows in
            # 1..w_max still short of the need is the threshold minus one.
            one_way[rows, cols] = 1 + (covered[:, 1:] < need[:, None]).sum(axis=1)
            del covered
        thresholds = np.maximum(one_way, one_way.T)
        np.fill_diagonal(thresholds, 1)
        return symbols, thresholds

    def affine_pairs(self, w: int) -> set[tuple[int, int]]:
        """All unordered affine pairs at window size ``w``."""
        _check_window(w)
        if w > self.w_max:
            raise ValueError(f"w={w} exceeds analysed w_max={self.w_max}")
        symbols, thresholds = self.affinity_thresholds()
        pairs: set[tuple[int, int]] = set()
        for i, j in zip(*np.nonzero(thresholds <= w)):
            x, y = symbols[i], symbols[j]
            if x < y:
                pairs.add((x, y))
        return pairs


#: histogram rows stacked per chunk by :meth:`AffinityAnalysis.affinity_thresholds`,
#: bounding its int64 temporary at ``_THRESHOLD_CHUNK * (w_max + 1) * 8`` bytes.
_THRESHOLD_CHUNK = 1 << 14


def _check_window(w: int) -> None:
    """Reject windows below 1: a footprint counts at least the block itself,
    and a negative ``w`` would slice the histogram from its end."""
    if w < 1:
        raise ValueError(f"window size w={w} must be >= 1")


def _kth_most_recent(last_access: dict[int, int], k: int) -> int:
    """Last-access time of the k-th most recent distinct symbol."""
    it = reversed(last_access.values())
    t = -1
    for _ in range(k):
        t = next(it)
    return t
