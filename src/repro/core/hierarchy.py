"""Affinity hierarchy construction and layout emission (paper Sec. II-B).

Sweeping the window size w from small to large yields a hierarchy of
affinity partitions (paper Def. 5 / Fig. 1): at the bottom every block is
its own group; as w grows, groups merge.  Lower-level (smaller-w) groups
take precedence — once formed, a group is treated as an atomic unit when
larger windows are considered, exactly the "incremental" reading of the
paper's Algorithm 1.

The result is a dendrogram (:class:`AffinityNode` forest).  The optimized
code sequence is its bottom-up traversal: children are kept in order of
their earliest first occurrence in the trace, and the leaves are emitted by
DFS — for the paper's Fig. 1 trace this reproduces the published sequence
``B1 B4 B2 B3 B5``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .affinity import AffinityAnalysis

__all__ = [
    "AffinityNode",
    "build_hierarchy",
    "build_hierarchy_reference",
    "layout_order",
    "hierarchy_levels",
]


@dataclass
class AffinityNode:
    """A node of the affinity dendrogram.

    Leaves carry a single block (``symbol``); internal nodes carry the
    window size ``w`` at which their children merged.
    """

    #: window size that formed this node (0 for leaves).
    w: int
    children: list["AffinityNode"] = field(default_factory=list)
    symbol: Optional[int] = None
    #: earliest first-occurrence among member blocks (ordering key).
    first_occ: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.symbol is not None

    def members(self) -> list[int]:
        """All block symbols under this node, in emission order."""
        if self.is_leaf:
            return [self.symbol]  # type: ignore[list-item]
        out: list[int] = []
        for child in self.children:
            out.extend(child.members())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_leaf:
            return f"Leaf({self.symbol})"
        return f"Node(w={self.w}, members={self.members()})"


def build_hierarchy(
    analysis: AffinityAnalysis, w_values: Optional[Sequence[int]] = None
) -> list[AffinityNode]:
    """Build the affinity dendrogram forest for the analysed trace.

    ``w_values`` defaults to ``2 .. analysis.w_max`` (w=1 never groups
    anything in a trimmed trace: two blocks in a window of footprint 1 is
    impossible).  Values must be ascending and within ``1 .. w_max``.

    Greedy unit merging with lower-level precedence: at each w, existing
    units (initially singleton leaves, ordered by first occurrence) are
    scanned in order; each unit joins the first newly-formed group whose
    every member block is pairwise w-affine with every block of the unit,
    or starts a new group.  Groups with a single unit are dissolved back to
    the unit (no spurious unary nodes).

    Computed as complete linkage over one dense matrix: ``unit_w[a, b]``
    is the smallest window at which every block of unit ``a`` is affine
    with every block of unit ``b`` — the max of
    :meth:`~AffinityAnalysis.affinity_thresholds` over member pairs — so
    the all-pairs test of a unit against a group is one comparison with
    the group's running-max row.  Units whose smallest off-diagonal entry
    exceeds w cannot merge and are left out of the scan, so a level where
    no unit can merge is skipped.  The forest is identical to
    :func:`build_hierarchy_reference`, the per-pair loop kept as oracle.
    """
    w_list = _checked_w_values(analysis, w_values)
    symbols, unit_w = analysis.affinity_thresholds()
    units: list[AffinityNode] = [
        AffinityNode(w=0, symbol=s, first_occ=analysis.first_occurrence(s))
        for s in symbols
    ]
    # The diagonal takes the no-affinity value, so a unit is affine with
    # some other unit at w iff its row minimum is <= w (a merged unit's
    # diagonal is the max over its members' diagonals).
    np.fill_diagonal(unit_w, analysis.w_max + 1)

    for w in w_list:
        if len(units) <= 1:
            break
        # Units with no partner at w stay alone, and no group they start
        # can accept another unit; only the others are scanned.
        active = np.flatnonzero(unit_w.min(axis=1) <= w)
        if not active.size:
            continue
        active_w = unit_w[np.ix_(active, active)]
        # group_w[g]: elementwise max of active_w rows over group g's units.
        group_w = np.empty_like(active_w)
        groups: list[list[int]] = []
        for p, u in enumerate(active.tolist()):
            fits = np.flatnonzero(group_w[: len(groups), p] <= w)
            if fits.size:
                g = int(fits[0])
                np.maximum(group_w[g], active_w[p], out=group_w[g])
                groups[g].append(u)
            else:
                group_w[len(groups)] = active_w[p]
                groups.append([u])
        # Every group sits where its first unit did: that is the scan order
        # in which the per-pair loop creates groups.
        lone = np.ones(len(units), dtype=bool)
        lone[active] = False
        groups += [[u] for u in np.flatnonzero(lone).tolist()]
        groups.sort(key=lambda members: members[0])
        order = [u for members in groups for u in members]
        starts = np.cumsum([0] + [len(members) for members in groups[:-1]])
        rows = np.maximum.reduceat(unit_w[order], starts, axis=0)
        unit_w = np.maximum.reduceat(rows[:, order], starts, axis=1)
        new_units: list[AffinityNode] = []
        for members in groups:
            if len(members) == 1:
                new_units.append(units[members[0]])
            else:
                children = sorted((units[u] for u in members), key=lambda n: n.first_occ)
                new_units.append(
                    AffinityNode(w=w, children=children, first_occ=children[0].first_occ)
                )
        units = new_units

    units.sort(key=lambda node: node.first_occ)
    return units


def build_hierarchy_reference(
    analysis: AffinityAnalysis, w_values: Optional[Sequence[int]] = None
) -> list[AffinityNode]:
    """:func:`build_hierarchy` by its direct reading: one ``is_affine``
    query per block pair, for every unit x group x member combination at
    every w.  The parity oracle of the matrix formulation (like
    :func:`~repro.core.affinity.affine_pairs_naive` for the analysis);
    no production path calls it.
    """
    w_list = _checked_w_values(analysis, w_values)

    units: list[AffinityNode] = [
        AffinityNode(w=0, symbol=s, first_occ=analysis.first_occurrence(s))
        for s in analysis.symbols
    ]

    for w in w_list:
        if len(units) <= 1:
            break
        groups: list[list[AffinityNode]] = []
        for unit in units:
            unit_members = unit.members()
            placed = False
            for group in groups:
                if all(
                    analysis.is_affine(a, b, w)
                    for node in group
                    for a in node.members()
                    for b in unit_members
                ):
                    group.append(unit)
                    placed = True
                    break
            if not placed:
                groups.append([unit])
        new_units: list[AffinityNode] = []
        for group in groups:
            if len(group) == 1:
                new_units.append(group[0])
            else:
                group.sort(key=lambda node: node.first_occ)
                new_units.append(
                    AffinityNode(
                        w=w, children=group, first_occ=group[0].first_occ
                    )
                )
        units = new_units

    units.sort(key=lambda node: node.first_occ)
    return units


def _checked_w_values(
    analysis: AffinityAnalysis, w_values: Optional[Sequence[int]]
) -> list[int]:
    if w_values is None:
        w_values = range(2, analysis.w_max + 1)
    w_list = list(w_values)
    if any(b <= a for a, b in zip(w_list, w_list[1:])):
        raise ValueError("w_values must be strictly ascending")
    if w_list and w_list[0] < 1:
        raise ValueError("w_values must be >= 1")
    if w_list and w_list[-1] > analysis.w_max:
        raise ValueError("w_values exceed the analysed w_max")
    return w_list


def layout_order(forest: Iterable[AffinityNode]) -> list[int]:
    """Optimized block sequence: bottom-up (DFS) traversal of the forest."""
    out: list[int] = []
    for node in forest:
        out.extend(node.members())
    return out


def hierarchy_levels(forest: Iterable[AffinityNode]) -> dict[int, list[list[int]]]:
    """Partition snapshots per w, for inspection and the Fig. 1 test.

    Returns ``{w: [group members ...]}`` for every w at which at least one
    merge happened, reconstructed from the dendrogram.
    """
    nodes: list[AffinityNode] = []

    def collect(n: AffinityNode) -> None:
        nodes.append(n)
        for child in n.children:
            collect(child)

    roots = list(forest)
    for r in roots:
        collect(r)
    ws = sorted({n.w for n in nodes if not n.is_leaf})
    levels: dict[int, list[list[int]]] = {}
    for w in ws:
        groups: list[list[int]] = []

        def cut(n: AffinityNode) -> None:
            if n.is_leaf or n.w > w:
                if n.is_leaf:
                    groups.append([n.symbol])  # type: ignore[list-item]
                else:
                    for child in n.children:
                        cut(child)
            else:
                groups.append(n.members())

        for r in roots:
            cut(r)
        levels[w] = groups
    return levels
