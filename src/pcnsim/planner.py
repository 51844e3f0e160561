"""Capacity redistribution over a fixed topology, preserving total capacity."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import ChannelGraph
from .paths import BetweennessMap
from .results import read_csv

MIN_CAPACITY = 2  # per-side balance >= 1, so no edge is born depleted


@dataclass(frozen=True)
class CapacityPlan:
    """New per-edge capacities under one redistribution strategy."""

    new_capacity: list[int]
    strategy: str
    total_before: int
    total_after: int

    def __post_init__(self):
        if self.total_after != self.total_before:
            raise ValueError(
                f"plan does not conserve capacity: {self.total_before} -> {self.total_after}"
            )


def redistribute_uniform(g: ChannelGraph) -> CapacityPlan:
    """Spread the total evenly: the equal-weight case of ``_apportion``, so
    each edge gets total // m and the remainder goes to the smallest ids."""
    return _apportion(g, [1] * g.edge_count, "uniform")


def redistribute_xi_optimized(g: ChannelGraph, bmap: BetweennessMap) -> CapacityPlan:
    """Reallocate so the ratio k_e²/g(e) is (nearly) equal across edges:
    ``_apportion`` by weight sqrt(g(e)), each float root read as an exact
    integer on one power-of-two scale.  Raises ValueError unless bmap holds
    one finite, nonnegative value per edge, not all of them 0."""
    values = bmap.values
    if len(values) != g.edge_count:
        raise ValueError(f"the betweenness map has {len(values)} values for {g.edge_count} "
                         f"edges: edge {min(len(values), g.edge_count)} has no match")
    for eid, v in enumerate(values):
        if not 0 <= v < math.inf:
            raise ValueError(f"edge {eid} has betweenness {v!r}, not a finite value >= 0")
    ratios = [math.sqrt(v).as_integer_ratio() for v in values]
    scale = max((q for _, q in ratios), default=1)  # each q is a power of two
    return _apportion(g, [p * (scale // q) for p, q in ratios], "xi_optimized")


def _apportion(g: ChannelGraph, weights: list[int], strategy: str) -> CapacityPlan:
    """Largest-remainder apportionment of g's total capacity by integer weight.

    Targets are budget·w/Σw over the unclamped edges.  Lightest first, an edge
    whose target is below MIN_CAPACITY (as at weight 0) is clamped to it,
    which only raises the others' threshold.  The rest get their targets'
    integer parts; the spare units go by largest remainder, ties to smaller ids.
    """
    m, total = g.edge_count, g.total_capacity()
    _check_total(total, m)
    budget, denom = total, sum(weights)
    if denom == 0:
        raise ValueError("every edge has zero betweenness; nothing to optimize")
    clamped = set()
    for eid in sorted(range(m), key=weights.__getitem__):
        if budget * weights[eid] >= MIN_CAPACITY * denom:
            break  # reached by the last edge at the latest, as total >= MIN_CAPACITY·m
        clamped.add(eid)
        budget -= MIN_CAPACITY
        denom -= weights[eid]
    caps = [MIN_CAPACITY] * m
    rems = {}
    for eid in range(m):
        if eid not in clamped:
            caps[eid], rems[eid] = divmod(budget * weights[eid], denom)
    for eid in sorted(rems, key=rems.__getitem__, reverse=True)[:total - sum(caps)]:
        caps[eid] += 1  # stable sort: equal remainders keep ascending ids
    return CapacityPlan(caps, strategy, total, sum(caps))


def _check_total(total: int, m: int) -> None:
    if m == 0:
        raise ValueError("the graph has no channels to redistribute")
    if total < MIN_CAPACITY * m:
        raise ValueError(
            f"total capacity {total} cannot give every one of {m} edges capacity >= {MIN_CAPACITY}"
        )


def apply_plan(g: ChannelGraph, plan: CapacityPlan) -> ChannelGraph:
    return g.with_capacities(plan.new_capacity)


def plan_rows(g: ChannelGraph, bmap: BetweennessMap, plan: CapacityPlan):
    """Rows for the plan CSV export."""
    for eid, (old, new) in enumerate(zip(g.capacity.tolist(), plan.new_capacity)):
        k_new = new // 2
        g_e = bmap.values[eid]
        ratio = (k_new * k_new) / g_e if g_e > 0 else math.inf
        yield eid, old, new, g_e, ratio


PLAN_COLUMNS = ["edge_id", "old_capacity", "new_capacity", "betweenness", "new_ratio"]


def load_plan_csv(path, g: ChannelGraph) -> list[int]:
    """Read back a plan CSV made for g into a per-edge capacity list (by edge_id).

    Edge ids must be 0..m-1, each once, with m g's edge count, and every
    row's ``old_capacity`` must be g's capacity of that edge.  Raises
    ValueError otherwise.
    """
    meta, columns, rows = read_csv(path)
    need = ("edge_id", "old_capacity", "new_capacity")
    missing = [c for c in need if c not in columns]
    if missing:
        raise ValueError(f"no {' or '.join(missing)} column: a plan needs "
                         f"{', '.join(need)}")
    idx_eid, idx_old, idx_new = map(columns.index, need)
    caps: dict[int, tuple[int, int]] = {}
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row {','.join(row)!r} has {len(row)} fields, "
                             f"the header {len(columns)}")
        eid = int(row[idx_eid])
        if eid in caps:
            raise ValueError(f"edge_id {eid} appears twice")
        caps[eid] = (int(row[idx_old]), int(row[idx_new]))
    m = g.edge_count
    if sorted(caps) != list(range(m)):
        raise ValueError(f"edge ids are not exactly 0..{m - 1}")
    for eid, cap in enumerate(g.capacity.tolist()):
        if caps[eid][0] != cap:
            raise ValueError(f"plan is for another graph: edge {eid} has old_capacity "
                             f"{caps[eid][0]}, the graph has {cap}")
    return [caps[eid][1] for eid in range(m)]
