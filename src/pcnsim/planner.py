"""Capacity redistribution over a fixed topology, preserving total capacity."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import ChannelGraph
from .paths import BetweennessMap

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
    """Spread the total evenly: base = total // m, remainder one unit at a time
    to edges in ascending edge-id order."""
    m = g.edge_count
    total = g.total_capacity()
    _check_total(total, m)
    base, remainder = divmod(total, m)
    caps = [base + 1 if eid < remainder else base for eid in range(m)]
    return CapacityPlan(caps, "uniform", total, sum(caps))


def redistribute_xi_optimized(g: ChannelGraph, bmap: BetweennessMap) -> CapacityPlan:
    """Reallocate so the ratio k_e²/g(e) is (nearly) equal across edges.

    Real-valued targets are k_e = λ·sqrt(g(e)), i.e. capacity 2λ·sqrt(g(e)),
    with λ solved so the total is preserved.  Edges with g(e)=0 never
    constrain xi and get the floor capacity before λ is solved; edges whose
    real target would fall below the floor are clamped and λ re-solved
    (waterfilling).  Integerization is largest-remainder on capacities with
    ascending-edge-id tie-break, so the total is preserved exactly.
    """
    m = g.edge_count
    total = g.total_capacity()
    _check_total(total, m)
    roots = [math.sqrt(bmap.values[eid]) for eid in range(m)]
    clamped = {eid for eid in range(m) if roots[eid] == 0.0}
    active = [eid for eid in range(m) if eid not in clamped]
    if not active:
        raise ValueError("every edge has zero betweenness; nothing to optimize")
    while True:
        budget = total - MIN_CAPACITY * len(clamped)
        denom = sum(roots[eid] for eid in active)
        lam2 = budget / denom  # 2*lambda: target capacity per unit sqrt(g)
        below = [eid for eid in active if lam2 * roots[eid] < MIN_CAPACITY]
        if not below:
            break
        clamped.update(below)
        active = [eid for eid in active if eid not in clamped]
        if not active:
            raise ValueError("total capacity too small to exceed the per-edge floor")
    caps = [0] * m
    for eid in clamped:
        caps[eid] = MIN_CAPACITY
    floors = {eid: int(lam2 * roots[eid]) for eid in active}
    spare = budget - sum(floors.values())
    # largest fractional part first; ties to the smaller edge id
    order = sorted(active, key=lambda eid: (-(lam2 * roots[eid] - floors[eid]), eid))
    if spare >= 0:
        bump = set(order[:spare])
        for eid in active:
            caps[eid] = floors[eid] + (1 if eid in bump else 0)
    else:
        # float slop pushed a floor past the budget; shave smallest fractions
        shave = set(order[spare:])
        for eid in active:
            caps[eid] = floors[eid] - (1 if eid in shave else 0)
        if any(caps[eid] < MIN_CAPACITY for eid in active):
            raise ValueError("rounding left an edge below the capacity floor")
    return CapacityPlan(caps, "xi_optimized", total, sum(caps))


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
    from .results import read_csv

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
