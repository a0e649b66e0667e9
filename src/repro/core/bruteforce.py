"""Exhaustive table-combination search — the oracle the heuristic is tested
against.

Section 3.4.1 sketches (and dismisses) brute force: enumerate every way of
selecting Cartesian candidates and every way of combining them — including
products of more than two tables — then allocate each outcome and keep the
best.  The factorial blow-up makes it unusable at production scale, but for
small instances (N <= ~9) it is a perfect optimality oracle: property tests
assert the heuristic, which allocates only N + 1 merge choices (each in
``O(N K log B)``, see :mod:`repro.core.planner`), stays within a bounded
gap of this search, which allocates every set partition of the tables.

Both searches share :func:`~repro.core.allocation.allocate_to_banks`, so the
comparison isolates the *merge-choice* quality of the heuristic rules.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.core.allocation import PlacementError, allocate_to_banks
from repro.core.cartesian import MergeGroup, product_spec
from repro.core.planner import Plan, PlannerConfig
from repro.core.tables import TableSpec
from repro.memory.spec import MemorySystemSpec
from repro.memory.timing import MemoryTimingModel, default_timing_model


def set_partitions(
    items: Sequence[int], max_group_size: int | None = None
) -> Iterator[list[tuple[int, ...]]]:
    """Yield every partition of ``items`` into non-empty groups.

    The number of partitions is the Bell number B(n); callers must keep
    ``n`` small.  ``max_group_size`` prunes partitions containing any group
    larger than the limit (e.g. 2 to mimic heuristic rule 2).
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest, max_group_size):
        # First element joins an existing group...
        for i, group in enumerate(sub):
            if max_group_size is not None and len(group) + 1 > max_group_size:
                continue
            yield [*sub[:i], (first, *group), *sub[i + 1 :]]
        # ...or starts its own.
        yield [(first,), *sub]


def brute_force_plan(
    specs: Sequence[TableSpec],
    memory: MemorySystemSpec,
    timing: MemoryTimingModel | None = None,
    config: PlannerConfig | None = None,
    max_tables: int = 10,
    max_group_size: int | None = None,
) -> Plan:
    """Exhaustively search merge partitions and return the optimum.

    Every set-partition of the rule-1-eligible tables is considered (k-way
    products included unless ``max_group_size`` restricts them); products
    exceeding ``config.max_product_bytes`` are pruned.  Raises
    ``ValueError`` for instances larger than ``max_tables`` — use the
    heuristic planner for those.
    """
    if len(specs) > max_tables:
        raise ValueError(
            f"brute force limited to {max_tables} tables, got {len(specs)}; "
            "use repro.core.planner.plan_tables instead"
        )
    if timing is None:
        timing = default_timing_model(memory.axi)
    if config is None:
        config = PlannerConfig()
    by_id: Mapping[int, TableSpec] = {s.table_id: s for s in specs}
    eligible = [
        s.table_id for s in specs if s.rows <= config.max_candidate_rows
    ]
    fixed = [
        MergeGroup((s.table_id,))
        for s in specs
        if s.rows > config.max_candidate_rows
    ]

    best: Plan | None = None
    best_score: tuple[float, int] | None = None
    evaluated = 0
    for partition in set_partitions(eligible, max_group_size):
        groups: list[MergeGroup] = list(fixed)
        valid = True
        merged_candidates = 0
        for ids in partition:
            group = MergeGroup(tuple(ids))
            if (
                group.is_merged
                and product_spec(group, by_id).nbytes > config.max_product_bytes
            ):
                valid = False
                break
            if group.is_merged:
                merged_candidates += len(ids)
            groups.append(group)
        if not valid:
            continue
        try:
            placement = allocate_to_banks(groups, by_id, memory, timing)
        except PlacementError:
            continue
        evaluated += 1
        score = (
            placement.lookup_latency_ns(timing),
            placement.storage_bytes,
        )
        if best_score is None or score < best_score:
            best_score = score
            best = Plan(
                placement=placement,
                timing=timing,
                candidate_count=merged_candidates,
                config=config,
            )
    if best is None:
        raise PlacementError("brute force found no feasible allocation")
    best.evaluated = evaluated
    return best
