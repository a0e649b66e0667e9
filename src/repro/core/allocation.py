"""Table-to-bank allocation and placement evaluation.

A :class:`Placement` is the planner's output: a partition of the model's
embedding tables into :class:`~repro.core.cartesian.MergeGroup`s (merged or
singleton) and an assignment of every group to one memory bank.  This module
evaluates placements — per-inference lookup latency, DRAM access rounds,
storage overhead — and provides the greedy allocator that implements the
paper's heuristic rule 4 (cache the smallest tables on chip, subject to
capacity and to on-chip lookups not becoming the bottleneck).

Latency semantics: banks are accessed concurrently, accesses to the same
bank serialise, and one inference reads one vector per group per lookup
round.  The per-inference embedding latency is therefore the maximum over
banks of the bank's serial read time — the quantity Algorithm 1 minimises.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.cartesian import MergeGroup, product_spec
from repro.core.tables import TableSpec
from repro.memory.banks import MemorySystemState
from repro.memory.spec import BankKind, BankSpec, MemorySystemSpec
from repro.memory.timing import MemoryTimingModel


class PlacementError(ValueError):
    """Raised when a set of groups cannot be placed in a memory system."""


@dataclass
class Placement:
    """A full assignment of merge groups to memory banks."""

    memory: MemorySystemSpec
    specs: Mapping[int, TableSpec]
    groups: tuple[MergeGroup, ...]
    bank_of: dict[MergeGroup, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        covered: list[int] = [tid for g in self.groups for tid in g.member_ids]
        if sorted(covered) != sorted(self.specs):
            raise PlacementError(
                "groups must partition the table set exactly once: "
                f"covered={sorted(covered)}, specs={sorted(self.specs)}"
            )
        missing = [g for g in self.groups if g not in self.bank_of]
        if missing:
            raise PlacementError(f"groups without a bank: {missing}")
        self._spec_cache: dict[MergeGroup, TableSpec] = {}

    # -- derived specs ----------------------------------------------------

    def group_spec(self, group: MergeGroup) -> TableSpec:
        spec = self._spec_cache.get(group)
        if spec is None:
            spec = self._spec_cache[group] = product_spec(group, self.specs)
        return spec

    def groups_in(self, *kinds: BankKind) -> list[MergeGroup]:
        return [
            g
            for g in self.groups
            if self.memory.bank(self.bank_of[g]).kind in kinds
        ]

    @property
    def merged_groups(self) -> list[MergeGroup]:
        return [g for g in self.groups if g.is_merged]

    @property
    def num_tables_after_merge(self) -> int:
        """Number of physical tables stored (paper Table 3, "Table Num")."""
        return len(self.groups)

    @property
    def num_tables_in_dram(self) -> int:
        return len(self.groups_in(BankKind.HBM, BankKind.DDR))

    # -- storage ----------------------------------------------------------

    @property
    def base_storage_bytes(self) -> int:
        """Storage of the original, unmerged tables."""
        return sum(s.nbytes for s in self.specs.values())

    @property
    def storage_bytes(self) -> int:
        """Storage actually placed (products included)."""
        return sum(self.group_spec(g).nbytes for g in self.groups)

    @property
    def storage_overhead_fraction(self) -> float:
        """Extra storage relative to the unmerged model (Table 3)."""
        return self.storage_bytes / self.base_storage_bytes - 1.0

    # -- timing -----------------------------------------------------------

    def to_state(self) -> MemorySystemState:
        """Materialise the occupancy state implied by this placement."""
        state = MemorySystemState(self.memory)
        for group, bank_id in self.bank_of.items():
            try:
                state.place(bank_id, group, self.group_spec(group).nbytes)
            except ValueError as exc:
                raise PlacementError(str(exc)) from exc
        return state

    def validate(self) -> None:
        """Raise :class:`PlacementError` if any bank is over capacity."""
        self.to_state()

    def bank_serial_ns(
        self,
        bank_id: int,
        timing: MemoryTimingModel,
        lookup_rounds: int = 1,
    ) -> float:
        """Serial time for one bank to serve its groups' lookups."""
        kind = self.memory.bank(bank_id).kind
        total = 0.0
        for group, bid in self.bank_of.items():
            if bid != bank_id:
                continue
            spec = self.group_spec(group)
            accesses = spec.lookups_per_inference * lookup_rounds
            total += accesses * timing.access_ns(kind, spec.vector_bytes)
        return total

    def lookup_latency_ns(
        self, timing: MemoryTimingModel, lookup_rounds: int = 1
    ) -> float:
        """Per-inference embedding lookup latency (max over banks).

        ``lookup_rounds`` scales every table's lookup count, modelling the
        multi-round DNN architectures of Figure 7.
        """
        # One pass over bank_of, summing each bank in bank_of order — the
        # same float sums as bank_serial_ns per bank.
        serial: dict[int, float] = {}
        for group, bank_id in self.bank_of.items():
            spec = self.group_spec(group)
            kind = self.memory.bank(bank_id).kind
            accesses = spec.lookups_per_inference * lookup_rounds
            cost = accesses * timing.access_ns(kind, spec.vector_bytes)
            serial[bank_id] = serial.get(bank_id, 0.0) + cost
        return max(serial.values(), default=0.0)

    def dram_access_rounds(self, lookup_rounds: int = 1) -> int:
        """Accesses the busiest DRAM channel serialises (Table 3 rounds)."""
        per_bank: dict[int, int] = {}
        for group, bank_id in self.bank_of.items():
            if not self.memory.bank(bank_id).kind.is_dram:
                continue
            spec = self.group_spec(group)
            per_bank[bank_id] = (
                per_bank.get(bank_id, 0)
                + spec.lookups_per_inference * lookup_rounds
            )
        return max(per_bank.values(), default=0)

    def summary(self) -> dict[str, object]:
        return {
            "tables": self.num_tables_after_merge,
            "tables_in_dram": self.num_tables_in_dram,
            "merged_groups": len(self.merged_groups),
            "dram_rounds": self.dram_access_rounds(),
            "storage_bytes": self.storage_bytes,
            "storage_overhead": self.storage_overhead_fraction,
        }


def allocate_to_banks(
    groups: Sequence[MergeGroup],
    specs: Mapping[int, TableSpec],
    memory: MemorySystemSpec,
    timing: MemoryTimingModel,
) -> Placement:
    """Assign groups to banks: heuristic rule 4 + least-loaded DRAM packing.

    Rule 4 caches the smallest tables on chip.  The number cached is not
    fixed a priori: we sweep the count ``k`` of smallest groups placed
    on-chip, allocate the remainder to DRAM channels greedily
    (longest-processing-time onto the currently least-loaded channel with
    capacity), and keep the ``k`` with the lowest overall lookup latency.
    This satisfies both of the paper's constraints by construction — a
    ``k`` whose co-located on-chip lookups exceed the off-chip bottleneck
    simply loses the sweep.

    Raises :class:`PlacementError` if even ``k = 0`` cannot be placed (some
    group exceeds every DRAM bank's remaining capacity).

    Makes exactly the decisions of :func:`_allocate_to_banks_scalar`, the
    parity reference, with the same float sums in the same order, but
    works on integer group indices over per-group arrays computed once,
    picks the least-loaded DRAM channel from a heap keyed on
    ``(busy_ns, bank_id)``, and resumes each ``k``'s DRAM greedy from the
    previous ``k``'s state where the two agree.  Cost: at most
    ``O(N K log B)`` for N groups, K on-chip counts swept and B DRAM
    channels; a group that does not fit the least-loaded channel also pops
    past it.  The sweep stops early only on a bound that holds exactly in
    floating point: once the on-chip bottleneck exceeds the best latency
    found, no larger ``k`` can win, because float sums of positive costs
    never shrink.
    """
    gspec = [product_spec(g, specs) for g in groups]
    size = [s.nbytes for s in gspec]
    cost = [
        s.lookups_per_inference * timing.dram_access_ns(s.vector_bytes)
        for s in gspec
    ]
    onchip_cost = [
        s.lookups_per_inference
        * timing.access_ns(BankKind.ONCHIP, s.vector_bytes)
        for s in gspec
    ]
    by_size = sorted(
        range(len(groups)), key=lambda i: (size[i], groups[i].member_ids)
    )
    by_cost_desc = sorted(
        range(len(groups)), key=lambda i: (-cost[i], groups[i].member_ids)
    )

    # --- on-chip: first-fit into the least-occupied on-chip bank.  The k
    # smallest groups are placed in the same order for every k, so one
    # pass yields every k's on-chip banks; onchip_peak[k] is the on-chip
    # bottleneck with k groups cached, and k stops at the first group that
    # fits no on-chip bank.
    onchip_banks = memory.onchip_banks
    onchip_free = [b.capacity_bytes for b in onchip_banks]
    onchip_load = [0] * len(onchip_banks)
    onchip_busy = [0.0] * len(onchip_banks)
    onchip_bank: list[int] = []
    onchip_peak = [0.0]
    for i in by_size:
        fits = [j for j, free in enumerate(onchip_free) if free >= size[i]]
        if not fits:
            break
        j = min(fits, key=lambda j: (onchip_load[j], onchip_banks[j].bank_id))
        onchip_bank.append(onchip_banks[j].bank_id)
        onchip_free[j] -= size[i]
        onchip_load[j] += 1
        onchip_busy[j] += onchip_cost[i]
        onchip_peak.append(max(onchip_busy))

    dram_banks = memory.dram_banks
    idle = [(0.0, b.bank_id, j) for j, b in enumerate(dram_banks)]
    heapq.heapify(idle)
    position = [0] * len(groups)
    for p, i in enumerate(by_cost_desc):
        position[i] = p
    cached = [False] * len(groups)
    # The run for k + 1 also caches by_size[k], so it repeats the run for k
    # exactly up to that group's position: the state there is kept in
    # `resume` as (position, heap, free bytes, placements).
    resume = None
    best: tuple[int, list[tuple[int, int]]] | None = None
    best_score: tuple[float, float] | None = None
    for k, onchip_latency in enumerate(onchip_peak):
        if best_score is not None and onchip_latency > best_score[0]:
            break  # the on-chip bottleneck only grows with k
        if k:
            cached[by_size[k - 1]] = True
        if k < len(groups) and not dram_banks:
            continue
        start, heap, free, placed = resume or (
            0, list(idle), [b.capacity_bytes for b in dram_banks], []
        )
        resume = None
        stop = position[by_size[k]] if k < len(groups) else len(groups)
        ok = True
        if stop >= start:
            ok = _pack_dram(
                by_cost_desc[start:stop], cached, size, cost, heap, free, placed
            )
            if ok:
                resume = (stop, list(heap), list(free), list(placed))
            start = stop
        if ok:
            ok = _pack_dram(
                by_cost_desc[start:], cached, size, cost, heap, free, placed
            )
        if not ok:
            if k == 0:
                raise PlacementError(
                    "allocation failed: a group exceeds every DRAM bank's "
                    "capacity even with nothing cached on-chip"
                )
            continue
        dram_busy = [0.0] * len(dram_banks)
        for busy, _, j in heap:
            dram_busy[j] = busy
        # Latency = slowest bank; storage is k-independent, so ties are
        # broken towards lower aggregate DRAM busy time, i.e. towards
        # caching more tables on chip.
        latency = max(max(dram_busy, default=0.0), onchip_latency)
        score = (latency, sum(dram_busy))
        if best_score is None or score < best_score:
            best, best_score = (k, placed), score

    if best is None:
        raise PlacementError("no feasible allocation found")
    best_k, best_placed = best
    bank_of = {
        groups[i]: bid for i, bid in zip(by_size[:best_k], onchip_bank)
    }
    bank_of.update((groups[i], bid) for i, bid in best_placed)
    placement = Placement(
        memory=memory,
        specs=dict(specs),
        groups=tuple(groups[i] for i in by_size),
        bank_of=bank_of,
    )
    placement._spec_cache.update(zip(groups, gspec))
    return placement


def _pack_dram(
    order: Sequence[int],
    cached: list[bool],
    size: list[int],
    cost: list[float],
    heap: list[tuple[float, int, int]],
    free: list[int],
    placed: list[tuple[int, int]],
) -> bool:
    """Continue an LPT packing over the uncached groups of ``order``.

    ``heap`` holds ``(busy_ns, bank_id, index)`` per DRAM channel and
    ``free`` each channel's free bytes by index; each group lands on the
    least-loaded channel with room (channels too full for it are popped
    and pushed back afterwards) and is appended to ``placed`` as
    ``(group index, bank id)``.  Returns ``False`` when a group fits no
    channel.
    """
    for i in order:
        if cached[i]:
            continue
        full = []
        while heap and free[heap[0][2]] < size[i]:
            full.append(heapq.heappop(heap))
        if not heap:
            return False
        busy, bid, j = heap[0]
        heapq.heapreplace(heap, (busy + cost[i], bid, j))
        for entry in full:
            heapq.heappush(heap, entry)
        free[j] -= size[i]
        placed.append((i, bid))
    return True


def _allocate_to_banks_scalar(
    groups: Sequence[MergeGroup],
    specs: Mapping[int, TableSpec],
    memory: MemorySystemSpec,
    timing: MemoryTimingModel,
) -> Placement:
    """Parity reference for :func:`allocate_to_banks`.

    The original allocator: it rebuilds the DRAM candidate list and takes a
    linear ``min`` over every channel for every group, at every ``k``, so
    it costs ``O(N K B)``.  Kept verbatim as the ground truth the heap-based
    allocator must match decision for decision.
    """
    # Every per-group quantity is computed once up front; the k-sweep below
    # still re-runs the DRAM greedy, with a scan over every channel per
    # group, for each k.
    gspec = {g: product_spec(g, specs) for g in groups}
    cost = {
        g: s.lookups_per_inference * timing.dram_access_ns(s.vector_bytes)
        for g, s in gspec.items()
    }
    onchip_cost = {
        g: s.lookups_per_inference
        * timing.access_ns(BankKind.ONCHIP, s.vector_bytes)
        for g, s in gspec.items()
    }
    sorted_groups = sorted(
        groups, key=lambda g: (gspec[g].nbytes, g.member_ids)
    )
    by_cost_desc = sorted(
        groups, key=lambda g: (-cost[g], g.member_ids)
    )

    best_bank_of: dict[MergeGroup, int] | None = None
    best_score: tuple[float, float] | None = None
    onchip_banks = memory.onchip_banks
    # The sweep over the on-chip table count k stops as soon as the k
    # smallest groups no longer fit the *total* on-chip capacity — a valid
    # upper bound (first-fit can only fail earlier).
    onchip_capacity = sum(b.capacity_bytes for b in onchip_banks)
    max_k, prefix = 0, 0
    for group in sorted_groups:
        prefix += gspec[group].nbytes
        if prefix > onchip_capacity:
            break
        max_k += 1

    for k in range(max_k + 1):
        onchip_part = sorted_groups[:k]
        onchip_set = set(onchip_part)
        bank_of: dict[MergeGroup, int] = {}

        # --- on-chip: first-fit into the least-occupied on-chip bank.
        onchip_load = {b.bank_id: 0 for b in onchip_banks}
        onchip_free = {b.bank_id: b.capacity_bytes for b in onchip_banks}
        onchip_busy = {b.bank_id: 0.0 for b in onchip_banks}
        feasible = True
        for group in onchip_part:
            nbytes = gspec[group].nbytes
            candidates = [
                bid for bid in onchip_free if onchip_free[bid] >= nbytes
            ]
            if not candidates:
                feasible = False
                break
            bid = min(candidates, key=lambda b: (onchip_load[b], b))
            bank_of[group] = bid
            onchip_free[bid] -= nbytes
            onchip_load[bid] += 1
            onchip_busy[bid] += onchip_cost[group]
        if not feasible:
            break  # larger k only adds bigger tables; stop the sweep

        # --- DRAM: LPT greedy onto least-loaded channel with capacity.
        dram_banks = memory.dram_banks
        if len(onchip_set) < len(sorted_groups) and not dram_banks:
            continue
        dram_free = {b.bank_id: b.capacity_bytes for b in dram_banks}
        dram_busy = {b.bank_id: 0.0 for b in dram_banks}
        ok = True
        # Most expensive groups first (LPT balance), pre-sorted once.
        for group in by_cost_desc:
            if group in onchip_set:
                continue
            spec = gspec[group]
            candidates = [
                bid for bid in dram_free if dram_free[bid] >= spec.nbytes
            ]
            if not candidates:
                ok = False
                break
            bid = min(candidates, key=lambda b: (dram_busy[b], b))
            bank_of[group] = bid
            dram_free[bid] -= spec.nbytes
            dram_busy[bid] += cost[group]
        if not ok:
            if k == 0:
                raise PlacementError(
                    "allocation failed: a group exceeds every DRAM bank's "
                    "capacity even with nothing cached on-chip"
                )
            continue

        # Latency = slowest bank; storage is k-independent, so ties are
        # broken towards lower aggregate DRAM busy time, i.e. towards
        # caching more tables on chip.
        latency = max(
            max(dram_busy.values(), default=0.0),
            max(onchip_busy.values(), default=0.0),
        )
        score = (latency, sum(dram_busy.values()))
        if best_score is None or score < best_score:
            best_bank_of, best_score = bank_of, score

    if best_bank_of is None:
        raise PlacementError("no feasible allocation found")
    placement = Placement(
        memory=memory,
        specs=dict(specs),
        groups=tuple(sorted_groups),
        bank_of=best_bank_of,
    )
    placement._spec_cache.update(gspec)
    return placement
