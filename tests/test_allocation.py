"""Unit tests for placement evaluation and the rule-4 allocator."""

import pytest

from repro.core.allocation import (
    Placement,
    PlacementError,
    _allocate_to_banks_scalar,
    allocate_to_banks,
)
from repro.core.cartesian import MergeGroup
from repro.core.planner import PlannerConfig, _groups_for_candidate_count
from repro.core.tables import TableSpec
from repro.memory.spec import BankKind, BankSpec, MemorySystemSpec
from repro.memory.timing import default_timing_model
from repro.models.spec import resolve_model


def singleton_groups(specs):
    return tuple(MergeGroup((s.table_id,)) for s in specs)


def by_id(specs):
    return {s.table_id: s for s in specs}


class TestPlacement:
    def test_partition_must_cover_exactly(self, tiny_memory, small_specs):
        groups = singleton_groups(small_specs[:-1])  # table 5 missing
        with pytest.raises(PlacementError):
            Placement(
                memory=tiny_memory,
                specs=by_id(small_specs),
                groups=groups,
                bank_of={g: 0 for g in groups},
            )

    def test_every_group_needs_a_bank(self, tiny_memory, small_specs):
        groups = singleton_groups(small_specs)
        with pytest.raises(PlacementError):
            Placement(
                memory=tiny_memory,
                specs=by_id(small_specs),
                groups=groups,
                bank_of={g: 0 for g in groups[:-1]},
            )

    def _placement(self, tiny_memory, small_specs, assignment):
        groups = singleton_groups(small_specs)
        return Placement(
            memory=tiny_memory,
            specs=by_id(small_specs),
            groups=groups,
            bank_of={g: assignment[g.member_ids[0]] for g in groups},
        )

    def test_dram_rounds_counts_busiest_channel(self, tiny_memory, small_specs):
        p = self._placement(
            tiny_memory, small_specs, {0: 0, 1: 0, 2: 0, 3: 1, 4: 2, 5: 3}
        )
        assert p.dram_access_rounds() == 3

    def test_onchip_not_counted_in_rounds(self, tiny_memory, small_specs):
        p = self._placement(
            tiny_memory, small_specs, {0: 4, 1: 4, 2: 4, 3: 1, 4: 2, 5: 3}
        )
        assert p.dram_access_rounds() == 1

    def test_lookup_latency_is_max_bank_serial(self, tiny_memory, small_specs):
        timing = default_timing_model()
        p = self._placement(
            tiny_memory, small_specs, {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 3}
        )
        expected = max(
            timing.dram_access_ns(16) + timing.dram_access_ns(16),
            timing.dram_access_ns(32) + timing.dram_access_ns(32),
            timing.dram_access_ns(64),
        )
        assert p.lookup_latency_ns(timing) == pytest.approx(expected)

    def test_lookup_rounds_scale_latency(self, tiny_memory, small_specs):
        timing = default_timing_model()
        p = self._placement(
            tiny_memory, small_specs, {0: 0, 1: 1, 2: 2, 3: 3, 4: 0, 5: 1}
        )
        assert p.lookup_latency_ns(timing, lookup_rounds=3) == pytest.approx(
            3 * p.lookup_latency_ns(timing)
        )

    def test_capacity_validation(self, small_specs):
        mem = MemorySystemSpec(
            banks=(BankSpec(0, BankKind.HBM, 100),), name="too-small"
        )
        groups = singleton_groups(small_specs[:1])
        p = Placement(
            memory=mem,
            specs=by_id(small_specs[:1]),
            groups=groups,
            bank_of={groups[0]: 0},
        )
        with pytest.raises(PlacementError):
            p.validate()

    def test_storage_overhead_zero_without_merging(self, tiny_memory, small_specs):
        p = self._placement(
            tiny_memory, small_specs, {0: 0, 1: 1, 2: 2, 3: 3, 4: 0, 5: 1}
        )
        assert p.storage_overhead_fraction == pytest.approx(0.0)


class TestAllocateToBanks:
    def test_balances_dram_channels(self, tiny_memory):
        timing = default_timing_model()
        specs = [TableSpec(i, rows=1000, dim=8) for i in range(8)]
        placement = allocate_to_banks(
            singleton_groups(specs), by_id(specs), tiny_memory, timing
        )
        per_bank: dict[int, int] = {}
        for b in placement.bank_of.values():
            kind = tiny_memory.bank(b).kind
            if kind.is_dram:
                per_bank[b] = per_bank.get(b, 0) + 1
        # 8 equal tables over 4 DRAM channels -> perfectly balanced.
        assert set(per_bank.values()) == {2}

    def test_caches_small_tables_on_chip(self, tiny_memory):
        timing = default_timing_model()
        # 5 tables for 4 DRAM channels: caching the tiny one on-chip avoids
        # a second access round on some channel.
        specs = [
            TableSpec(0, rows=16, dim=4),
            *(TableSpec(i, rows=4096, dim=16) for i in range(1, 6)),
        ]
        placement = allocate_to_banks(
            singleton_groups(specs), by_id(specs), tiny_memory, timing
        )
        small_bank = placement.bank_of[MergeGroup((0,))]
        assert tiny_memory.bank(small_bank).kind is BankKind.ONCHIP
        assert placement.dram_access_rounds() == 2

    def test_oversized_group_raises(self, tiny_memory):
        timing = default_timing_model()
        specs = [TableSpec(0, rows=1 << 22, dim=16)]  # 256 MiB > all banks
        with pytest.raises(PlacementError):
            allocate_to_banks(
                singleton_groups(specs), by_id(specs), tiny_memory, timing
            )

    def test_huge_tables_go_to_ddr(self, u280, timing):
        # 300 MB exceeds a 256 MB HBM bank but fits DDR.
        specs = [TableSpec(0, rows=5_000_000, dim=16)]
        placement = allocate_to_banks(
            singleton_groups(specs), by_id(specs), u280, timing
        )
        bank = u280.bank(placement.bank_of[MergeGroup((0,))])
        assert bank.kind is BankKind.DDR

    def test_feasible_placements_validate(self, tiny_memory):
        timing = default_timing_model()
        specs = [TableSpec(i, rows=100 * (i + 1), dim=4) for i in range(6)]
        placement = allocate_to_banks(
            singleton_groups(specs), by_id(specs), tiny_memory, timing
        )
        placement.validate()  # must not raise


class TestScalarParity:
    """The heap-based allocator against its scalar reference, pinned on
    the models the paper plans, at every candidate count ``n``."""

    @pytest.mark.parametrize(
        "name,max_rows",
        [("small", None), ("large", None), ("small", 256), ("dlrm-rmc2", 256)],
    )
    def test_every_candidate_count_matches(self, u280, timing, name, max_rows):
        model = resolve_model(name)
        if max_rows is not None:
            model = model.scaled(max_rows=max_rows)
        config = PlannerConfig()
        specs = by_id(model.tables)
        eligible = sorted(
            (s for s in model.tables if s.rows <= config.max_candidate_rows),
            key=lambda s: s.size_key,
        )
        for n in range(len(eligible) + 1):
            groups = _groups_for_candidate_count(
                eligible, n, set(specs), specs, config
            )
            fast = allocate_to_banks(groups, specs, u280, timing)
            ref = _allocate_to_banks_scalar(groups, specs, u280, timing)
            assert fast.groups == ref.groups
            assert list(fast.bank_of.items()) == list(ref.bank_of.items())
