"""Unit tests for the brute-force oracle and heuristic-vs-oracle gap."""

import pytest

from repro.core.bruteforce import brute_force_plan, set_partitions
from repro.core.planner import PlannerConfig, plan_tables
from repro.core.tables import TableSpec
from repro.memory.axi import AxiConfig
from repro.memory.spec import (
    BankKind,
    BankSpec,
    MemorySystemSpec,
    u280_memory_system,
)
from repro.memory.timing import MemoryTimingModel, default_timing_model

BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


class TestSetPartitions:
    @pytest.mark.parametrize("n,count", sorted(BELL.items()))
    def test_bell_numbers(self, n, count):
        assert sum(1 for _ in set_partitions(range(n))) == count

    def test_each_partition_covers_items(self):
        items = [1, 2, 3, 4]
        for partition in set_partitions(items):
            flat = sorted(x for group in partition for x in group)
            assert flat == items

    def test_max_group_size(self):
        for partition in set_partitions(range(5), max_group_size=2):
            assert all(len(g) <= 2 for g in partition)

    def test_max_group_size_one_is_identity(self):
        parts = list(set_partitions(range(4), max_group_size=1))
        assert len(parts) == 1


@pytest.fixture
def small_memory():
    """Few channels so merging decisions matter."""
    banks = (
        BankSpec(0, BankKind.HBM, 1 << 24),
        BankSpec(1, BankKind.HBM, 1 << 24),
        BankSpec(2, BankKind.DDR, 1 << 26),
    )
    return MemorySystemSpec(banks=banks, axi=AxiConfig(), name="3ch")


class TestBruteForce:
    def test_rejects_large_instances(self, small_memory):
        specs = [TableSpec(i, rows=10, dim=4) for i in range(11)]
        with pytest.raises(ValueError):
            brute_force_plan(specs, small_memory)

    def test_finds_merging_when_it_helps(self, small_memory):
        timing = default_timing_model()
        # 6 small tables on 3 channels: merging pairs gives 1 access/channel.
        specs = [TableSpec(i, rows=20 + i, dim=4) for i in range(6)]
        plan = brute_force_plan(specs, small_memory, timing)
        assert plan.placement.num_tables_after_merge <= 3
        assert plan.dram_access_rounds <= 1

    def test_oracle_never_beaten_by_heuristic(self, small_memory):
        timing = default_timing_model()
        config = PlannerConfig(max_candidate_rows=10_000)
        for salt in range(6):
            specs = [
                TableSpec(i, rows=16 + (i * 13 + salt * 7) % 200, dim=4)
                for i in range(7)
            ]
            oracle = brute_force_plan(specs, small_memory, timing, config)
            heuristic = plan_tables(specs, small_memory, timing, config)
            assert oracle.lookup_latency_ns <= heuristic.lookup_latency_ns + 1e-6

    def test_heuristic_gap_is_bounded(self, small_memory):
        """The O(N^2) search stays within 2x of the exhaustive optimum on
        random small instances (the paper claims 'near-optima')."""
        timing = default_timing_model()
        config = PlannerConfig(max_candidate_rows=10_000)
        worst = 1.0
        for salt in range(8):
            specs = [
                TableSpec(i, rows=16 + (i * 29 + salt * 11) % 300, dim=4)
                for i in range(6)
            ]
            oracle = brute_force_plan(specs, small_memory, timing, config)
            heuristic = plan_tables(specs, small_memory, timing, config)
            worst = max(
                worst, heuristic.lookup_latency_ns / oracle.lookup_latency_ns
            )
        assert worst <= 2.0

    def test_heuristic_near_oracle_with_far_fewer_allocations(self):
        """On the U280 the heuristic stays within 1.5x of the exhaustive
        optimum while evaluating far fewer allocations."""
        specs = [TableSpec(i, rows=30 + 17 * i, dim=4) for i in range(8)]
        memory = u280_memory_system()
        timing = MemoryTimingModel(axi=memory.axi)
        config = PlannerConfig(max_candidate_rows=10_000)
        oracle = brute_force_plan(specs, memory, timing, config)
        heuristic = plan_tables(specs, memory, timing, config)
        assert heuristic.lookup_latency_ns <= oracle.lookup_latency_ns * 1.5
        assert heuristic.evaluated < oracle.evaluated

    def test_pruned_by_product_cap(self, small_memory):
        timing = default_timing_model()
        config = PlannerConfig(max_product_bytes=1000, max_candidate_rows=10_000)
        specs = [TableSpec(i, rows=100, dim=4) for i in range(4)]
        plan = brute_force_plan(specs, small_memory, timing, config)
        # All pairwise products are 100*100*8*4 B >> 1000 B: no merging.
        assert plan.placement.num_tables_after_merge == 4
