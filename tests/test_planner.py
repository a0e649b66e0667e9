"""Unit tests for the heuristic planner (Algorithm 1)."""

import pytest

from repro.core import planner
from repro.core.allocation import allocate_to_banks
from repro.core.cartesian import MergeGroup
from repro.core.planner import (
    PLAN_MEMO_SIZE,
    PlannerConfig,
    pair_candidates,
    plan_tables,
)
from repro.core.tables import TableSpec
from repro.memory.axi import AxiConfig
from repro.memory.spec import MemorySystemSpec, u280_memory_system
from repro.memory.timing import MemoryTimingModel, default_timing_model
from repro.models.spec import production_large, production_small


class TestPairCandidates:
    def test_smallest_pairs_with_largest(self):
        """Heuristic rule 3."""
        specs = [TableSpec(i, rows=10 * (i + 1), dim=4) for i in range(6)]
        pairs = pair_candidates(specs)
        assert (0, 5) in pairs
        assert (1, 4) in pairs
        assert (2, 3) in pairs

    def test_odd_middle_stays_single(self):
        specs = [TableSpec(i, rows=10 * (i + 1), dim=4) for i in range(5)]
        pairs = pair_candidates(specs)
        assert (2,) in pairs
        assert len(pairs) == 3

    def test_pairs_only(self):
        """Heuristic rule 2: products join pairs, never triples."""
        specs = [TableSpec(i, rows=10 * (i + 1), dim=4) for i in range(8)]
        assert all(len(p) <= 2 for p in pair_candidates(specs))

    def test_empty(self):
        assert pair_candidates([]) == []


class TestPlanTables:
    @pytest.fixture
    def memory(self):
        return u280_memory_system()

    @pytest.fixture
    def timing(self, memory):
        return default_timing_model(memory.axi)

    def test_never_worse_than_no_merging(self, memory, timing):
        specs = [TableSpec(i, rows=100 + 7 * i, dim=4) for i in range(40)]
        base = plan_tables(
            specs, memory, timing, PlannerConfig(enable_cartesian=False)
        )
        full = plan_tables(specs, memory, timing)
        assert full.lookup_latency_ns <= base.lookup_latency_ns + 1e-9

    def test_rule1_excludes_large_tables(self, memory, timing):
        """Large tables must never appear inside a merged group."""
        specs = [TableSpec(i, rows=200, dim=4) for i in range(10)] + [
            TableSpec(100 + i, rows=2_000_000, dim=16) for i in range(4)
        ]
        plan = plan_tables(
            specs, memory, timing, PlannerConfig(max_candidate_rows=1000)
        )
        for group in plan.merge_groups:
            for tid in group.member_ids:
                assert tid < 100

    def test_product_size_cap_respected(self, memory, timing):
        config = PlannerConfig(max_product_bytes=10_000)
        specs = [TableSpec(i, rows=1000, dim=4) for i in range(6)]
        plan = plan_tables(specs, memory, timing, config)
        for group in plan.merge_groups:
            from repro.core.cartesian import product_spec

            assert product_spec(group, {s.table_id: s for s in specs}).nbytes <= 10_000

    def test_duplicate_ids_rejected(self, memory, timing):
        specs = [TableSpec(0, rows=10, dim=4), TableSpec(0, rows=20, dim=4)]
        with pytest.raises(ValueError):
            plan_tables(specs, memory, timing)

    def test_single_table(self, memory, timing):
        plan = plan_tables([TableSpec(0, rows=100, dim=4)], memory, timing)
        assert plan.placement.num_tables_after_merge == 1
        assert plan.dram_access_rounds <= 1

    def test_quadratic_evaluation_count(self, memory, timing):
        """The outer loop evaluates O(N) allocations (Algorithm 1)."""
        n = 30
        specs = [TableSpec(i, rows=100 + i, dim=4) for i in range(n)]
        plan = plan_tables(specs, memory, timing)
        assert plan.evaluated <= n + 1

    def test_200_table_evaluation_count(self, memory, timing):
        specs = [
            TableSpec(i, rows=100 + (i * 37) % 5000, dim=4 if i % 3 else 16)
            for i in range(200)
        ]
        plan = plan_tables(specs, memory, timing)
        assert plan.evaluated <= 201
        plan.placement.validate()


class TestPlanMemo:
    @pytest.fixture
    def specs(self):
        return [TableSpec(i, rows=100 + 7 * i, dim=4) for i in range(12)]

    @pytest.fixture
    def searches(self, monkeypatch):
        """Uncached searches, counted from an empty memo."""
        calls = []
        search = planner._search
        monkeypatch.setattr(planner, "_plan_memo", {})
        monkeypatch.setattr(
            planner, "_search", lambda *args: calls.append(args) or search(*args)
        )
        return calls

    def test_repeat_call_returns_equal_plan(self, searches, specs, u280):
        first = plan_tables(specs, u280)
        again = plan_tables(specs, u280)
        assert len(searches) == 1
        assert again == first
        assert again.summary() == first.summary()
        assert again.placement is not first.placement

    def test_mutating_a_result_does_not_leak(self, searches, specs, u280):
        first = plan_tables(specs, u280)
        expected = list(first.placement.bank_of.items())
        for group in first.placement.bank_of:
            first.placement.bank_of[group] = 0
        again = plan_tables(specs, u280)
        assert list(again.placement.bank_of.items()) == expected

    @pytest.mark.parametrize(
        "change",
        [
            {"config": PlannerConfig(enable_cartesian=False)},
            {"memory": u280_memory_system(onchip_banks=4)},
            {"timing": MemoryTimingModel(dram_init_ns=200.0)},
        ],
        ids=["config", "memory", "timing"],
    )
    def test_different_inputs_miss(self, searches, specs, u280, change):
        inputs = {"memory": u280, "timing": None, "config": None}
        plan_tables(specs, **inputs)
        plan = plan_tables(specs, **{**inputs, **change})
        assert len(searches) == 2
        for name, value in change.items():
            owner = plan.placement if name == "memory" else plan
            assert getattr(owner, name) is value

    def test_list_of_banks_still_plans(self, searches, specs, u280):
        listed = MemorySystemSpec(
            banks=list(u280.banks), axi=u280.axi, name="listed"
        )
        plan = plan_tables(specs, listed)
        assert plan.placement.memory is listed
        assert plan_tables(specs, u280).placement.bank_of == (
            plan.placement.bank_of
        )
        assert len(searches) == 1

    def test_memo_is_bounded(self, searches, u280):
        for rows in range(10, 10 + PLAN_MEMO_SIZE + 5):
            plan_tables([TableSpec(0, rows=rows, dim=4)], u280)
        assert len(planner._plan_memo) == PLAN_MEMO_SIZE


class TestDesignAblations:
    """Each test isolates one design decision with everything else fixed."""

    def test_axi_width_tradeoff(self):
        """Appendix: 512-bit AXI reads vectors faster, but its FIFOs
        would consume over half of the U280's 2016 BRAM across the DRAM
        channels."""
        out = {}
        for width in (32, 512):
            memory = u280_memory_system(axi=AxiConfig(data_width_bits=width))
            timing = MemoryTimingModel(axi=memory.axi)
            plan = plan_tables(production_small().tables, memory, timing)
            # FIFO depth is per-byte of bus width: 12 BRAM per 32-bit channel.
            fifo_bram = 12 * (width // 32) * memory.num_dram_channels
            out[width] = (plan.lookup_latency_ns, fifo_bram)
        (lat32, bram32), (lat512, bram512) = out[32], out[512]
        assert lat512 < lat32
        assert bram512 / 2016 > 0.5
        assert bram32 / 2016 < 0.25

    def test_onchip_caching_saves_a_round(self):
        """Rule 4: removing the on-chip banks costs a DRAM round."""
        rounds = {}
        for banks in (0, 8):
            memory = u280_memory_system(onchip_banks=banks)
            timing = MemoryTimingModel(axi=memory.axi)
            plan = plan_tables(
                production_small().tables,
                memory,
                timing,
                PlannerConfig(enable_cartesian=False),
            )
            rounds[banks] = plan.dram_access_rounds
        assert rounds[0] > rounds[8] or rounds[0] >= 2

    def test_rule3_pairing_beats_adjacent_pairing(self):
        """Pairing neighbours multiplies two similar row counts, so the
        products are much larger than under smallest-with-largest."""
        specs = [TableSpec(i, rows=100 * 2**i, dim=4) for i in range(8)]
        by_id = {s.table_id: s for s in specs}
        memory = u280_memory_system()
        timing = MemoryTimingModel(axi=memory.axi)
        ordered = sorted(specs, key=lambda s: s.size_key)

        def storage(pairs):
            groups = [MergeGroup((a.table_id, b.table_id)) for a, b in pairs]
            return allocate_to_banks(groups, by_id, memory, timing).storage_bytes

        rule3 = storage((ordered[i], ordered[-1 - i]) for i in range(4))
        adjacent = storage((ordered[2 * i], ordered[2 * i + 1]) for i in range(4))
        assert rule3 < adjacent


class TestProductionModelStories:
    """The Table 3 narrative, regenerated by the planner itself."""

    @pytest.fixture(scope="class")
    def memory(self):
        return u280_memory_system()

    @pytest.fixture(scope="class")
    def timing(self, memory):
        return default_timing_model(memory.axi)

    @pytest.mark.parametrize(
        "model_fn,rounds_without,rounds_with,dram_with",
        [
            (production_small, 2, 1, 34),
            (production_large, 3, 2, 68),
        ],
    )
    def test_rounds_reduced(
        self, memory, timing, model_fn, rounds_without, rounds_with, dram_with
    ):
        model = model_fn()
        base = plan_tables(
            model.tables, memory, timing, PlannerConfig(enable_cartesian=False)
        )
        cart = plan_tables(model.tables, memory, timing)
        assert base.dram_access_rounds == rounds_without
        assert cart.dram_access_rounds == rounds_with
        assert cart.placement.num_tables_in_dram == dram_with
        # Merging strictly reduces the table count.
        assert (
            cart.placement.num_tables_after_merge
            < base.placement.num_tables_after_merge
        )

    @pytest.mark.parametrize("model_fn", [production_small, production_large])
    def test_storage_overhead_is_marginal(self, memory, timing, model_fn):
        """Paper: 1.9-3.2% storage overhead; ours stays within 4%."""
        plan = plan_tables(model_fn().tables, memory, timing)
        assert 0.0 < plan.placement.storage_overhead_fraction < 0.04

    @pytest.mark.parametrize("model_fn", [production_small, production_large])
    def test_latency_improvement(self, memory, timing, model_fn):
        """Paper: Cartesian cuts lookup latency to 59-72% of HBM-only."""
        model = model_fn()
        base = plan_tables(
            model.tables, memory, timing, PlannerConfig(enable_cartesian=False)
        )
        cart = plan_tables(model.tables, memory, timing)
        ratio = cart.lookup_latency_ns / base.lookup_latency_ns
        assert 0.5 < ratio < 0.9

    def test_sub_microsecond_small_model(self, memory, timing):
        """Paper: lookups cost less than 1 us on the small model."""
        plan = plan_tables(production_small().tables, memory, timing)
        assert plan.lookup_latency_ns < 1000.0
