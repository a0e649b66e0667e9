"""Ablation benches for the design choices DESIGN.md calls out.

These go beyond the paper's tables: each one isolates a single design
decision (AXI width, on-chip caching, the rule-3 pairing order, heuristic
vs exhaustive search) and measures its effect with everything else fixed.
"""

from repro.core import planner
from repro.core.allocation import allocate_to_banks
from repro.core.bruteforce import brute_force_plan
from repro.core.cartesian import MergeGroup
from repro.core.planner import PlannerConfig, plan_tables
from repro.core.tables import TableSpec
from repro.memory.axi import AxiConfig
from repro.memory.spec import u280_memory_system
from repro.memory.timing import MemoryTimingModel
from repro.models.spec import production_small


def test_axi_width_tradeoff(benchmark):
    """Appendix ablation: 512-bit AXI reads vectors faster but its FIFOs
    would consume over half of the U280's BRAM across 34 channels."""

    def sweep():
        out = {}
        for width in (32, 512):
            memory = u280_memory_system(axi=AxiConfig(data_width_bits=width))
            timing = MemoryTimingModel(axi=memory.axi)
            plan = plan_tables(production_small().tables, memory, timing)
            # FIFO depth is per-byte of bus width: 12 BRAM per 32-bit channel.
            fifo_bram = 12 * (width // 32) * memory.num_dram_channels
            out[width] = (plan.lookup_latency_ns, fifo_bram)
        return out

    result = benchmark(sweep)
    lat32, bram32 = result[32]
    lat512, bram512 = result[512]
    assert lat512 < lat32, "wider bus must stream vectors faster"
    assert bram512 / 2016 > 0.5, (
        "512-bit FIFOs must consume >half the device BRAM (paper appendix)"
    )
    assert bram32 / 2016 < 0.25


def test_onchip_caching_ablation(benchmark):
    """Rule 4 ablation: removing the on-chip banks costs a DRAM round."""

    def sweep():
        out = {}
        for banks in (0, 8):
            memory = u280_memory_system(onchip_banks=banks)
            timing = MemoryTimingModel(axi=memory.axi)
            plan = plan_tables(
                production_small().tables,
                memory,
                timing,
                PlannerConfig(enable_cartesian=False),
            )
            out[banks] = plan.dram_access_rounds
        return out

    rounds = benchmark(sweep)
    assert rounds[0] > rounds[8] or rounds[0] >= 2


def test_pairing_order_ablation(benchmark):
    """Rule 3 ablation: smallest-with-largest pairing vs adjacent pairing.

    Pairing neighbours multiplies two *similar* row counts, so the worst
    product is much larger than under the paper's rule.
    """
    specs = [TableSpec(i, rows=100 * 2**i, dim=4) for i in range(8)]
    by_id = {s.table_id: s for s in specs}
    memory = u280_memory_system()
    timing = MemoryTimingModel(axi=memory.axi)
    ordered = sorted(specs, key=lambda s: s.size_key)

    def storage(groups):
        placement = allocate_to_banks(groups, by_id, memory, timing)
        return placement.storage_bytes

    def run():
        rule3 = [
            MergeGroup((ordered[i].table_id, ordered[-1 - i].table_id))
            for i in range(4)
        ]
        adjacent = [
            MergeGroup((ordered[2 * i].table_id, ordered[2 * i + 1].table_id))
            for i in range(4)
        ]
        return storage(rule3), storage(adjacent)

    rule3_bytes, adjacent_bytes = benchmark(run)
    assert rule3_bytes < adjacent_bytes, (
        "rule-3 pairing must yield lower total storage than adjacent pairing"
    )


def _plan_uncached(*args):
    """``plan_tables`` with its memo emptied first, so every round searches."""
    planner._plan_memo.clear()
    return plan_tables(*args)


def test_heuristic_vs_bruteforce_runtime(benchmark):
    """The heuristic matches the exhaustive optimum here while
    evaluating orders of magnitude fewer allocations."""
    specs = [TableSpec(i, rows=30 + 17 * i, dim=4) for i in range(8)]
    memory = u280_memory_system()
    timing = MemoryTimingModel(axi=memory.axi)
    config = PlannerConfig(max_candidate_rows=10_000)

    oracle = brute_force_plan(specs, memory, timing, config)

    heuristic = benchmark(_plan_uncached, specs, memory, timing, config)
    assert heuristic.lookup_latency_ns <= oracle.lookup_latency_ns * 1.5
    assert heuristic.evaluated < oracle.evaluated


def test_planner_scaling(benchmark):
    """Planner wall-clock on a 200-table model, uncached."""
    specs = [
        TableSpec(i, rows=100 + (i * 37) % 5000, dim=4 if i % 3 else 16)
        for i in range(200)
    ]
    memory = u280_memory_system()
    timing = MemoryTimingModel(axi=memory.axi)

    plan = benchmark(_plan_uncached, specs, memory, timing)
    assert plan.evaluated <= 201
    plan.placement.validate()
