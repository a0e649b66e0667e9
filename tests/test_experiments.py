"""Tests for the experiment harness: every table/figure regenerates and
reproduces the paper's qualitative claims."""

import pytest

from repro.experiments import paper_data, table2, table4
from repro.experiments.harness import EXPERIMENTS, render_all, run_all
from repro.experiments.report import ExperimentResult, render_table


@pytest.fixture(scope="module")
def results():
    return run_all()


class TestHarness:
    def test_all_experiments_present(self):
        paper = {
            "figure3",
            "table2",
            "table3",
            "table4",
            "table5",
            "figure7",
            "table6",
            "cost",
        }
        extensions = {
            "queuing",
            "serving_sla",
            "latency_under_load",
            "heterogeneous_fleet",
            "elastic_fleet",
            "sharded_fleet",
            "quantization",
            "related_work",
            "compression",
            "cache_study",
            "tiered_storage",
            "trace_scale",
        }
        assert set(EXPERIMENTS) == paper | extensions

    def test_every_experiment_has_rows(self, results):
        for name, result in results.items():
            assert isinstance(result, ExperimentResult)
            assert result.rows, name

    def test_render_all(self, results):
        text = render_all(results)
        for name in EXPERIMENTS:
            assert name in text

    def test_render_table_formats(self, results):
        text = render_table(results["table3"])
        assert "dram_rounds" in text
        assert "note:" in text


class TestFigure3:
    def test_embedding_dominates(self, results):
        for row in results["figure3"].rows:
            assert row["embedding_share"] > 0.5
            # Within 15 percentage points of the paper's share.
            assert abs(row["embedding_share"] - row["paper_share"]) < 0.15


class TestTable2:
    def test_speedup_range(self, results):
        lo, hi = table2.speedup_range(results["table2"])
        # Paper: 2.5-5.4x.  Same order, overlapping range.
        assert 2.0 < lo < 3.0
        assert 3.5 < hi < 6.0
        assert hi > 0.7 * paper_data.TABLE2_SPEEDUP_RANGE[1]

    def test_fpga_beats_cpu_everywhere(self, results):
        for row in results["table2"].rows:
            if "speedup_vs_cpu_b2048" in row:
                assert row["speedup_vs_cpu_b2048"] > 2.0

    def test_microsecond_latency(self, results):
        for row in results["table2"].rows:
            if str(row["engine"]).startswith("FPGA"):
                # The paper's 16.3-31.0 us band, with margin.
                assert 10 < row["latency_ms"] * 1e3 < 40
            else:
                assert row["latency_ms"] > 3.0  # milliseconds


class TestTable3:
    def _row(self, results, model, cartesian):
        for row in results["table3"].rows:
            if row["model"] == model and row["cartesian"] == cartesian:
                return row
        raise AssertionError("row missing")

    @pytest.mark.parametrize("model", ["small", "large"])
    def test_rounds_match_paper_exactly(self, results, model):
        for label in ("without", "with"):
            row = self._row(results, model, label)
            assert row["dram_rounds"] == row["paper_rounds"]

    @pytest.mark.parametrize("model", ["small", "large"])
    def test_storage_overhead_marginal(self, results, model):
        row = self._row(results, model, "with")
        assert 1.0 < row["storage_rel"] < 1.04

    @pytest.mark.parametrize("model", ["small", "large"])
    def test_latency_ratio_close_to_paper(self, results, model):
        row = self._row(results, model, "with")
        assert row["latency_rel"] == pytest.approx(
            row["paper_latency_rel"], abs=0.13
        )
        assert row["latency_rel"] < 0.85


class TestTable4:
    def test_cartesian_beats_hbm_only(self, results):
        speedups = table4.speedups_at(results["table4"], 2048)
        for s in speedups.values():
            assert s["cartesian"] > s["hbm"]

    def test_b2048_speedups_same_order_as_paper(self, results):
        speedups = table4.speedups_at(results["table4"], 2048)
        assert speedups["small"]["cartesian"] == pytest.approx(13.82, rel=0.15)
        assert speedups["large"]["cartesian"] == pytest.approx(14.70, rel=0.15)

    def test_cartesian_extra_factor(self, results):
        """Contribution 2: Cartesian adds 1.39-1.69x on top of HBM."""
        speedups = table4.speedups_at(results["table4"], 2048)
        for s in speedups.values():
            extra = s["cartesian"] / s["hbm"]
            assert 1.2 < extra < 1.8


class TestTable5:
    def test_lookup_latencies_within_5pct(self, results):
        for row in results["table5"].rows:
            paper = row["paper_lookup_ns"]
            assert abs(row["lookup_ns"] - paper) < 0.05 * paper

    def test_twelve_tables_take_two_rounds(self, results):
        """One HBM round at 8 tables, two at 12, for every dim."""
        by_key = {(r["tables"], r["dim"]): r for r in results["table5"].rows}
        for dim in (4, 8, 16, 32, 64):
            ratio = by_key[(12, dim)]["lookup_ns"] / by_key[(8, dim)]["lookup_ns"]
            assert 1.8 < ratio < 2.2, dim

    def test_speedup_extremes(self, results):
        rows = results["table5"].rows
        best = max(r["speedup"] for r in rows)
        worst = min(r["speedup"] for r in rows)
        # Paper: 18.7-72.4x; keep the same order and orientation.
        assert 60 < best < 90
        assert 15 < worst < 30

    def test_best_case_is_8_tables_dim4(self, results):
        rows = results["table5"].rows
        best = max(rows, key=lambda r: r["speedup"])
        assert (best["tables"], best["dim"]) == (8, 4)

    def test_worst_case_is_12_tables_dim64(self, results):
        rows = results["table5"].rows
        worst = min(rows, key=lambda r: r["speedup"])
        assert (worst["tables"], worst["dim"]) == (12, 64)


class TestFigure7:
    def test_flat_then_decay(self, results):
        for model in ("small", "large"):
            series = {
                r["rounds"]: r["relative"]
                for r in results["figure7"].rows
                if r["model"] == model
            }
            assert series[2] == pytest.approx(1.0)
            assert series[3] == 1.0
            assert series[10] < 0.85
            # Monotone non-increasing.
            vals = [series[r] for r in sorted(series)]
            assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_tolerated_rounds_close_to_paper(self, results):
        for row in results["figure7"].rows:
            assert abs(row["tolerated_rounds"] - row["paper_tolerated"]) <= 2

    def test_small_tolerates_more_than_large(self, results):
        tol = {
            r["model"]: r["tolerated_rounds"] for r in results["figure7"].rows
        }
        assert tol["small"] >= tol["large"]
        assert tol["small"] >= 4 and tol["large"] >= 3


class TestTable6:
    def test_totals_within_3pct(self, results):
        for row in results["table6"].rows:
            for res in ("bram", "dsp", "ff", "lut", "uram"):
                paper = row[f"paper_{res}"]
                assert abs(row[res] - paper) < 0.03 * paper, res

    def test_frequencies_exact(self, results):
        for row in results["table6"].rows:
            assert row["freq_mhz"] == row["paper_freq"]

    def test_bram_utilisation_high(self, results):
        """High utilisation is the paper's explanation for 120-140 MHz."""
        for row in results["table6"].rows:
            assert row["bram_util"] > 0.7


class TestCost:
    def test_fpga_cheaper_per_inference(self, results):
        for row in results["cost"].rows:
            if str(row["engine"]).startswith("FPGA"):
                assert row["cost_ratio_vs_cpu"] < 0.5


class TestCompression:
    @pytest.mark.parametrize("model", ["small", "large"])
    def test_int8_shrinks_storage_and_lookups(self, results, model):
        rows = {
            (r["model"], r["tables"], r["cartesian"]): r
            for r in results["compression"].rows
        }
        fp32 = rows[(model, "fp32", "without")]
        int8 = rows[(model, "int8", "without")]
        assert int8["storage_gb"] < fp32["storage_gb"] / 2.5
        assert int8["dram_rounds"] <= fp32["dram_rounds"]
        assert int8["lookup_ns"] < fp32["lookup_ns"]
        # Compression + merging is never worse than compression alone.
        both = rows[(model, "int8", "with")]
        assert both["lookup_ns"] <= int8["lookup_ns"] + 1e-9


class TestCacheStudy:
    def test_hit_rate_needs_skew_and_capacity(self, results):
        rows = {
            (r["zipf_alpha"], r["cache_rows"]): r
            for r in results["cache_study"].rows
        }
        # No skew, no benefit; skew + capacity, big win.
        assert rows[(0.0, 256)]["hit_rate"] < 0.05
        assert rows[(1.3, 4096)]["hit_rate"] > 0.6
        skewed = rows[(1.3, 4096)]
        assert skewed["effective_ns"] < skewed["uncached_ns"] * 0.7


class TestTraceScale:
    def test_replays_ten_million_arrivals(self, results):
        for row in results["trace_scale"].rows:
            assert row["queries"] >= 9_900_000

    def test_completes_within_generous_ceiling(self, results):
        # The precise gate lives in CI's perf-gate job (wall-clock
        # budgets in BENCH_ci_baseline.json); this is a coarse backstop
        # so a 100x regression fails even without the bench harness.
        total = sum(r["wall_s"] for r in results["trace_scale"].rows)
        assert total < 30.0

    def test_served_stages_meet_sanity_latency(self, results):
        rows = {r["stage"]: r for r in results["trace_scale"].rows}
        assert rows["pipelined serve (fpga)"]["p50_ms"] < 1.0
        routed = next(
            r for s, r in rows.items() if s.startswith("routed cluster")
        )
        assert routed["sla_attainment"] > 0.9


class TestShardedFleet:
    def test_replication_infeasible_sharding_meets_slo(self, results):
        rows = {r["fleet"]: r for r in results["sharded_fleet"].rows}
        replicated = [r for name, r in rows.items() if "replicate" in name]
        assert replicated and all(r["feasible"] == "no" for r in replicated)
        (sharded,) = [r for name, r in rows.items() if "sharded" in name]
        assert sharded["feasible"] == "yes"
        assert sharded["fanout"] > 1
        assert sharded["peak_node_util"] <= 1.0
        from repro.experiments.sharded_fleet import SLO_MS

        assert sharded["p99_ms"] <= SLO_MS
        assert sharded["sla_attainment"] >= 0.99


class TestQueuingExperiment:
    @pytest.fixture
    def result(self, results):
        return results["queuing"]

    def test_four_configurations(self, result):
        assert len(result.rows) == 4

    def test_cartesian_benefit_survives_queuing(self, result):
        """The merging win must come from access-count reduction, not from
        the idealised timing model."""
        for row in result.rows:
            if "cartesian_benefit_queued" in row:
                ideal = row["cartesian_benefit_ideal"]
                queued = row["cartesian_benefit_queued"]
                assert queued < 0.95  # still a real improvement
                assert queued == pytest.approx(ideal, abs=0.1)

    def test_queued_close_to_ideal(self, result):
        """The calibrated analytical model already absorbs most controller
        cost; the queued simulation stays within 20%."""
        for row in result.rows:
            assert row["queuing_penalty"] == pytest.approx(1.0, abs=0.2)


class TestServingSlaExperiment:
    @pytest.fixture
    def result(self, results):
        return results["serving_sla"]

    def _capacity_row(self, result):
        return next(r for r in result.rows if r["engine"] == "sla-capacity")

    def test_fpga_capacity_far_exceeds_cpu(self, result):
        cap = self._capacity_row(result)
        assert cap["fpga_capacity_per_s"] >= 5 * cap["cpu_capacity_per_s"]

    def test_fpga_sub_millisecond_tails(self, result):
        for row in result.rows:
            if row["engine"] == "fpga-pipelined":
                assert row["p99_ms"] < 1.0

    def test_cpu_millisecond_floors(self, result):
        """Batching puts a multi-millisecond floor under CPU latency even
        at trivial load — the paper's section 4.1 point."""
        light = [
            r
            for r in result.rows
            if r["engine"] == "cpu-batched" and r["rate_per_s"] == 1_000
        ][0]
        assert light["p50_ms"] > 3.0


class TestQuantizationExperiment:
    @pytest.fixture
    def result(self, results):
        return results["quantization"]

    def test_model_learns(self, result):
        fp32 = next(r for r in result.rows if r["precision"] == "fp32")
        assert fp32["auc"] > 0.62

    def test_fixed_point_drops_negligible(self, result):
        for row in result.rows:
            if row["precision"] != "fp32":
                assert abs(row["auc_drop_vs_fp32"]) < 5e-3


class TestRelatedWorkExperiment:
    @pytest.fixture
    def result(self, results):
        return results["related_work"]

    def test_gpu_crossover_exists(self, result):
        """GPU slower than CPU at some small batch, faster at some large
        batch — the DeepRecSys observation."""
        rows = {r["batch"]: r for r in result.rows if r["batch"] != "microrec"}
        assert rows[64]["gpu_ms"] > rows[64]["cpu_ms"]
        assert rows[8192]["gpu_items_s"] > rows[8192]["cpu_items_s"]

    def test_nmp_between_cpu_and_microrec(self, result):
        rows = {r["batch"]: r for r in result.rows if r["batch"] != "microrec"}
        micro = next(r for r in result.rows if r["batch"] == "microrec")
        assert rows[2048]["nmp_items_s"] > rows[2048]["cpu_items_s"]
        assert micro["fpga_items_s"] > rows[2048]["nmp_items_s"]

    def test_microrec_lowest_latency(self, result):
        micro = next(r for r in result.rows if r["batch"] == "microrec")
        others = [
            r[k]
            for r in result.rows
            if r["batch"] != "microrec"
            for k in ("cpu_ms", "gpu_ms", "nmp_ms")
        ]
        assert micro["fpga_latency_ms"] < min(others) / 10
