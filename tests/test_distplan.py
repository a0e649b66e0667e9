"""Tests for :mod:`repro.distplan`: strategy registry, planner,
fan-out executor, sharded cluster serving, and the plan-shards CLI."""

import json

import numpy as np
import pytest

from repro.cluster import ReplicaSpec
from repro.core.tables import TableSpec, make_tables
from repro.distplan import (
    NodeView,
    ShardingPlan,
    ShardingPlanError,
    TableShard,
    UnknownShardingStrategyError,
    available_strategies,
    deploy_sharded,
    get_strategy,
    plan_sharding,
    register_strategy,
    sharded_lookup_for,
)
from repro.distplan import strategies as strategies_module
from repro.models.spec import ModelSpec


def nodes_of(*capacities, backend="fpga", latency_ms=1.0):
    """A synthetic topology; latency rises with the index so scoring
    and owner selection are deterministic and observable."""
    return tuple(
        NodeView(
            index=i,
            backend=backend,
            capacity_bytes=c,
            serving_latency_ms=latency_ms * (1.0 + 0.1 * i),
            ii_ns=100.0,
            usd_per_hour=1.0,
        )
        for i, c in enumerate(capacities)
    )


def toy_model():
    # 3,200 + 4,112 + 1,984 = 9,296 B; table 1 is the big one.
    return ModelSpec(
        name="toy",
        tables=(
            TableSpec(0, rows=100, dim=8),
            TableSpec(1, rows=257, dim=4),
            TableSpec(2, rows=31, dim=16),
        ),
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_strategies()) >= {
            "table-wise",
            "row-wise",
            "column-wise",
        }
        for name in available_strategies():
            assert get_strategy(name).name == name

    def test_unknown_strategy_names_registered(self):
        with pytest.raises(
            UnknownShardingStrategyError, match="registered strategies"
        ) as exc:
            get_strategy("diagonal")
        assert "table-wise" in str(exc.value)

    def test_register_requires_name(self):
        with pytest.raises(ValueError, match="str .name"):
            register_strategy(object())  # type: ignore[arg-type]

    def test_duplicate_requires_replace(self, monkeypatch):
        monkeypatch.setattr(
            strategies_module._REGISTRY,
            "entries",
            dict(strategies_module._REGISTRY.entries),
        )

        class Dummy:
            name = "table-wise"

            def propose(self, tables, nodes):
                return ()

        with pytest.raises(ValueError, match="replace=True"):
            register_strategy(Dummy())
        assert register_strategy(Dummy(), replace=True).name == "table-wise"


class TestStrategies:
    def test_table_wise_places_whole_tables(self):
        model = toy_model()
        shards = get_strategy("table-wise").propose(
            model.tables, nodes_of(6000, 6000)
        )
        assert len(shards) == len(model.tables)
        assert all(s.rows == model.specs_by_id()[s.original_id].rows
                   for s in shards)

    def test_table_wise_suggests_splitting(self):
        model = toy_model()
        with pytest.raises(ShardingPlanError, match="splitting strategy"):
            get_strategy("table-wise").propose(
                model.tables, nodes_of(3000, 3000, 3000, 3000)
            )

    def test_row_wise_splits_rows(self):
        model = toy_model()
        shards = get_strategy("row-wise").propose(
            model.tables, nodes_of(3000, 3000, 3000, 3000)
        )
        big = [s for s in shards if s.original_id == 1]
        assert len(big) > 1
        assert sum(s.rows for s in big) == 257
        assert all(s.dim == 4 for s in big)

    def test_column_wise_splits_columns(self):
        model = toy_model()
        shards = get_strategy("column-wise").propose(
            model.tables, nodes_of(3000, 3000, 3000, 3000)
        )
        big = [s for s in shards if s.original_id == 1]
        assert len(big) > 1
        assert sum(s.dim for s in big) == 4
        assert all(s.rows == 257 for s in big)


class TestPlanner:
    def test_auto_enumerates_and_validates(self):
        plan = plan_sharding(toy_model(), nodes_of(3000, 3000, 3000, 3000))
        assert plan.strategy in available_strategies()
        assert plan.fanout >= 2
        assert max(plan.node_utilisation()) <= 1.0
        assert plan.score is not None

    def test_named_strategy_is_used(self):
        plan = plan_sharding(
            toy_model(), nodes_of(6000, 6000), "table-wise"
        )
        assert plan.strategy == "table-wise"

    def test_unknown_strategy_raises(self):
        with pytest.raises(UnknownShardingStrategyError):
            plan_sharding(toy_model(), nodes_of(6000, 6000), "diagonal")

    def test_table_exceeding_cluster_names_the_capacity(self):
        # Satellite: the failure mode names table, bytes, and total
        # cluster capacity — the whole capacity story in one message.
        with pytest.raises(ShardingPlanError) as exc:
            plan_sharding(toy_model(), nodes_of(1000, 1000))
        message = str(exc.value)
        assert "table 0" in message
        assert "3200 B" in message
        assert "2000 B" in message
        assert "2 node(s)" in message

    def test_plan_validation_rejects_overflow(self):
        nodes = nodes_of(1000)
        plan = ShardingPlan(
            model="toy",
            strategy="table-wise",
            shards=(
                TableShard(
                    original_id=0,
                    node=0,
                    row_start=0,
                    rows=100,
                    dim_start=0,
                    dim=8,
                    dtype_bytes=4,
                ),
            ),
            nodes=nodes,
        )
        with pytest.raises(ShardingPlanError, match="node 0"):
            plan.validate()

    def test_plan_as_dict_deterministic(self):
        dumps = [
            json.dumps(
                plan_sharding(
                    toy_model(), nodes_of(3000, 3000, 3000, 3000)
                ).as_dict(),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert dumps[0] == dumps[1]


class TestExecutor:
    @pytest.mark.parametrize("strategy", ["row-wise", "column-wise"])
    def test_byte_identical_to_unsharded(self, strategy):
        model = toy_model()
        plan = plan_sharding(
            model, nodes_of(3000, 3000, 3000, 3000), strategy
        )
        executor = sharded_lookup_for(model, plan, seed=0)
        oracle = make_tables(model.tables, seed=0)
        for table in model.tables:
            idx = np.arange(table.rows)
            np.testing.assert_array_equal(
                executor.lookup(table.table_id, idx),
                oracle[table.table_id].lookup(idx),
            )

    def test_owners_reported(self):
        model = toy_model()
        plan = plan_sharding(
            model, nodes_of(3000, 3000, 3000, 3000), "row-wise"
        )
        executor = sharded_lookup_for(model, plan, seed=0)
        owners = executor.owners_for(1, np.arange(257))
        assert owners == tuple(
            sorted({s.node for s in plan.shards_of(1)})
        )

    def test_bounds_checked(self):
        model = toy_model()
        plan = plan_sharding(model, nodes_of(6000, 6000))
        executor = sharded_lookup_for(model, plan, seed=0)
        with pytest.raises(IndexError):
            executor.lookup(0, np.array([100]))


class TestShardedCluster:
    @pytest.fixture(scope="class")
    def cluster(self):
        return deploy_sharded(
            "small",
            [ReplicaSpec(backend="fpga", count=4)],
            slo_ms=30.0,
            max_rows=256,
            node_capacity_bytes=512 * 1024 * 1024,
        )

    def test_plan_spans_nodes(self, cluster):
        assert cluster.plan.fanout > 1
        assert len(cluster.plan.nodes) == 4
        # Plan is on the full spec, not the row-capped sessions.
        assert cluster.plan.total_bytes > 1e9

    def test_perf_is_fanout_aware(self, cluster):
        perf = cluster.perf()
        assert perf.bottleneck.startswith("fan-out")
        replica = cluster.replicas[0].perf()
        assert perf.serving_latency_ms >= replica.serving_latency_ms
        assert perf.throughput_items_per_s <= replica.throughput_items_per_s

    def test_serve_reports_fanout(self, cluster):
        rate = 0.5 * cluster.perf().throughput_items_per_s
        arrivals = np.sort(
            np.random.default_rng(0).uniform(0, 2e7, size=200)
        )
        result = cluster.serve(arrivals)
        assert result.router == "fanout"
        assert result.fanout == cluster.plan.fanout
        assert result.strategy == cluster.plan.strategy
        out = result.as_dict(30.0)
        assert out["router"] == "fanout"
        assert out["fanout"] == cluster.plan.fanout
        assert rate > 0

    def test_summary_carries_plan_facts(self, cluster):
        summary = cluster.summary()
        assert summary["router"] == "fanout"
        assert summary["strategy"] == cluster.plan.strategy
        assert summary["fanout"] == cluster.plan.fanout
        assert 0 < summary["max_node_utilisation"] <= 1.0

    def test_unknown_strategy_fails_before_build(self):
        with pytest.raises(UnknownShardingStrategyError):
            deploy_sharded(
                "small",
                [ReplicaSpec(backend="fpga")],
                "diagonal",
                max_rows=256,
            )

    def test_replication_infeasible_model_still_plans(self):
        # The whole point: a model larger than any node still deploys.
        cluster = deploy_sharded(
            "small",
            [ReplicaSpec(backend="fpga", count=8)],
            slo_ms=30.0,
            max_rows=256,
            node_capacity_bytes=256 * 1024 * 1024,
        )
        total = cluster.plan.total_bytes
        assert total > 256 * 1024 * 1024  # no single node could hold it
        assert max(cluster.plan.node_utilisation()) <= 1.0


class TestCli:
    def test_plan_shards_json_deterministic(self, capsys):
        from repro.cli import main

        argv = [
            "plan-shards",
            "small",
            "--tier",
            "fpga:2",
            "--node-gb",
            "0.7",
            "--max-rows",
            "256",
            "--duration-s",
            "0.05",
            "--seed",
            "7",
            "--json",
        ]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        payload = json.loads(outs[0])
        assert payload["plan"]["fanout"] >= 1
        assert payload["result"]["router"] == "fanout"

    def test_plan_shards_unknown_strategy_exits_2(self, capsys):
        from repro.cli import main

        assert main(
            ["plan-shards", "small", "--strategy", "bogus", "--json"]
        ) == 2
        assert "unknown sharding strategy" in capsys.readouterr().err

    def test_plan_shards_infeasible_exits_2(self, capsys):
        from repro.cli import main

        assert main(
            [
                "plan-shards",
                "small",
                "--tier",
                "fpga:2",
                "--node-gb",
                "0.05",
                "--json",
            ]
        ) == 2
        assert "exceeding" in capsys.readouterr().err

    def test_help_epilog_lists_strategies(self):
        from repro.cli import _registry_epilog

        epilog = _registry_epilog()
        assert "sharding strategies" in epilog
        for name in available_strategies():
            assert name in epilog
