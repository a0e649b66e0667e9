"""The top-level blocks of a benchmark artifact, one class each.

Past the per-(model, backend) ``results``, a ``BENCH_<name>.json``
payload carries one top-level block per simulated layer: the routed
cluster, the elastic fleet, the sharded fleet, tiered storage and the
telemetry plane.  Each is a :class:`BenchBlock` that owns everything
about itself — its payload key and ``regressions`` label, the
:class:`Knob` fields of :class:`~repro.bench.runner.BenchConfig` it reads
(each constraint declared once, applied by the config and the validator
alike) with their ``repro bench`` flags, and how it runs, validates,
summarises and flattens into compared metrics.  The runner, validator,
``--compare``, CLI and CI loop over :data:`BLOCKS`; adding a block is one
class here plus its entry in that tuple (and a schema version bump).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterator

import numpy as np

from repro.autoscale import available_scalers, simulate_autoscale
from repro.cluster import ReplicaSpec, available_policies, deploy_cluster
from repro.distplan import (
    AUTO_STRATEGY,
    FANOUT_ROUTER,
    available_strategies,
    deploy_sharded,
)
from repro.memory.tiers import available_cache_policies, scaled_tier_hierarchy
from repro.runtime import available_backends, deploy_model
from repro.serving.arrivals import diurnal_trace, poisson_arrivals
from repro.serving.lab import lab_seed, tiering_lab
from repro.serving.popularity import DEFAULT_ALPHA, PopularityModel
from repro.telemetry import Telemetry

from repro.bench.schema import (
    _check_curve,
    _check_fraction,
    _check_int,
    _check_number,
    _check_str,
    _check_str_list,
    _fail,
    _get,
)

if TYPE_CHECKING:
    import argparse

    from repro.bench.runner import BenchConfig


def _anything(value: Any) -> bool:
    return True


@dataclass(frozen=True)
class Knob:
    """One ``BenchConfig`` field: its JSON type, one constraint, one flag."""

    name: str
    #: JSON type of the value in the artifact's ``config``: ``bool``,
    #: ``int``, ``float`` (any finite number), ``str``, or ``list`` (of
    #: non-empty strings).
    kind: type
    #: The constraint, and the message naming a violation (formatted
    #: with ``name`` and ``value``).
    ok: Callable[[Any], bool] = _anything
    rule: str = ""
    #: Whether null (``None``) is a legal value; it skips the constraint.
    optional: bool = False
    #: The ``repro bench`` flag setting this knob: ``(flag, argparse
    #: keyword arguments)``; ``None`` when the knob has no flag.
    flag: tuple[str, dict[str, Any]] | None = None

    def problem(self, value: Any) -> str | None:
        """The violation message for ``value``, or ``None`` when legal."""
        if (value is None and self.optional) or self.ok(value):
            return None
        return self.rule.format(name=self.name, value=value)


_POSITIVE: dict[str, Any] = {
    "ok": lambda value: value > 0,
    "rule": "{name} must be positive, got {value}",
}

#: The one config knob no block owns: it stamps the per-(model, backend)
#: results' wall-clock budgets (``None`` leaves them unbudgeted).
WALL_CLOCK_BUDGET_MULTIPLIER = Knob(
    "wall_clock_budget_multiplier", float, **_POSITIVE, optional=True
)


def _first_session(config: BenchConfig) -> Any:
    """The first swept model deployed on the first swept backend."""
    return deploy_model(
        config.models[0],
        backend=config.resolved_backends()[0],
        max_rows=config.max_rows,
        seed=config.seed,
    )


def _tiered_session(config: BenchConfig) -> Any:
    """:func:`_first_session` bound to the configured tier hierarchy.

    The hot tier holds only ``tiering_hot_fraction`` of the model's rows
    under Zipf(``tiering_alpha``) popularity; simulation sizes are capped
    so the tiered blocks stay CI-priced.
    """
    session = _first_session(config)
    rows = sum(t.rows for t in session.model.tables)
    session.attach_tiers(
        scaled_tier_hierarchy(
            rows,
            policy=config.tiering_policy,
            hot_fraction=config.tiering_hot_fraction,
            warm_accesses=4096,
            sim_queries=512,
        ),
        popularity=PopularityModel(rows=rows, alpha=config.tiering_alpha),
        seed=config.seed,
    )
    return session


def _poisson_window(
    config: BenchConfig, surface: Any, tag: str
) -> tuple[float, np.ndarray]:
    """One poisson window at ``cluster_utilisation`` of ``surface``.

    Returns the offered rate and the arrivals, drawn from a generator
    seeded by the run seed, the surface's backend and the block's
    ``tag``.
    """
    rate = config.cluster_utilisation * surface.perf().throughput_items_per_s
    rng = np.random.default_rng(lab_seed(config.seed, surface.backend, tag))
    return rate, poisson_arrivals(rng, rate, config.serve_duration_s)


def _check_served(block: dict, path: str) -> None:
    """Fields of every block that serves a window: model, tiers, load."""
    _check_str(block, path, "model")
    _check_str_list(block, path, "tiers")
    _check_number(block, path, "rate_per_s", minimum=0, exclusive=True)
    _check_number(block, path, "utilisation", minimum=0, exclusive=True)
    _check_number(block, path, "duration_s", minimum=0, exclusive=True)


def _check_object(obj: dict, path: str, key: str) -> dict:
    value = _get(obj, path, key)
    if not isinstance(value, dict):
        _fail(f"{path}.{key}", f"expected an object, got {value!r}")
    return value


def _check_shares(obj: dict, path: str, key: str) -> dict:
    """A non-empty object of fractions in [0, 1]."""
    shares = _get(obj, path, key)
    if not isinstance(shares, dict) or not shares:
        _fail(f"{path}.{key}", f"expected a non-empty object, got {shares!r}")
    for name in shares:
        _check_fraction(shares, f"{path}.{key}", name)
    return shares


class BenchBlock:
    """One top-level artifact block; the subclasses below fill it in."""

    #: Payload key (``$.<key>``); also names the ``--no-<key>`` flag.
    key: ClassVar[str]
    #: ``model/backend``-style label of the block's ``regressions`` lines.
    label: ClassVar[str]
    #: The ``BenchConfig`` fields the block owns, in config order.
    knobs: ClassVar[tuple[Knob, ...]]
    #: The knob whose falsy value disables the block, and that value.
    switch: ClassVar[str]
    off: ClassVar[object] = ""
    #: Compared metrics and the direction that counts as a regression.
    directions: ClassVar[dict[str, str]]

    def enabled(self, config: BenchConfig | dict) -> bool:
        """Whether the block runs (and so is non-null) under ``config``.

        ``config`` is a ``BenchConfig`` or an artifact's ``config`` object.
        """
        if isinstance(config, dict):
            return bool(config[self.switch])
        return bool(getattr(config, self.switch))

    def check_names(self, config: BenchConfig) -> None:
        """Reject unregistered names before anything runs."""

    def run(self, config: BenchConfig) -> dict[str, object]:
        raise NotImplementedError

    def validate(self, block: dict, path: str, config: dict) -> None:
        """Check a non-null block (already known to be an object)."""
        raise NotImplementedError

    def summary(self, block: dict) -> str:
        """The progress line's tail after ``bench <key> ``."""
        raise NotImplementedError

    def metrics(self, block: dict) -> dict[str, float]:
        """The block flattened into the scalars ``--compare`` diffs."""
        raise NotImplementedError

    def flags(self) -> Iterator[tuple[str, str, dict[str, Any]]]:
        """``(flag, dest, argparse keyword arguments)`` of its flags."""
        for knob in self.knobs:
            if knob.flag is not None:
                yield knob.flag[0], knob.name, knob.flag[1]
        yield f"--no-{self.key}", f"no_{self.key}", {
            "action": "store_true",
            "help": f'omit the {self.key} block ("{self.key}": null in '
            "the artifact)",
        }

    def overrides(self, args: argparse.Namespace) -> dict[str, object]:
        """``BenchConfig`` overrides from parsed ``repro bench`` flags.

        Raises ``ValueError`` when ``--no-<key>`` meets the flag of the
        block's switch knob.
        """
        off = getattr(args, f"no_{self.key}")
        out: dict[str, object] = {}
        for knob in self.knobs:
            value = getattr(args, knob.name) if knob.flag else None
            if value is None or value == "":
                continue
            if off and knob.name == self.switch:
                raise ValueError(
                    f"--no-{self.key} and {knob.flag[0]} are mutually "
                    "exclusive"
                )
            out[knob.name] = tuple(value) if isinstance(value, list) else value
        if off:
            out[self.switch] = self.off
        return out


def _check_cluster_tier(tier: object, path: str) -> None:
    if not isinstance(tier, dict):
        _fail(path, f"expected an object, got {tier!r}")
    _check_int(tier, path, "replicas", minimum=1)
    _check_int(tier, path, "queries")
    _check_fraction(tier, path, "share")
    if tier["queries"] > 0:
        # Latency statistics only exist for tiers that served queries;
        # an idle overflow tier legitimately carries counts alone.
        for key in ("p50_ms", "p99_ms", "p999_ms"):
            _check_number(tier, path, key, minimum=0, exclusive=True)
        _check_fraction(tier, path, "sla_attainment")


def _check_cluster_result(block: dict, path: str) -> dict:
    """A blended + per-tier serving result (cluster and sharding blocks)."""
    rpath = f"{path}.result"
    result = _check_object(block, path, "result")
    _check_str(result, rpath, "router")
    _check_int(result, rpath, "queries", minimum=1)
    blended = _check_object(result, rpath, "blended")
    for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms", "p999_ms",
                "achieved_qps"):
        _check_number(
            blended, f"{rpath}.blended", key, minimum=0, exclusive=True
        )
    _check_fraction(blended, f"{rpath}.blended", "sla_attainment")
    tiers = _get(result, rpath, "tiers")
    if not isinstance(tiers, dict) or not tiers:
        _fail(f"{rpath}.tiers", f"expected a non-empty object, got {tiers!r}")
    for name, tier in tiers.items():
        if not isinstance(name, str) or not name:
            _fail(f"{rpath}.tiers", f"tier keys must be strings, got {name!r}")
        _check_cluster_tier(tier, f"{rpath}.tiers.{name}")
    _check_number(result, rpath, "usd_per_hour", minimum=0, exclusive=True)
    _check_number(result, rpath, "usd_per_million_queries", minimum=0)
    return result


class ClusterBlock(BenchBlock):
    """The v3 routed-cluster block: one heterogeneous serve per sweep.

    One replica per configured tier, first swept model, served at a
    fixed fraction of the cluster's summed capacity under the configured
    router — enough for ``--compare`` to track blended tail latency and
    $/M-queries of the routed fleet across commits.
    """

    key = "cluster"
    label = "cluster/routed"
    switch = "cluster_backends"
    off = ()
    knobs = (
        #: One replica per tier, all serving the first swept model.
        Knob(
            "cluster_backends", list,
            ok=lambda value: len(set(value)) == len(value),
            rule="duplicate {name} in {value}",
            flag=("--cluster-backend", {
                "action": "append", "metavar": "NAME",
                "help": "tier of the v3 cluster block (repeatable; "
                "default: the --backend selection, or fpga gpu cpu when "
                "unrestricted)",
            }),
        ),
        Knob(
            "cluster_router", str, ok=bool,
            rule="{name} must be a non-empty string, got {value!r}",
            flag=("--cluster-router", {
                "help": "routing policy of the cluster block (default "
                "sla-aware)",
            }),
        ),
        #: Offered load as a fraction of the summed capacity (the
        #: sharding and telemetry windows are offered the same).
        Knob("cluster_utilisation", float, **_POSITIVE),
    )
    directions: ClassVar[dict[str, str]] = {
        "p99_ms": "higher-is-worse",
        "sla_attainment": "lower-is-worse",
        "usd_per_million_queries": "higher-is-worse",
    }

    def check_names(self, config: BenchConfig) -> None:
        registered = available_backends()
        unknown = [b for b in config.cluster_backends if b not in registered]
        if unknown:
            raise ValueError(
                f"unknown backend(s) {unknown}; "
                f"registered: {sorted(registered)}"
            )
        if config.cluster_router not in available_policies():
            raise ValueError(
                f"unknown cluster_router {config.cluster_router!r}; "
                f"registered: {sorted(available_policies())}"
            )

    def overrides(self, args: argparse.Namespace) -> dict[str, object]:
        out = super().overrides(args)
        if args.backend and self.switch not in out:
            # A restricted sweep should not silently build engines
            # outside it: the cluster block follows the --backend filter
            # unless the tiers are chosen explicitly.
            out[self.switch] = tuple(args.backend)
        return out

    def run(self, config: BenchConfig) -> dict[str, object]:
        cluster = deploy_cluster(
            [
                ReplicaSpec(model=config.models[0], backend=backend)
                for backend in config.cluster_backends
            ],
            router=config.cluster_router,
            slo_ms=config.slo_ms,
            max_rows=config.max_rows,
            seed=config.seed,
        )
        rate, arrivals = _poisson_window(config, cluster, "bench-cluster")
        result = cluster.serve(arrivals)
        return {
            "model": config.models[0],
            "tiers": list(config.cluster_backends),
            "router": config.cluster_router,
            "rate_per_s": rate,
            "utilisation": config.cluster_utilisation,
            "duration_s": config.serve_duration_s,
            "slo_ms": config.slo_ms,
            "result": result.as_dict(config.slo_ms),
        }

    def validate(self, block: dict, path: str, config: dict) -> None:
        _check_served(block, path)
        _check_str(block, path, "router")
        _check_number(block, path, "slo_ms", minimum=0, exclusive=True)
        _check_cluster_result(block, path)

    def summary(self, block: dict) -> str:
        blended = block["result"]["blended"]
        return (
            f"{'+'.join(block['tiers'])} ({block['router']}): "
            f"p99 {blended['p99_ms']:.3f} ms, "
            f"SLA {blended['sla_attainment']:.1%} @ "
            f"{block['rate_per_s']:,.0f}/s"
        )

    def metrics(self, block: dict) -> dict[str, float]:
        result = block["result"]
        return {
            "p99_ms": result["blended"]["p99_ms"],
            "sla_attainment": result["blended"]["sla_attainment"],
            "usd_per_million_queries": result["usd_per_million_queries"],
        }


def _check_autoscale_window(window: object, path: str) -> None:
    if not isinstance(window, dict):
        _fail(path, f"expected an object, got {window!r}")
    _check_int(window, path, "index")
    _check_int(window, path, "nodes", minimum=1)
    _check_int(window, path, "pending_nodes")
    _check_int(window, path, "desired_nodes", minimum=1)
    _check_int(window, path, "queries")
    _check_number(window, path, "t_s", minimum=0)
    _check_number(window, path, "interval_s", minimum=0, exclusive=True)
    _check_number(window, path, "offered_rate_per_s", minimum=0)
    _check_number(window, path, "utilisation", minimum=0)
    _check_number(window, path, "queue_depth", minimum=0)
    for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms", "tail_ms"):
        _check_number(window, path, key, minimum=0, exclusive=True)
    _check_fraction(window, path, "sla_attainment")
    _check_fraction(window, path, "overflow_share")
    # v7: nodes serving with not-yet-warm tier caches (0 on flat runs).
    _check_int(window, path, "cold_nodes")


class AutoscaleBlock(BenchBlock):
    """The v4 elastic-fleet block: one autoscaled trace replay per sweep.

    The first swept model on the first swept backend, driven through a
    diurnal trace (base rate: eight nodes' worth of capacity, the range
    where fleet sizes stay legible) by the configured scaler policy —
    enough for ``--compare`` to track blended elastic cost and SLA
    attainment (and the savings against the peak-sized static fleet)
    across commits.
    """

    key = "autoscale"
    label = "autoscale/elastic"
    switch = "autoscale_policy"
    knobs = (
        Knob("autoscale_policy", str, flag=("--autoscale-policy", {
            "metavar": "NAME",
            "help": "scaler policy of the v4 autoscale block (default "
            "reactive-utilisation)",
        })),
        #: The horizon in control windows, each ``serve_duration_s`` long.
        Knob("autoscale_windows", int, **_POSITIVE, flag=(
            "--autoscale-windows", {
                "type": int, "metavar": "N",
                "help": "control windows of the autoscale block "
                "(default 12)",
            },
        )),
    )
    directions: ClassVar[dict[str, str]] = {
        "mean_nodes": "higher-is-worse",
        "usd_per_hour": "higher-is-worse",
        "usd_per_million_queries": "higher-is-worse",
        "sla_attainment": "lower-is-worse",
    }

    def check_names(self, config: BenchConfig) -> None:
        if config.autoscale_policy not in available_scalers():
            raise ValueError(
                f"unknown autoscale_policy {config.autoscale_policy!r}; "
                f"registered: {sorted(available_scalers())}"
            )

    def run(self, config: BenchConfig) -> dict[str, object]:
        session = _first_session(config)
        trace = diurnal_trace(
            8.0 * session.perf().throughput_items_per_s,
            config.autoscale_windows * config.serve_duration_s,
            amplitude=0.6,
        )
        result = simulate_autoscale(
            session,
            trace,
            policy=config.autoscale_policy,
            slo_ms=config.slo_ms,
            windows=config.autoscale_windows,
            seed=config.seed,
        )
        return {
            "model": config.models[0],
            "backend": config.resolved_backends()[0],
            "policy": config.autoscale_policy,
            "windows": config.autoscale_windows,
            "slo_ms": config.slo_ms,
            "result": result.as_dict(),
        }

    def validate(self, block: dict, path: str, config: dict) -> None:
        _check_str(block, path, "model")
        _check_str(block, path, "backend")
        _check_str(block, path, "policy")
        _check_int(block, path, "windows", minimum=1)
        _check_number(block, path, "slo_ms", minimum=0, exclusive=True)
        rpath = f"{path}.result"
        result = _check_object(block, path, "result")
        _check_str(result, rpath, "backend")
        _check_str(result, rpath, "policy")
        for key in ("slo_ms", "slo_percentile", "per_node_qps",
                    "node_usd_per_hour"):
            _check_number(result, rpath, key, minimum=0, exclusive=True)
        _check_int(result, rpath, "min_nodes", minimum=1)
        _check_int(result, rpath, "max_nodes", minimum=1)
        _check_number(result, rpath, "provision_delay_s", minimum=0)
        _check_number(result, rpath, "cooldown_s", minimum=0)
        trace = _check_object(result, rpath, "trace")
        for key in ("mean_rate_per_s", "peak_rate_per_s", "duration_s"):
            _check_number(
                trace, f"{rpath}.trace", key, minimum=0, exclusive=True
            )
        timeline = _get(result, rpath, "timeline")
        if not isinstance(timeline, list) or not timeline:
            _fail(
                f"{rpath}.timeline",
                f"expected a non-empty list, got {timeline!r}",
            )
        for i, window in enumerate(timeline):
            _check_autoscale_window(window, f"{rpath}.timeline[{i}]")
        apath = f"{rpath}.aggregate"
        aggregate = _check_object(result, rpath, "aggregate")
        _check_number(
            aggregate, apath, "mean_nodes", minimum=0, exclusive=True
        )
        _check_int(aggregate, apath, "peak_nodes", minimum=1)
        _check_int(aggregate, apath, "min_nodes", minimum=1)
        _check_int(aggregate, apath, "scaling_actions")
        for key in ("node_hours", "usd_total", "usd_per_hour",
                    "worst_tail_ms"):
            _check_number(aggregate, apath, key, minimum=0, exclusive=True)
        _check_number(aggregate, apath, "usd_per_million_queries", minimum=0)
        _check_number(aggregate, apath, "offered_queries", minimum=0)
        _check_fraction(aggregate, apath, "sla_attainment")
        _check_fraction(aggregate, apath, "overflow_share")
        if _get(aggregate, apath, "usd_savings_vs_static") is not None:
            # Savings may legitimately be negative (elasticity cost
            # more); only the type and finiteness are pinned.
            _check_number(aggregate, apath, "usd_savings_vs_static")
        static = _get(result, rpath, "static_baseline")
        if static is not None:
            # null means the SLO sits below the engine's latency floor —
            # no static fleet size can meet it, a legitimate result.
            spath = f"{rpath}.static_baseline"
            if not isinstance(static, dict):
                _fail(spath, f"expected null or an object, got {static!r}")
            _check_int(static, spath, "nodes", minimum=1)
            _check_int(static, spath, "throughput_only_nodes", minimum=1)
            for key in ("usd_per_hour", "usd_total"):
                _check_number(static, spath, key, minimum=0, exclusive=True)
            _check_number(static, spath, "usd_per_million_queries", minimum=0)
            _check_fraction(static, spath, "sla_attainment")

    def summary(self, block: dict) -> str:
        agg = block["result"]["aggregate"]
        savings = agg["usd_savings_vs_static"]
        return (
            f"{block['backend']} ({block['policy']}): "
            f"mean {agg['mean_nodes']:.1f} nodes, "
            f"SLA {agg['sla_attainment']:.1%}, "
            + (
                f"{savings:+.1%} vs static"
                if savings is not None
                else "no static baseline"
            )
        )

    def metrics(self, block: dict) -> dict[str, float]:
        aggregate = block["result"]["aggregate"]
        return {metric: aggregate[metric] for metric in self.directions}


def _check_plan(plan: object, path: str) -> dict:
    """A distplan :class:`~repro.distplan.plan.ShardingPlan` summary."""
    if not isinstance(plan, dict):
        _fail(path, f"expected an object, got {plan!r}")
    _check_str(plan, path, "model")
    _check_str(plan, path, "strategy")
    _check_number(plan, path, "total_gb", minimum=0, exclusive=True)
    _check_int(plan, path, "fanout", minimum=1)
    _check_int(plan, path, "shards", minimum=1)
    _check_int(plan, path, "sharded_tables")
    # A valid plan never overflows a node, so max utilisation is a
    # fraction — the capacity check is re-asserted here on the artifact.
    _check_fraction(plan, path, "max_node_utilisation")
    nodes = _get(plan, path, "nodes")
    if not isinstance(nodes, list) or not nodes:
        _fail(f"{path}.nodes", f"expected a non-empty list, got {nodes!r}")
    for i, node in enumerate(nodes):
        npath = f"{path}.nodes[{i}]"
        if not isinstance(node, dict):
            _fail(npath, f"expected an object, got {node!r}")
        _check_int(node, npath, "node")
        _check_str(node, npath, "backend")
        _check_number(node, npath, "capacity_gb", minimum=0, exclusive=True)
        _check_number(node, npath, "bytes", minimum=0)
        _check_fraction(node, npath, "utilisation")
        _check_int(node, npath, "shards")
    return plan


class ShardingBlock(BenchBlock):
    """The v5 sharded-fleet block: one fan-out serve per sweep.

    The first swept model sharded across ``sharding_nodes`` replicas of
    the first swept backend, each capped at ``sharding_node_gb`` of DRAM
    so even the CI-sized models cannot fit on one node and the planner
    must emit a real multi-owner plan.  Served at a fixed fraction of
    the fan-out capacity — enough for ``--compare`` to track blended
    tail latency, fan-out, and peak node occupancy across commits.
    """

    key = "sharding"
    label = "sharding/fan-out"
    switch = "sharding_strategy"
    knobs = (
        #: ``"auto"`` enumerates every registered strategy.
        Knob("sharding_strategy", str, flag=("--sharding-strategy", {
            "metavar": "NAME",
            "help": "strategy of the v5 sharding block (default auto: "
            "the planner enumerates every registered strategy)",
        })),
        Knob("sharding_nodes", int, **_POSITIVE, flag=("--sharding-nodes", {
            "type": int, "metavar": "N",
            "help": "node count of the sharding block (default 4)",
        })),
        #: Per-node DRAM cap (GB).
        Knob("sharding_node_gb", float, **_POSITIVE),
    )
    directions: ClassVar[dict[str, str]] = {
        "p99_ms": "higher-is-worse",
        "sla_attainment": "lower-is-worse",
        "fanout": "higher-is-worse",
        "max_node_utilisation": "higher-is-worse",
    }

    def check_names(self, config: BenchConfig) -> None:
        strategy = config.sharding_strategy
        if strategy != AUTO_STRATEGY and (
            strategy not in available_strategies()
        ):
            raise ValueError(
                f"unknown sharding_strategy {strategy!r}; "
                f"registered: {sorted(available_strategies())} "
                f"(or {AUTO_STRATEGY!r})"
            )

    def run(self, config: BenchConfig) -> dict[str, object]:
        backend = config.resolved_backends()[0]
        cluster = deploy_sharded(
            config.models[0],
            [ReplicaSpec(backend=backend, count=config.sharding_nodes)],
            None
            if config.sharding_strategy == AUTO_STRATEGY
            else config.sharding_strategy,
            slo_ms=config.slo_ms,
            max_rows=config.max_rows,
            seed=config.seed,
            node_capacity_bytes=int(config.sharding_node_gb * 1024**3),
        )
        rate, arrivals = _poisson_window(config, cluster, "bench-sharding")
        result = cluster.serve(arrivals)
        return {
            "model": config.models[0],
            "tiers": [f"{backend}:{config.sharding_nodes}"],
            "strategy": cluster.plan.strategy,
            "nodes": config.sharding_nodes,
            "node_gb": config.sharding_node_gb,
            "rate_per_s": rate,
            "utilisation": config.cluster_utilisation,
            "duration_s": config.serve_duration_s,
            "slo_ms": config.slo_ms,
            "plan": cluster.plan.as_dict(),
            "result": result.as_dict(config.slo_ms),
        }

    def validate(self, block: dict, path: str, config: dict) -> None:
        _check_served(block, path)
        _check_str(block, path, "strategy")
        _check_int(block, path, "nodes", minimum=1)
        _check_number(block, path, "node_gb", minimum=0, exclusive=True)
        _check_number(block, path, "slo_ms", minimum=0, exclusive=True)
        _check_plan(_get(block, path, "plan"), f"{path}.plan")
        result = _check_cluster_result(block, path)
        if result["router"] != FANOUT_ROUTER:
            _fail(
                f"{path}.result.router",
                f"expected {FANOUT_ROUTER!r}, got {result['router']!r}",
            )
        _check_int(result, f"{path}.result", "fanout", minimum=1)
        _check_str(result, f"{path}.result", "strategy")

    def summary(self, block: dict) -> str:
        blended = block["result"]["blended"]
        plan = block["plan"]
        return (
            f"{block['tiers'][0]} ({block['strategy']}): "
            f"fan-out {plan['fanout']}, "
            f"p99 {blended['p99_ms']:.3f} ms, "
            f"peak node {plan['max_node_utilisation']:.1%} full"
        )

    def metrics(self, block: dict) -> dict[str, float]:
        blended = block["result"]["blended"]
        return {
            "p99_ms": blended["p99_ms"],
            "sla_attainment": blended["sla_attainment"],
            "fanout": block["plan"]["fanout"],
            "max_node_utilisation": block["plan"]["max_node_utilisation"],
        }


class TieringBlock(BenchBlock):
    """The v7 tiered-storage block: one warm/cold tier lab per sweep.

    The first swept model on the first swept backend, bound to a scaled
    HBM → DDR → host hierarchy (see :func:`_tiered_session`) — enough for
    ``--compare`` to track the steady-state hit rate and the warm and
    cold p99 across commits.
    """

    key = "tiering"
    label = "tiering/tiered"
    switch = "tiering_policy"
    knobs = (
        Knob("tiering_policy", str, flag=("--tiering-policy", {
            "metavar": "NAME",
            "help": "cache policy of the v7 tiering block (default lru)",
        })),
        Knob(
            "tiering_alpha", float, ok=lambda value: value >= 0,
            rule="{name} must be >= 0, got {value}",
            flag=("--tiering-alpha", {
                "type": float, "metavar": "ALPHA",
                "help": "Zipf skew of the tiering block's row popularity "
                f"(default {DEFAULT_ALPHA})",
            }),
        ),
        Knob(
            "tiering_hot_fraction", float, ok=lambda value: 0 < value < 0.5,
            rule="{name} must be in (0, 0.5), got {value}",
            flag=("--tiering-hot-fraction", {
                "type": float, "metavar": "FRAC",
                "help": "hot-tier share of the working set in the tiering "
                "block (default 0.125)",
            }),
        ),
    )
    directions: ClassVar[dict[str, str]] = {
        "hit_rate": "lower-is-worse",
        "warm_p99_ms": "higher-is-worse",
        "cold_p99_ms": "higher-is-worse",
    }

    def check_names(self, config: BenchConfig) -> None:
        if config.tiering_policy not in available_cache_policies():
            raise ValueError(
                f"unknown tiering_policy {config.tiering_policy!r}; "
                f"registered: {sorted(available_cache_policies())}"
            )

    def run(self, config: BenchConfig) -> dict[str, object]:
        block = tiering_lab(
            _tiered_session(config),
            utilisations=config.serve_utilisations,
            duration_s=config.serve_duration_s,
            slo_ms=config.slo_ms,
            seed=config.seed,
        )
        return {"model": config.models[0], **block}

    def validate(self, block: dict, path: str, config: dict) -> None:
        _check_str(block, path, "model")
        _check_str(block, path, "backend")
        _check_str(block, path, "policy")
        hpath = f"{path}.hierarchy"
        hierarchy = _check_object(block, path, "hierarchy")
        _check_str(hierarchy, hpath, "policy")
        _check_int(hierarchy, hpath, "row_bytes", minimum=1)
        _check_int(hierarchy, hpath, "warm_accesses")
        tiers = _get(hierarchy, hpath, "tiers")
        if not isinstance(tiers, list) or len(tiers) < 2:
            _fail(
                f"{hpath}.tiers",
                f"expected a list of >= 2 tiers, got {tiers!r}",
            )
        for i, tier in enumerate(tiers):
            tpath = f"{hpath}.tiers[{i}]"
            if not isinstance(tier, dict):
                _fail(tpath, f"expected an object, got {tier!r}")
            _check_str(tier, tpath, "name")
            _check_int(tier, tpath, "capacity_bytes", minimum=1)
            _check_int(tier, tpath, "capacity_rows")
            _check_number(tier, tpath, "access_ns", minimum=0, exclusive=True)
        ppath = f"{path}.popularity"
        popularity = _check_object(block, path, "popularity")
        _check_int(popularity, ppath, "rows", minimum=1)
        _check_number(popularity, ppath, "alpha", minimum=0)
        _check_number(popularity, ppath, "drift_rows_per_s", minimum=0)
        spath = f"{path}.steady_state"
        steady = _check_object(block, path, "steady_state")
        _check_fraction(steady, spath, "hit_rate")
        for key in ("effective_lookup_ns", "hot_lookup_ns"):
            _check_number(steady, spath, key, minimum=0, exclusive=True)
        _check_int(steady, spath, "lookups_per_query", minimum=1)
        _check_shares(steady, spath, "tier_fractions")
        _check_number(block, path, "slo_ms", minimum=0, exclusive=True)
        _check_curve(_get(block, path, "warm"), f"{path}.warm")
        _check_curve(_get(block, path, "cold"), f"{path}.cold")

    def summary(self, block: dict) -> str:
        steady = block["steady_state"]
        return (
            f"{block['backend']} ({block['policy']}): "
            f"hit rate {steady['hit_rate']:.1%}, "
            f"effective lookup {steady['effective_lookup_ns']:,.0f} ns "
            f"(hot {steady['hot_lookup_ns']:,.0f} ns)"
        )

    def metrics(self, block: dict) -> dict[str, float]:
        # The warm/cold tails are read at each curve's heaviest measured
        # load — where cache state matters most — not averaged.
        warm = max(block["warm"]["points"], key=lambda p: p["rate_per_s"])
        cold = max(block["cold"]["points"], key=lambda p: p["rate_per_s"])
        return {
            "hit_rate": block["steady_state"]["hit_rate"],
            "warm_p99_ms": warm["p99_ms"],
            "cold_p99_ms": cold["p99_ms"],
        }


class TelemetryBlock(BenchBlock):
    """The v8 telemetry block: the observability plane's own numbers.

    Serves one poisson window through a routed cluster (the cluster
    block's tiers, or a single replica of the first swept backend when
    the cluster block is disabled) into a fresh
    :class:`~repro.telemetry.Telemetry` hub, then reads the headline
    figures back *out of the metric registry*: digest-estimated latency
    tails, per-tier dispatch shares, the spill share off the primary
    tier, and — when the tiering block is enabled — the steady-state
    tier hit rates counted by the cache cascade.  ``--compare`` diffs
    these, so drift in the telemetry plane itself (digest error,
    mis-counted dispatch) gates CI like any serving regression.
    """

    key = "telemetry"
    label = "telemetry/observed"
    switch = "telemetry"
    off = False
    knobs = (Knob("telemetry", bool),)
    #: ``hot_hit_rate`` exists only when the block carries tier hit
    #: rates; ``--compare`` diffs the metrics both sides have.
    directions: ClassVar[dict[str, str]] = {
        "digest_p99_ms": "higher-is-worse",
        "digest_p999_ms": "higher-is-worse",
        "spill_share": "higher-is-worse",
        "hot_hit_rate": "lower-is-worse",
    }

    def run(self, config: BenchConfig) -> dict[str, object]:
        tiers = tuple(config.cluster_backends) or (
            config.resolved_backends()[0],
        )
        router = (
            config.cluster_router if config.cluster_backends else "round-robin"
        )
        cluster = deploy_cluster(
            [ReplicaSpec(model=config.models[0], backend=b) for b in tiers],
            router=router,
            slo_ms=config.slo_ms,
            max_rows=config.max_rows,
            seed=config.seed,
        )
        hub = Telemetry()
        rate, arrivals = _poisson_window(config, cluster, "bench-telemetry")
        cluster.serve(arrivals, telemetry=hub)
        digest = hub.metrics.histogram(
            f"serve.latency_ms.{cluster.backend}"
        ).digest
        dispatch = {
            tier: hub.metrics.counter(f"cluster.dispatch.{tier}").value
            for tier in cluster.tiers()
        }
        total = sum(dispatch.values())
        primary = cluster.tiers()[0]
        spill = hub.metrics.counter(f"cluster.spill.{primary}").value

        tier_hit_rates: dict[str, float] | None = None
        if config.tiering_policy:
            session = _tiered_session(config)
            session.perf()  # feeds tiers.hits.* into the session's own hub
            hits = {
                name: session.telemetry.metrics.counter(
                    f"tiers.hits.{name}"
                ).value
                for name in session.tier_hierarchy.names
            }
            accesses = sum(hits.values())
            tier_hit_rates = {
                name: (served / accesses if accesses else 0.0)
                for name, served in hits.items()
            }
        return {
            "model": config.models[0],
            "tiers": list(tiers),
            "router": router,
            "rate_per_s": rate,
            "utilisation": config.cluster_utilisation,
            "duration_s": config.serve_duration_s,
            "queries": digest.count,
            "latency_ms": {
                "p50": digest.quantile(50.0),
                "p99": digest.quantile(99.0),
                "p999": digest.quantile(99.9),
            },
            "dispatch_shares": {
                tier: (count / total if total else 0.0)
                for tier, count in dispatch.items()
            },
            "spill_share": (spill / total if total else 0.0),
            "tier_hit_rates": tier_hit_rates,
        }

    def validate(self, block: dict, path: str, config: dict) -> None:
        _check_served(block, path)
        _check_str(block, path, "router")
        _check_int(block, path, "queries", minimum=1)
        lpath = f"{path}.latency_ms"
        latency = _check_object(block, path, "latency_ms")
        for key in ("p50", "p99", "p999"):
            _check_number(latency, lpath, key, minimum=0, exclusive=True)
        if not latency["p50"] <= latency["p99"] <= latency["p999"]:
            _fail(lpath, f"expected p50 <= p99 <= p999, got {latency!r}")
        shares = _check_shares(block, path, "dispatch_shares")
        if abs(sum(shares.values()) - 1.0) >= 1e-9:
            _fail(
                f"{path}.dispatch_shares",
                f"expected shares summing to 1, got {shares!r}",
            )
        _check_fraction(block, path, "spill_share")
        # Hit rates are counted by the cache cascade, which exists only
        # when the sweep's tiering block is enabled.
        hpath = f"{path}.tier_hit_rates"
        if _get(block, path, "tier_hit_rates") is None:
            if config["tiering_policy"]:
                _fail(hpath, "null, but config.tiering_policy enables tiers")
        elif not config["tiering_policy"]:
            _fail(hpath, "expected null: config.tiering_policy is empty")
        else:
            _check_shares(block, path, "tier_hit_rates")

    def summary(self, block: dict) -> str:
        return (
            f"{'+'.join(block['tiers'])}: "
            f"digest p99 {block['latency_ms']['p99']:.3f} ms over "
            f"{block['queries']:,} observed queries, "
            f"spill {block['spill_share']:.1%}"
        )

    def metrics(self, block: dict) -> dict[str, float]:
        out = {
            "digest_p99_ms": block["latency_ms"]["p99"],
            "digest_p999_ms": block["latency_ms"]["p999"],
            "spill_share": block["spill_share"],
        }
        if block["tier_hit_rates"]:
            # The hierarchy's fastest tier leads the hit-rate map; its
            # rate is the one cache-sizing decisions watch.
            out["hot_hit_rate"] = next(iter(block["tier_hit_rates"].values()))
        return out


#: Every top-level block, in payload, progress-line and flag order.
BLOCKS: tuple[BenchBlock, ...] = (
    ClusterBlock(),
    AutoscaleBlock(),
    ShardingBlock(),
    TieringBlock(),
    TelemetryBlock(),
)

#: Every knob declared here, in ``config`` order.
KNOBS: tuple[Knob, ...] = (
    *(knob for block in BLOCKS for knob in block.knobs),
    WALL_CLOCK_BUDGET_MULTIPLIER,
)
