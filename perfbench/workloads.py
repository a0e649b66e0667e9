"""The benchmark's three workloads, one repetition each.

Every workload drives the program through its public calls only, times
them from here, checks the outputs, and returns a :class:`Rep`: host
timings, operation counts, the simulated ("sim") outputs with their
fingerprint and, when traced, the per-layer metrics and spans.  The seed
reaches the program only through the inputs generated from it.

One repetition runs in one fresh process (see ``run.py``), so no state
the program memoises in-process carries from one repetition to the next.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

import repro
from repro.cluster import ReplicaView
from repro.experiments import paper_data
from repro.memory.tiers import scaled_tier_hierarchy
from repro.serving.arrivals import (
    diurnal_trace,
    flash_crowd_trace,
    trace_arrivals,
)
from repro.serving.popularity import PopularityModel
from repro.telemetry import Telemetry

from tracing import Tracer

#: The latency SLO every sim attainment figure is measured against (ms).
SLO_MS = 30.0

#: Inputs per workload and size.  ``tiny`` keeps every code path and
#: metric of ``full`` at a size the benchmark's own tests can afford.
SIZES: dict[str, dict[str, dict[str, int]]] = {
    "full": {
        "plan-models": {"max_rows": 256, "batch": 256},
        "replay-diurnal": {"arrivals": 2_000_000},
        "elastic-tiered": {"windows": 24},
    },
    "tiny": {
        "plan-models": {"max_rows": 4096, "batch": 16},
        "replay-diurnal": {"arrivals": 20_000},
        "elastic-tiered": {"windows": 6},
    },
}

#: Table 3's models, planned at full size with and without merging.
TABLE_MODELS = ("small", "large")
#: Row-capped models, where the candidate count and planning cost peak.
CAPPED_MODELS = ("small", "large", "dlrm-rmc2")

#: replay-diurnal: mean offered load as a share of each surface's
#: capacity; the diurnal swing (amplitude 0.6) peaks at about 0.8.
MEAN_UTILISATION = 0.5
CLUSTER_TIERS = ("fpga", "gpu", "cpu")
ROUTER = "sla-aware"

#: elastic-tiered: flash crowd over a base of 4 nodes' load, 3x spike.
BASE_NODES_OF_LOAD = 4.0
SPIKE_FACTOR = 3.0
CONTROL_INTERVAL_S = 0.05
HOT_FRACTION = 0.05
SCALER = "reactive-utilisation"


class Rep:
    """What one repetition measured, counted and produced."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.timed_start = math.nan
        self.timed_end = math.nan
        #: name -> (value, unit) of every sim end-to-end metric.
        self.sim: dict[str, tuple[float, str]] = {}
        #: Canonical record of the sim outputs, hashed into the fingerprint.
        self.outputs: dict[str, object] = {}
        #: Simulated arrivals served in the timed phase (0 = not a stream).
        self.arrivals_served = 0
        #: Per-layer metrics, filled by traced repetitions only.
        self.layers: dict[str, float] = {}
        self._plan_inputs: list[object] = []
        self._plan_tried = 0
        self._plan_evaluated = 0

    # -- bookkeeping -------------------------------------------------------

    def op(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    @contextmanager
    def timed(self) -> Iterator[None]:
        """The timed phase: what ``wall_s`` measures, under one root span."""
        with self.tracer.phase("timed"):
            self.timed_start = time.perf_counter()
            try:
                yield
            finally:
                self.timed_end = time.perf_counter()

    def fingerprint(self) -> str:
        canonical = json.dumps(
            self.outputs, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- wrapped public calls ----------------------------------------------

    def plan(
        self, spec: repro.ModelSpec, cartesian: bool = True
    ) -> repro.Plan:
        """``plan_tables`` on the U280 defaults; one op, which fails
        unless the plan fits every bank (a plan that cannot be placed at
        all raises, and the repetition fails).

        The candidate counts tried mirror ``plan_tables``: every ``n`` in
        ``0..N`` over the rule-1 eligible tables except ``n = 1``.
        """
        config = repro.PlannerConfig(enable_cartesian=cartesian)
        self.note_plan_input(spec, config)
        eligible = sum(
            1 for t in spec.tables if t.rows <= config.max_candidate_rows
        )
        max_n = eligible if config.enable_cartesian else 0
        self._plan_tried += max_n if max_n >= 1 else 1
        memory = repro.u280_memory_system()
        with self.tracer.span("core.plan_tables", spec.name):
            plan = repro.plan_tables(spec.tables, memory, config=config)
        self.op(1, 0 if _fits(plan) else 1)
        self._plan_evaluated += plan.evaluated
        return plan

    def note_plan_input(
        self, spec: repro.ModelSpec, config: repro.PlannerConfig
    ) -> None:
        """Record one Algorithm-1 input, also one planned inside a deploy."""
        self._plan_inputs.append((tuple(spec.tables), config))

    def deploy(self, spec: repro.ModelSpec, backend: str, **knobs):
        with self.tracer.span("runtime.deploy_model", backend):
            return repro.deploy_model(spec, backend, **knobs)

    def core_layers(self) -> None:
        """Fill the ``core`` and ``runtime`` per-layer metrics."""
        tr = self.tracer
        inputs = self._plan_inputs
        repeats = len(inputs) - len(set(inputs))
        self.layers.update(
            {
                "core.plan_s": tr.total_s("core.plan_tables"),
                "core.plan_calls": tr.count("core.plan_tables"),
                "core.allocations_evaluated": self._plan_evaluated,
                "core.plan_feasible_share": (
                    self._plan_evaluated / self._plan_tried
                    if self._plan_tried
                    else 0.0
                ),
                "core.plan_repeat_share": (
                    repeats / len(inputs) if inputs else 0.0
                ),
                "runtime.deploy_s": tr.total_s("runtime.deploy_model")
                + tr.total_s("runtime.deploy_cluster"),
                "runtime.deploy_calls": tr.count("runtime.deploy_model")
                + tr.count("runtime.deploy_cluster"),
            }
        )


# -- plan-models -------------------------------------------------------------


def plan_models(seed: int, size: str, tracer: Tracer) -> Rep:
    """Algorithm 1 on Table 3's four inputs and three row-capped models."""
    cfg = SIZES[size]["plan-models"]
    rep = Rep(tracer)
    max_rows = cfg["max_rows"]
    with tracer.phase("setup"):
        full = {name: repro.resolve_model(name) for name in TABLE_MODELS}
        capped = {
            name: repro.resolve_model(name).scaled(max_rows=max_rows)
            for name in CAPPED_MODELS
        }
        batches = {
            name: repro.QueryGenerator(spec, seed=seed).batch(cfg["batch"])
            for name, spec in capped.items()
        }

    mismatches = 0
    infer_items = 0
    predictions = {}
    with rep.timed():
        plans = {
            (name, cart): rep.plan(spec, cart)
            for name, spec in full.items()
            for cart in (True, False)
        }
        perfs = {}
        for name, spec in full.items():
            session = rep.deploy(spec, "fpga", plan=plans[name, True])
            with tracer.span("runtime.perf", name):
                perfs[name] = session.perf()
        capped_plans = {}
        for name, spec in capped.items():
            plan = capped_plans[name] = rep.plan(spec)
            session = rep.deploy(
                spec, "fpga", precision="fp32", plan=plan, seed=seed
            )
            batch = batches[name]
            with tracer.span("core.infer", name):
                preds = session.infer(batch)
            with tracer.span("cpu.reference_infer", name):
                expected = session.reference().infer(batch)
            bad = (
                int(np.count_nonzero(preds != expected))
                if preds.shape == expected.shape
                else batch.batch_size
            )
            mismatches += bad
            predictions[name] = hashlib.sha256(preds.tobytes()).hexdigest()
            infer_items += batch.batch_size
            rep.op(1, 1 if bad else 0)
        # The same Algorithm-1 input once more, planned inside the deploy.
        repeat = capped["small"]
        rep.note_plan_input(repeat, repro.PlannerConfig())
        session = rep.deploy(repeat, "fpga", seed=seed)

    same = _plan_record(session.plan) == _plan_record(capped_plans["small"])
    rep.op(1, 0 if same else 1)

    table2 = []
    table3 = []
    for name in TABLE_MODELS:
        paper = paper_data.TABLE2[name]
        perf = perfs[name]
        table2.append(
            abs(perf.latency_us / (paper["fpga_latency_ms"]["fixed16"] * 1e3) - 1)
        )
        table2.append(
            abs(
                perf.throughput_items_per_s
                / paper["fpga_throughput_items"]["fixed16"]
                - 1
            )
        )
        ratio = (
            plans[name, True].lookup_latency_ns
            / plans[name, False].lookup_latency_ns
        )
        table3.append(
            abs(ratio / paper_data.TABLE3[name]["with"]["latency"] - 1)
        )
    every_plan = [*plans.values(), *capped_plans.values()]
    rep.sim = {
        "sim.lookup_ns": (
            sum(p.lookup_latency_ns for p in every_plan),
            "ns",
        ),
        "sim.table2_err": (float(np.mean(table2)), "share"),
        "sim.table3_err": (float(np.mean(table3)), "share"),
    }
    rep.outputs = {
        "plans": {
            f"{name}/{'cartesian' if cart else 'no-cartesian'}": _plan_record(p)
            for (name, cart), p in plans.items()
        },
        "capped_plans": {
            f"{name}@{max_rows}": _plan_record(p)
            for name, p in capped_plans.items()
        },
        "fixed16_perf": {
            name: [p.latency_us, p.throughput_items_per_s]
            for name, p in perfs.items()
        },
        "fp32_predictions": predictions,
        "fp32_mismatches": mismatches,
    }
    if tracer.enabled:
        rep.core_layers()
        rep.layers.update(
            {
                "core.infer_s": tracer.total_s("core.infer"),
                "core.infer_items": infer_items,
                "core.lookup_mismatches": mismatches,
            }
        )
    return rep


def _fits(plan: repro.Plan) -> bool:
    """Every bank holds no more than its capacity; latency is finite."""
    placement = plan.placement
    used: dict[int, int] = {}
    for group in placement.groups:
        bank = placement.bank_of[group]
        used[bank] = used.get(bank, 0) + placement.group_spec(group).nbytes
    return math.isfinite(plan.lookup_latency_ns) and all(
        nbytes <= placement.memory.bank(bank).capacity_bytes
        for bank, nbytes in used.items()
    )


def _plan_record(plan: repro.Plan) -> dict[str, object]:
    """A plan's summary plus its exact merge groups and bank choices."""
    placement = plan.placement
    return {
        "summary": plan.summary(),
        "groups": sorted(
            [list(g.member_ids), placement.bank_of[g]]
            for g in placement.groups
        ),
    }


# -- replay-diurnal ----------------------------------------------------------


def replay_diurnal(seed: int, size: str, tracer: Tracer) -> Rep:
    """One open-loop diurnal stream through three serving surfaces."""
    n_target = SIZES[size]["replay-diurnal"]["arrivals"]
    rep = Rep(tracer)
    with tracer.phase("setup"):
        small = repro.resolve_model("small")
        fpga = rep.deploy(small, "fpga", plan=rep.plan(small))
        cpu = rep.deploy(small, "cpu")
        # deploy_cluster plans small again for its fpga replica.
        rep.note_plan_input(small, repro.PlannerConfig())
        with tracer.span("runtime.deploy_cluster", "+".join(CLUSTER_TIERS)):
            cluster = repro.deploy_cluster(
                [repro.ReplicaSpec("small", b) for b in CLUSTER_TIERS],
                router=ROUTER,
                slo_ms=SLO_MS,
            )
        fpga_cap = fpga.perf().throughput_items_per_s
        cpu_cap = cpu.perf().throughput_items_per_s
        cluster_cap = cluster.perf().throughput_items_per_s
        rate = MEAN_UTILISATION * fpga_cap
        trace = diurnal_trace(rate, n_target / rate)

    # Open loop: arrival times come from the rate trace alone; each
    # surface gets the whole stream in one call, rescaled in time to the
    # same relative load.
    with rep.timed():
        with tracer.span("serving.trace_arrivals"):
            arrivals = trace_arrivals(np.random.default_rng(seed), trace)
        cpu_stream = arrivals * (fpga_cap / cpu_cap)
        cluster_stream = arrivals * (fpga_cap / cluster_cap)
        with tracer.span("serving.serve", "fpga"):
            served_fpga = fpga.serve(arrivals)
        with tracer.span("serving.serve", "cpu"):
            served_cpu = cpu.serve(cpu_stream)
        with tracer.span("cluster.serve", ROUTER):
            served_cluster = cluster.serve(cluster_stream)

    n = int(arrivals.size)
    rep.arrivals_served = 3 * n
    for stream, result in (
        (arrivals, served_fpga),
        (cpu_stream, served_cpu),
        (cluster_stream, served_cluster),
    ):
        rep.op(n, _stream_failures(stream, result))
    tiers = served_cluster.tier_counts()
    rep.op(1, 0 if sum(tiers.values()) == n else 1)

    spill = served_cluster.spill_fraction(CLUSTER_TIERS[0])
    rep.sim = {
        "sim.p99_ms": (served_cluster.p99_ms, "ms"),
        "sim.sla_attainment": (
            served_cluster.sla_attainment(SLO_MS),
            "share",
        ),
    }
    rep.outputs = {
        "arrivals": n,
        "surfaces": {
            name: [r.p50_ms, r.p99_ms, r.sla_attainment(SLO_MS)]
            for name, r in (
                ("fpga", served_fpga),
                ("cpu", served_cpu),
                ("cluster", served_cluster),
            )
        },
        "tier_counts": tiers,
        "spill_share": spill,
    }

    if tracer.enabled:
        with tracer.phase("diagnostics"):
            rebuilt_ok = _rebuild_cluster_serve(
                cluster, cluster_stream, served_cluster, tracer
            )
            rep.op(1, 0 if rebuilt_ok else 1)
            with tracer.span("serving.serve", "fpga/telemetry-off"):
                fpga.serve(arrivals, telemetry=False)
            with tracer.span("serving.serve", "cpu/telemetry-off"):
                cpu.serve(cpu_stream, telemetry=False)
            ingest_s = _ingest(
                [r.latencies_ms for r in (served_fpga, served_cpu, served_cluster)],
                tracer,
            )
        default_s = tracer.total_s("serving.serve", "fpga") + tracer.total_s(
            "serving.serve", "cpu"
        )
        off_s = tracer.total_s(
            "serving.serve", "fpga/telemetry-off"
        ) + tracer.total_s("serving.serve", "cpu/telemetry-off")
        rep.core_layers()
        rep.layers.update(
            {
                "serving.arrivals_s": tracer.total_s("serving.trace_arrivals"),
                "serving.arrivals": n,
                "serving.serve_s.fpga": tracer.total_s(
                    "serving.serve", "fpga/telemetry-off"
                ),
                "serving.serve_s.cpu": tracer.total_s(
                    "serving.serve", "cpu/telemetry-off"
                ),
                "serving.sim_p99_ms.fpga": served_fpga.p99_ms,
                "serving.sim_p99_ms.cpu": served_cpu.p99_ms,
                "cluster.route_s": tracer.total_s("cluster.route"),
                "cluster.route_decisions": n,
                "cluster.spill_share": spill,
                "cluster.replica_serve_s": tracer.total_s(
                    "serving.serve", "replica"
                ),
                "telemetry.ingest_s": ingest_s,
                "telemetry.overhead_share": default_s / off_s - 1,
            }
        )
    return rep


def _stream_failures(stream: np.ndarray, result) -> int:
    """Arrivals not served exactly once with a finite, causal completion."""
    if not np.array_equal(result.arrivals_ns, np.sort(stream)):
        return int(stream.size)
    done = result.completions_ns
    bad = ~np.isfinite(done) | (done < result.arrivals_ns)
    return int(np.count_nonzero(bad))


def _rebuild_cluster_serve(cluster, stream, served, tracer: Tracer) -> bool:
    """Serve ``stream`` from the cluster's public pieces; compare exactly.

    Sort the stream, describe each replica by its published ``perf()``,
    let the cluster's router assign every arrival, serve each replica's
    share on that replica, and merge back into arrival order.
    """
    arrivals = np.sort(stream)
    views = []
    for i, session in enumerate(cluster.replicas):
        perf = session.perf()
        views.append(
            ReplicaView(
                index=i,
                backend=session.backend,
                model=cluster.model_labels[i],
                latency_ms=perf.latency_us / 1e3,
                serving_latency_ms=perf.serving_latency_ms,
                ii_ns=perf.ii_ns,
                usd_per_hour=perf.usd_per_hour,
                usd_per_million_queries=perf.usd_per_million_queries,
            )
        )
    with tracer.span("cluster.route", ROUTER):
        local = np.asarray(
            cluster.router.route(arrivals, views, slo_ms=cluster.slo_ms),
            dtype=np.int64,
        )
    parts = []
    for j, session in enumerate(cluster.replicas):
        mask = local == j
        if not mask.any():
            continue
        with tracer.span("serving.serve", "replica"):
            result = session.serve(arrivals[mask])
        parts.append(
            (
                result.arrivals_ns,
                result.completions_ns,
                np.full(result.count, j, dtype=np.int64),
            )
        )
    merged = [np.concatenate(column) for column in zip(*parts)]
    order = np.argsort(merged[0], kind="stable")
    return all(
        np.array_equal(mine[order], theirs)
        for mine, theirs in zip(
            merged,
            (served.arrivals_ns, served.completions_ns, served.assignments),
        )
    )


def _ingest(latencies: list[np.ndarray], tracer: Tracer) -> float:
    """``observe_many`` of every served latency into a fresh hub (s)."""
    histogram = Telemetry().metrics.histogram("bench.latency_ms")
    with tracer.span("telemetry.observe_many"):
        for values in latencies:
            histogram.observe_many(values)
    return tracer.total_s("telemetry.observe_many")


# -- elastic-tiered ----------------------------------------------------------


class _TimedSurface:
    """Delegates to a serving surface, with a span around each ``serve``.

    ``simulate_autoscale`` reads everything else it needs (``perf``, the
    tier hierarchy, the telemetry hub) through attribute delegation, so
    the simulation runs exactly as on the bare surface.
    """

    def __init__(self, inner, tracer: Tracer, telemetry: bool = True):
        self._inner = inner
        self._tracer = tracer
        self._telemetry = telemetry
        self.latencies: list[np.ndarray] = []

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def serve(self, arrivals_ns, **knobs):
        tag = "autoscale"
        if not self._telemetry:
            knobs["telemetry"] = False
            tag = "autoscale/telemetry-off"
        with self._tracer.span("serving.serve", tag):
            result = self._inner.serve(arrivals_ns, **knobs)
        self.latencies.append(result.latencies_ms)
        return result


class _TimedTiers:
    """Delegates to a tier hierarchy, with a span around ``assign_tiers``."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.accesses = 0
        self.hot_hits = 0

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def assign_tiers(self, keys):
        with self._tracer.span("memory.assign_tiers", self._inner.policy):
            assigned = self._inner.assign_tiers(keys)
        self.accesses += int(assigned.size)
        self.hot_hits += int(np.count_nonzero(assigned == 0))
        return assigned


def elastic_tiered(seed: int, size: str, tracer: Tracer) -> Rep:
    """A reactive autoscaler under a flash crowd, on tiered embeddings."""
    windows = SIZES[size]["elastic-tiered"]["windows"]
    rep = Rep(tracer)
    with tracer.phase("setup"):
        small = repro.resolve_model("small")
        session = rep.deploy(small, "fpga", plan=rep.plan(small))
        rows = sum(t.rows for t in small.tables)
        hierarchy = scaled_tier_hierarchy(
            rows, policy="lru", hot_fraction=HOT_FRACTION
        )
        # The hot set rotates by the hot tier's size every control
        # interval, so the LRU keeps evicting as well as hitting.
        hot_rows = hierarchy.hot.capacity_rows(hierarchy.row_bytes)
        popularity = PopularityModel(
            rows=rows, drift_rows_per_s=hot_rows / CONTROL_INTERVAL_S
        )
        tiers = _TimedTiers(hierarchy, tracer) if tracer.enabled else hierarchy
        with tracer.span("memory.attach_tiers"):
            session.attach_tiers(tiers, popularity=popularity, seed=seed)
        with tracer.span("runtime.perf"):
            per_node = session.perf().throughput_items_per_s
        base = BASE_NODES_OF_LOAD * per_node
        trace = flash_crowd_trace(
            base,
            windows * CONTROL_INTERVAL_S,
            spike_rate_per_s=SPIKE_FACTOR * base,
        )
        surface = _TimedSurface(session, tracer) if tracer.enabled else session

    with rep.timed():
        with tracer.span("autoscale.simulate_autoscale", SCALER):
            result = repro.simulate_autoscale(
                surface,
                trace,
                SCALER,
                slo_ms=SLO_MS,
                windows=windows,
                seed=seed,
                compare_static=False,
            )

    for w in result.windows:
        ok = math.isfinite(w.p99_ms) and (
            result.min_nodes <= w.nodes <= result.max_nodes
        )
        rep.op(1, 0 if ok else 1)
    rep.arrivals_served = sum(w.queries for w in result.windows)
    record = result.as_dict()
    rep.sim = {
        "sim.p99_ms": (max(w.p99_ms for w in result.windows), "ms"),
        "sim.sla_attainment": (result.sla_attainment, "share"),
        "sim.usd_per_mq": (result.usd_per_million_queries, "usd/Mq"),
    }
    rep.outputs = {"autoscale": record}

    if tracer.enabled:
        with tracer.phase("diagnostics"):
            ingest_s = _ingest(surface.latencies, tracer)
            # The same simulation with serve-level telemetry off: caches
            # start empty again (re-attaching drops the memoised
            # penalties) and the result must not change.
            session.attach_tiers(hierarchy, popularity=popularity, seed=seed)
            quiet = repro.simulate_autoscale(
                _TimedSurface(session, tracer, telemetry=False),
                trace,
                SCALER,
                slo_ms=SLO_MS,
                windows=windows,
                seed=seed,
                compare_static=False,
            )
            rep.op(1, 0 if quiet.as_dict() == record else 1)
        serve_s = tracer.total_s("serving.serve", "autoscale")
        rep.core_layers()
        rep.layers.update(
            {
                "telemetry.ingest_s": ingest_s,
                "telemetry.overhead_share": serve_s
                / tracer.total_s("serving.serve", "autoscale/telemetry-off")
                - 1,
                "memory.tiers_s": tracer.total_s("memory.assign_tiers"),
                "memory.tier_accesses": tiers.accesses,
                "memory.hot_hit_rate": (
                    tiers.hot_hits / tiers.accesses if tiers.accesses else 0.0
                ),
                "autoscale.run_s": tracer.total_s(
                    "autoscale.simulate_autoscale"
                ),
                "autoscale.windows": len(result.windows),
                "autoscale.serve_calls": tracer.count(
                    "serving.serve", "autoscale"
                ),
                "autoscale.serve_s": serve_s,
                "autoscale.scaling_actions": result.scaling_actions,
                "autoscale.cold_windows": sum(
                    1 for w in result.windows if w.cold_nodes
                ),
            }
        )
    return rep


WORKLOADS = {
    "plan-models": plan_models,
    "replay-diurnal": replay_diurnal,
    "elastic-tiered": elastic_tiered,
}
