"""Command-line interface.

Usage::

    repro experiments [NAME ...]           # regenerate tables/figures
    repro plan MODEL [options]             # run Algorithm 1 on a model
    repro infer MODEL [options]            # deploy a backend, run inference
    repro fleet MODEL QPS [options]        # size fleets for a target load
    repro serve MODEL [options]            # latency-under-load serving lab
    repro cluster MODEL [options]          # routed heterogeneous cluster
    repro plan-shards MODEL [options]      # shard one model across nodes
    repro autoscale MODEL [options]        # elastic fleet through a trace
    repro tiers MODEL [options]            # tiered storage: warm vs cold
    repro stats MODEL [options]            # telemetry plane of one window
    repro bench [options]                  # backend x model x batch sweep
    repro lint PATH [PATH ...] [options]   # AST invariant checker
    repro info                             # library / model overview

(Also runnable as ``python -m repro``.)  ``MODEL`` is a registered model
name; ``--backend`` selects a registered inference backend, ``--router``
(on ``cluster``/``stats``) a registered routing policy, ``--policy`` (on
``autoscale``) a registered scaler policy (on ``tiers``, a registered
cache policy), ``--strategy`` (on ``plan-shards``) a registered
sharding strategy, and ``--exporter`` (on ``stats``) a registered
telemetry exporter — the ``--help`` epilog
lists the registries live, so third-party plugins show up automatically.
``--json`` on ``plan``/``infer``/``fleet``/``serve``/``cluster``/
``plan-shards``/``autoscale``/``tiers``/``stats``/``bench``/``lint``/
``info`` emits machine-readable output for
scripting: with ``--json``, stdout carries *only* the JSON document
(progress goes to stderr), so the output pipes straight into ``python -m
json.tool``.  Bad input exits 2 with a one-line message.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, Sequence


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _require_known(what: str, names: str | Sequence[str], known: list) -> None:
    """Raise ``ValueError`` unless every name is in ``known``.

    ``names`` is one name, or a sequence whose unknowns are reported
    together (``what`` then reads e.g. ``"experiment(s)"``).
    """
    if isinstance(names, str):
        if names not in known:
            raise ValueError(f"unknown {what} {names!r}; available: {known}")
    elif unknown := [n for n in names if n not in known]:
        raise ValueError(f"unknown {what} {unknown}; available: {known}")


def _check_model(name: str) -> None:
    from repro.models.spec import MODEL_FACTORIES

    _require_known("model", name, sorted(MODEL_FACTORIES))


def _check_process(name: str) -> None:
    from repro.serving.arrivals import ARRIVAL_PROCESSES

    _require_known("arrival process", name, list(ARRIVAL_PROCESSES))


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.harness import EXPERIMENTS
    from repro.experiments.report import render_table

    names = args.names or list(EXPERIMENTS)
    _require_known("experiment(s)", names, sorted(EXPERIMENTS))
    for name in names:
        print(render_table(EXPERIMENTS[name]()))
        print()
    return 0


def _build_session(model: str, backend: str, max_rows: int | None, **knobs):
    from repro.runtime import deploy_model

    return deploy_model(model, backend=backend, max_rows=max_rows, **knobs)


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.planner import PlannerConfig
    from repro.memory.spec import u280_memory_system
    from repro.memory.timing import MemoryTimingModel

    _check_model(args.model)
    memory = u280_memory_system(
        hbm_channels=args.hbm_channels, onchip_banks=args.onchip_banks
    )
    session = _build_session(
        args.model,
        args.backend,
        args.max_rows,
        memory=memory,
        timing=MemoryTimingModel(axi=memory.axi),
        planner_config=PlannerConfig(
            enable_cartesian=not args.no_cartesian,
            max_candidate_rows=args.max_candidate_rows,
            max_product_bytes=args.max_product_bytes,
        ),
    )
    plan = getattr(session, "plan", None)
    if args.show_merges and plan is None:
        return _fail(
            f"--show-merges needs a planning backend, not {args.backend!r}"
        )
    summary = session.summary()
    merges = None
    if args.show_merges:
        merges = []
        for group in plan.merge_groups:
            spec = plan.placement.group_spec(group)
            merges.append(
                {
                    "member_ids": list(group.member_ids),
                    "rows": spec.rows,
                    "dim": spec.dim,
                    "nbytes": spec.nbytes,
                }
            )
    if args.json:
        payload = dict(summary)
        if merges is not None:
            payload["merges"] = merges
        print(json.dumps(payload, indent=2, default=str))
        return 0
    model = session.model
    print(f"model: {model.name} ({model.num_tables} tables, "
          f"{model.total_embedding_bytes / 1e9:.2f} GB), "
          f"backend: {session.backend}")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    if merges is not None:
        for merge in merges:
            print(
                f"  merge {tuple(merge['member_ids'])}: {merge['rows']} rows "
                f"x dim {merge['dim']} = {merge['nbytes'] / 2**20:.1f} MiB"
            )
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.models.workload import QueryGenerator

    _check_model(args.model)
    if args.batch <= 0:
        return _fail(f"--batch must be positive, got {args.batch}")
    session = _build_session(
        args.model, args.backend, args.max_rows,
        precision=args.precision, seed=args.seed,
    )
    queries = QueryGenerator(session.model, seed=args.seed).batch(args.batch)
    preds = session.infer(queries)
    reference = session.reference().infer(queries)
    max_err = float(np.abs(preds - reference).max())
    perf = session.perf()
    if args.json:
        print(
            json.dumps(
                {
                    "model": session.model.name,
                    "backend": session.backend,
                    "precision": session.precision,
                    "batch": args.batch,
                    "predictions": [float(p) for p in preds[: args.show]],
                    "mean_ctr": float(preds.mean()),
                    "max_abs_error_vs_fp32": max_err,
                    "perf": perf.as_dict(),
                },
                indent=2,
            )
        )
        return 0
    print(f"model: {session.model.name}, backend: {session.backend} "
          f"({session.precision}), batch: {args.batch}")
    print(f"  CTR[:{args.show}] = {np.round(preds[: args.show], 4)}")
    print(f"  mean CTR = {preds.mean():.4f}")
    print(f"  max |pred - fp32 reference| = {max_err:.2e}")
    print(f"  latency: {perf.latency_us:.1f} us/query  "
          f"throughput: {perf.throughput_items_per_s:,.0f} items/s  "
          f"bottleneck: {perf.bottleneck}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.deploy.capacity import plan_fleet_for

    _check_model(args.model)
    estimates = [
        _build_session(
            args.model, name, args.max_rows, precision=args.precision
        ).perf()
        for name in args.backend or ["fpga", "cpu"]
    ]
    fleets = plan_fleet_for(args.qps, estimates, headroom=args.headroom)
    if args.json:
        print(
            json.dumps(
                {name: fleet.as_dict() for name, fleet in fleets.items()},
                indent=2,
            )
        )
        return 0
    print(f"fleet sizing for {args.qps:,.0f} queries/s ({args.model}):")
    width = max(len(n) for n in fleets)
    for name, fleet in fleets.items():
        print(
            f"  {name:>{width}}: {fleet.nodes:4d} nodes  "
            f"${fleet.usd_per_hour:8.2f}/h  "
            f"${fleet.usd_per_million_queries:.4f}/1M  "
            f"{fleet.latency_ms:9.3f} ms/query  "
            f"{fleet.utilisation:.0%} utilised"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.runtime import UnknownBackendError, available_backends
    from repro.serving.arrivals import ARRIVAL_PROCESSES
    from repro.serving.lab import (
        DEFAULT_PROCESSES,
        DEFAULT_UTILISATIONS,
        session_lab,
    )

    _check_model(args.model)
    processes = tuple(args.process or DEFAULT_PROCESSES)
    _require_known("arrival process(es)", processes, list(ARRIVAL_PROCESSES))
    sweep_knobs = {
        "processes": processes,
        "rates": tuple(args.rate) if args.rate else None,
        "utilisations": tuple(args.utilisation or DEFAULT_UTILISATIONS),
        "duration_s": args.duration_s,
        "slo_ms": args.slo_ms,
        "slo_percentile": args.percentile,
        "seed": args.seed,
    }
    report: dict[str, object] = {}
    for name in args.backend or available_backends():
        try:
            session = _build_session(
                args.model, name, args.max_rows, seed=args.seed
            )
        except (UnknownBackendError, ValueError) as exc:
            if args.backend:
                raise
            # Sweeping every registered backend: some cannot deploy this
            # model as-is (fpga-compressed needs --max-rows to fit its
            # 256 MiB materialisation limit) — skip them with a note
            # rather than discarding the whole lab.
            print(exc, file=sys.stderr)
            print(f"serve {args.model}/{name}: skipped (cannot deploy; "
                  "see error above)", file=sys.stderr)
            continue
        print(f"serve {args.model}/{name} ...", file=sys.stderr)
        lab = session_lab(session, **sweep_knobs)
        lab["fleet"] = session.fleet(args.qps, headroom=args.headroom).as_dict()
        try:
            lab["fleet_sla"] = session.fleet_sla(
                args.qps,
                slo_ms=args.slo_ms,
                slo_percentile=args.percentile,
                duration_s=args.duration_s,
                headroom=args.headroom,
                seed=args.seed,
            ).as_dict()
        except ValueError as exc:
            # The SLO sits below this engine's latency floor: no fleet
            # size can meet it, which is itself a lab result.
            lab["fleet_sla"] = None
            print(f"  fleet-sla: {exc}", file=sys.stderr)
        report[name] = lab
    if not report:
        return _fail("no backend could deploy this model (see errors above)")
    payload = {
        "model": args.model,
        "slo_ms": args.slo_ms,
        "slo_percentile": args.percentile,
        "duration_s": args.duration_s,
        "seed": args.seed,
        "target_qps": args.qps,
        "processes": list(processes),
        "backends": report,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"serving lab: {args.model}, p{args.percentile:g} SLO "
        f"{args.slo_ms:g} ms, {args.duration_s:g}s windows"
    )
    for name, lab in report.items():
        print(f"\n{name}:")
        for process, curve in lab["processes"].items():
            cap = curve["sla_capacity_per_s"]
            knee = curve["knee_rate_per_s"]
            knee_text = f"{knee:,.0f}/s" if knee is not None else "-"
            print(
                f"  {process}: SLA capacity {cap:,.0f}/s, knee {knee_text}"
            )
            for p in curve["points"]:
                print(
                    f"    {p['rate_per_s']:>12,.0f}/s "
                    f"(u={p['utilisation']:4.2f}): "
                    f"p50 {p['p50_ms']:8.3f}  p99 {p['p99_ms']:8.3f}  "
                    f"p99.9 {p['p999_ms']:8.3f} ms  "
                    f"SLA {p['sla_attainment']:6.1%}"
                )
        fleet = lab["fleet"]
        fleet_sla = lab["fleet_sla"]
        if fleet_sla is None:
            print(
                f"  fleet @ {args.qps:,.0f} qps: {fleet['nodes']} nodes "
                f"(throughput); SLO unattainable at any size"
            )
        else:
            bound = " (SLO-bound)" if fleet_sla["slo_bound"] else ""
            print(
                f"  fleet @ {args.qps:,.0f} qps: {fleet['nodes']} nodes "
                f"(throughput) -> {fleet_sla['nodes']} nodes "
                f"(p{args.percentile:g} <= {args.slo_ms:g} ms, "
                f"${fleet_sla['usd_per_hour']:,.2f}/h){bound}"
            )
    return 0


def _parse_tier(text: str, default_model: str):
    """Parse one ``--tier BACKEND[:COUNT[:MODEL]]`` specification."""
    from repro.cluster import ReplicaSpec

    parts = text.split(":")
    if len(parts) > 3 or not parts[0]:
        raise ValueError(
            f"bad --tier {text!r}; expected BACKEND[:COUNT[:MODEL]]"
        )
    try:
        count = int(parts[1]) if len(parts) > 1 and parts[1] else 1
    except ValueError:
        raise ValueError(
            f"bad --tier {text!r}; COUNT must be an integer"
        ) from None
    model = parts[2] if len(parts) > 2 and parts[2] else default_model
    return ReplicaSpec(model=model, backend=parts[0], count=count)


def _deploy_tiers(args: argparse.Namespace, default: list[str], *,
                  sharded: bool = False, node_capacity_bytes: int | None = None):
    """Parse ``--tier`` (``default`` when absent) and deploy the tiers.

    Returns ``(tier_texts, surface)``: a routed cluster, or with
    ``sharded`` the one model ``args.model`` sharded across every node.
    """
    from repro.cluster import deploy_cluster
    from repro.distplan import deploy_sharded

    texts = args.tier or default
    specs = [_parse_tier(text, args.model) for text in texts]
    for text, spec in zip(texts, specs):
        if sharded and spec.model != args.model:
            raise ValueError(
                f"plan-shards serves one model across the cluster; "
                f"--tier {text!r} names a different model "
                f"({spec.model!r} != {args.model!r})"
            )
        _check_model(spec.model)
    common = {"slo_ms": args.slo_ms, "max_rows": args.max_rows,
              "seed": args.seed}
    if sharded:
        return texts, deploy_sharded(
            args.model, specs, args.strategy,
            node_capacity_bytes=node_capacity_bytes, **common,
        )
    return texts, deploy_cluster(specs, router=args.router, **common)


def _offered_rate(rate: float | None, scale: float, capacity: float) -> float:
    """``rate`` when given, else ``scale`` x ``capacity``; must be > 0."""
    rate = rate if rate is not None else scale * capacity
    if rate <= 0:
        raise ValueError(f"offered rate must be positive, got {rate}")
    return rate


def _serve_seeded(surface, args, process: str, rate: float, *tags):
    """Serve one ``args.duration_s`` window of ``process`` arrivals,
    seeded by ``lab_seed(args.seed, surface.backend, *tags)``.

    Returns ``(arrivals, result)``.
    """
    import numpy as np

    from repro.serving.arrivals import arrivals_for
    from repro.serving.lab import lab_seed

    rng = np.random.default_rng(lab_seed(args.seed, surface.backend, *tags))
    arrivals = arrivals_for(process, rng, rate, args.duration_s)
    return arrivals, surface.serve(arrivals)


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import Cluster

    _check_model(args.model)
    _check_process(args.process)
    tier_texts, cluster = _deploy_tiers(args, ["fpga", "gpu", "cpu"])
    capacity = cluster.perf().throughput_items_per_s
    rate = _offered_rate(args.rate, args.utilisation, capacity)
    arrivals, result = _serve_seeded(
        cluster, args, args.process, rate, args.process, "cli"
    )
    fleet = cluster.fleet(args.qps, headroom=args.headroom)

    # The routed story needs its null hypothesis: the same traffic on a
    # homogeneous fleet of each tier at the same total node count,
    # reusing the already-built sessions (replica slots share engines).
    # Tiers are keyed per distinct build — two same-backend tiers with
    # different models/row-caps each get their own comparison row,
    # disambiguated by model label.
    singles: dict[str, object] = {}
    nodes = len(cluster)
    tier_builds: dict[int, tuple] = {}
    for session, label in zip(cluster.replicas, cluster.model_labels):
        tier_builds.setdefault(id(session), (session, label))
    backend_tally: dict[str, int] = {}
    for session, _label in tier_builds.values():
        backend_tally[session.backend] = (
            backend_tally.get(session.backend, 0) + 1
        )
    for session, label in tier_builds.values():
        key = (
            session.backend
            if backend_tally[session.backend] == 1
            else f"{session.backend}:{label}"
        )
        while key in singles:  # same backend *and* label: count them off
            key += "'"
        homo = Cluster(
            [session] * nodes, "round-robin", slo_ms=args.slo_ms
        )
        homo_result = homo.serve(arrivals)
        singles[key] = {
            "nodes": nodes,
            "usd_per_hour": homo.usd_per_hour,
            "p50_ms": homo_result.p50_ms,
            "p99_ms": homo_result.p99_ms,
            "sla_attainment": homo_result.sla_attainment(args.slo_ms),
        }
    payload = {
        "model": args.model,
        "tiers": list(tier_texts),
        "router": args.router,
        "slo_ms": args.slo_ms,
        "process": args.process,
        "duration_s": args.duration_s,
        "seed": args.seed,
        "rate_per_s": rate,
        "capacity_per_s": capacity,
        "cluster": cluster.summary(),
        "result": result.as_dict(args.slo_ms),
        "fleet": fleet.as_dict(),
        "singles": singles,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"cluster {cluster.backend}: router {args.router}, "
        f"{len(cluster)} replicas, capacity {capacity:,.0f}/s"
    )
    print(
        f"  {args.process} @ {rate:,.0f}/s for {args.duration_s:g}s "
        f"({result.count:,} queries, p99 SLO {args.slo_ms:g} ms)"
    )
    blended = payload["result"]["blended"]
    print(
        f"  blended: p50 {blended['p50_ms']:8.3f}  "
        f"p99 {blended['p99_ms']:8.3f}  p99.9 {blended['p999_ms']:8.3f} ms  "
        f"SLA {blended['sla_attainment']:6.1%}  "
        f"${result.usd_per_million_queries:.4f}/1M"
    )
    for name, tier in payload["result"]["tiers"].items():
        if tier["queries"]:
            detail = (
                f"p99 {tier['p99_ms']:8.3f} ms  "
                f"SLA {tier['sla_attainment']:6.1%}"
            )
        else:
            detail = "idle"
        print(
            f"  {name:>16}: {tier['queries']:>8,} queries "
            f"({tier['share']:6.1%})  {detail}"
        )
    print(f"  fleet @ {args.qps:,.0f} qps: {fleet.nodes} cluster(s), "
          f"${fleet.usd_per_hour:,.2f}/h")
    print(f"  same traffic, homogeneous {nodes}-node fleets:")
    for name, single in singles.items():
        print(
            f"  {name:>16} x{nodes}: p99 {single['p99_ms']:10.3f} ms  "
            f"SLA {single['sla_attainment']:6.1%}  "
            f"${single['usd_per_hour']:7.2f}/h"
        )
    return 0


def _cmd_plan_shards(args: argparse.Namespace) -> int:
    _check_model(args.model)
    node_capacity = (
        int(args.node_gb * 1024**3) if args.node_gb is not None else None
    )
    if node_capacity is not None and node_capacity <= 0:
        return _fail(f"--node-gb must be positive, got {args.node_gb}")
    tier_texts, cluster = _deploy_tiers(
        args, ["fpga:4"], sharded=True, node_capacity_bytes=node_capacity
    )
    capacity = cluster.perf().throughput_items_per_s
    rate = _offered_rate(args.rate, args.utilisation, capacity)
    _, result = _serve_seeded(cluster, args, "poisson", rate, "plan-shards")
    plan = cluster.plan
    payload = {
        "model": args.model,
        "tiers": list(tier_texts),
        "strategy": plan.strategy,
        "slo_ms": args.slo_ms,
        "duration_s": args.duration_s,
        "seed": args.seed,
        "rate_per_s": rate,
        "capacity_per_s": capacity,
        "plan": plan.as_dict(),
        "cluster": cluster.summary(),
        "result": result.as_dict(args.slo_ms),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"sharding plan for {args.model} on {len(cluster)} node(s): "
        f"strategy {plan.strategy}, fan-out {plan.fanout}, "
        f"{len(plan.shards)} shard(s) "
        f"({len(plan.sharded_table_ids())} split table(s)), "
        f"{plan.as_dict()['total_gb']:.2f} GB total"
    )
    for node in payload["plan"]["nodes"]:
        print(
            f"  node {node['node']:>3} ({node['backend']:>14}): "
            f"{node['bytes'] / 1024**3:8.3f} / {node['capacity_gb']:8.2f} GB "
            f"({node['utilisation']:6.1%})  {node['shards']:4d} shard(s)"
        )
    blended = payload["result"]["blended"]
    print(
        f"  fan-out serving @ {rate:,.0f}/s for {args.duration_s:g}s "
        f"({result.count:,} queries): p50 {blended['p50_ms']:8.3f}  "
        f"p99 {blended['p99_ms']:8.3f} ms  "
        f"SLA {blended['sla_attainment']:6.1%}  "
        f"${result.usd_per_million_queries:.4f}/1M"
    )
    return 0


def _cmd_autoscale(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.autoscale import available_scalers, compare_policies, get_scaler
    from repro.serving.arrivals import TRACE_SHAPES, trace_for
    from repro.serving.lab import lab_seed

    _check_model(args.model)
    _require_known("trace", args.trace, list(TRACE_SHAPES))
    policies = args.policy or list(available_scalers())
    for name in policies:
        get_scaler(name)  # fail on typos before any build work
    session = _build_session(
        args.model, args.backend, args.max_rows, seed=args.seed
    )
    per_node = session.perf().throughput_items_per_s
    rate = _offered_rate(args.rate, args.nodes_mean, per_node)
    # Shape construction (and the horizon check) lives in trace_for; only
    # the seeding of the bursty shape's modulation path is decided here.
    rng = np.random.default_rng(lab_seed(args.seed, "autoscale-trace"))
    trace = trace_for(args.trace, rng, rate, args.windows * args.interval_s)
    results = compare_policies(
        session,
        trace,
        policies,
        progress=lambda name: print(
            f"autoscale {args.model}/{session.backend}/{name} ...",
            file=sys.stderr,
        ),
        slo_ms=args.slo_ms,
        slo_percentile=args.percentile,
        windows=args.windows,
        provision_delay_s=args.provision_delay_s,
        cooldown_s=args.cooldown_s,
        min_nodes=args.min_nodes,
        max_nodes=args.max_nodes,
        seed=args.seed,
    )
    report = {name: result.as_dict() for name, result in results.items()}
    payload = {
        "model": args.model,
        "backend": session.backend,
        "trace": args.trace,
        "rate_per_s": rate,
        "windows": args.windows,
        "interval_s": args.interval_s,
        "slo_ms": args.slo_ms,
        "slo_percentile": args.percentile,
        "seed": args.seed,
        "policies": report,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"autoscale {args.model}/{session.backend}: {args.trace} trace @ "
        f"{rate:,.0f}/s mean, {args.windows} x {args.interval_s:g}s "
        f"windows, p{args.percentile:g} SLO {args.slo_ms:g} ms"
    )
    for name, result in report.items():
        agg = result["aggregate"]
        nodes_line = " ".join(
            str(w["nodes"]) for w in result["timeline"]
        )
        print(f"\n{name}:")
        print(f"  nodes/window: {nodes_line}")
        print(
            f"  mean {agg['mean_nodes']:6.2f} nodes (peak "
            f"{agg['peak_nodes']}, {agg['scaling_actions']} resizes)  "
            f"SLA {agg['sla_attainment']:7.2%}  "
            f"${agg['usd_per_hour']:8.2f}/h  "
            f"${agg['usd_per_million_queries']:.4f}/1M"
        )
        static = result["static_baseline"]
        if static is None:
            print("  static baseline: SLO unattainable at any fleet size")
        else:
            savings = agg["usd_savings_vs_static"]
            print(
                f"  vs static x{static['nodes']} (peak-sized): "
                f"SLA {static['sla_attainment']:7.2%}  "
                f"${static['usd_per_hour']:8.2f}/h  "
                f"elastic saves {savings:+.1%}"
            )
    return 0


def _cmd_tiers(args: argparse.Namespace) -> int:
    from repro.memory import scaled_tier_hierarchy
    from repro.serving.lab import DEFAULT_UTILISATIONS, tiering_lab
    from repro.serving.popularity import PopularityModel

    _check_model(args.model)
    _check_process(args.process)
    session = _build_session(
        args.model, args.backend, args.max_rows, seed=args.seed
    )
    rows = sum(t.rows for t in session.model.tables)
    hierarchy = scaled_tier_hierarchy(
        rows,
        policy=args.policy,
        hot_fraction=args.hot_fraction,
        warm_accesses=args.warm_accesses,
        sim_queries=args.sim_queries,
    )
    session.attach_tiers(
        hierarchy,
        popularity=PopularityModel(
            rows=rows,
            alpha=args.alpha,
            drift_rows_per_s=args.drift,
        ),
        seed=args.seed,
    )
    block = tiering_lab(
        session,
        process=args.process,
        utilisations=tuple(args.utilisation or DEFAULT_UTILISATIONS),
        duration_s=args.duration_s,
        slo_ms=args.slo_ms,
        slo_percentile=args.percentile,
        seed=args.seed,
    )
    payload = {"model": args.model, "seed": args.seed, **block}
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    steady = payload["steady_state"]
    print(
        f"tiered storage: {args.model}/{session.backend}, "
        f"policy {args.policy}, {rows:,} rows "
        f"(alpha={args.alpha:g}, drift={args.drift:g} rows/s)"
    )
    print("  tiers:")
    for tier in payload["hierarchy"]["tiers"]:
        print(
            f"    {tier['name']:>6}: {tier['capacity_rows']:>12,} rows  "
            f"{tier['access_ns']:10,.0f} ns"
        )
    print(
        f"  steady state: hit rate {steady['hit_rate']:.1%}, "
        f"effective lookup {steady['effective_lookup_ns']:,.0f} ns "
        f"(hot {steady['hot_lookup_ns']:,.0f} ns, "
        f"{steady['lookups_per_query']} lookups/query)"
    )
    for label in ("warm", "cold"):
        curve = payload[label]
        cap = curve["sla_capacity_per_s"]
        print(f"  {label}: SLA capacity {cap:,.0f}/s")
        for p in curve["points"]:
            print(
                f"    {p['rate_per_s']:>12,.0f}/s "
                f"(u={p['utilisation']:4.2f}): "
                f"p50 {p['p50_ms']:8.3f}  p99 {p['p99_ms']:8.3f} ms  "
                f"SLA {p['sla_attainment']:6.1%}"
            )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import SpanRecorder, get_exporter

    _check_model(args.model)
    _check_process(args.process)
    get_exporter(args.exporter)
    if args.tier:
        _, surface = _deploy_tiers(args, [])
    else:
        surface = _build_session(
            args.model, args.backend, args.max_rows, seed=args.seed
        )
    hub = surface.telemetry
    if args.spans:
        hub.spans = SpanRecorder(sample_rate=args.span_rate, seed=args.seed)
    capacity = surface.perf().throughput_items_per_s
    rate = _offered_rate(args.rate, args.utilisation, capacity)
    _serve_seeded(surface, args, args.process, rate, args.process, "stats")
    if args.json:
        payload = {
            "model": args.model,
            "backend": surface.backend,
            "process": args.process,
            "duration_s": args.duration_s,
            "rate_per_s": rate,
            "seed": args.seed,
            "telemetry": hub.snapshot(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"telemetry: {args.model}/{surface.backend}, "
        f"{args.process} @ {rate:,.0f}/s for {args.duration_s:g}s "
        f"(seed {args.seed})"
    )
    print(hub.render(exporter=args.exporter))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        BLOCKS,
        BenchConfig,
        BenchSchemaError,
        compare_payloads,
        config_summary,
        default_output_path,
        regressions,
        run_bench,
        validate_file,
        write_payload,
    )

    overrides: dict[str, object] = {}
    if args.model:
        overrides["models"] = tuple(args.model)
    if args.backend:
        overrides["backends"] = tuple(args.backend)
    for block in BLOCKS:
        overrides.update(block.overrides(args))
    if args.batch:
        overrides["batches"] = tuple(args.batch)
    if args.max_rows is not None:
        overrides["max_rows"] = args.max_rows
    if args.name:
        overrides["name"] = args.name
    overrides["seed"] = args.seed
    overrides["target_qps"] = args.qps
    if args.stamp_wall_clock_budgets is not None:
        overrides["wall_clock_budget_multiplier"] = (
            args.stamp_wall_clock_budgets
        )
    make = BenchConfig.quick_config if args.quick else BenchConfig
    config = make(**overrides)
    if args.wall_clock_budget_scale <= 0:
        return _fail(
            f"--wall-clock-budget-scale must be positive, got "
            f"{args.wall_clock_budget_scale:g}"
        )

    # Progress always goes to stderr so that with --json stdout carries
    # only the JSON document (CI pipes it into the schema validator).
    def log(message: str) -> None:
        print(message, file=sys.stderr)

    log(config_summary(config))
    payload = run_bench(config, log=log)
    if args.fail_on_regression is not None and not args.compare:
        return _fail(
            "--fail-on-regression needs --compare OLD.json to diff against"
        )
    regression_lines: list[str] = []
    if args.compare:
        try:
            baseline = validate_file(args.compare)
        except BenchSchemaError as exc:
            return _fail(f"--compare baseline rejected: {exc}")
        payload["comparison"] = compare_payloads(
            baseline,
            payload,
            wall_clock_budget_scale=args.wall_clock_budget_scale,
        )
        threshold = (
            5.0 if args.fail_on_regression is None else args.fail_on_regression
        )
        regression_lines = regressions(
            payload["comparison"], threshold_pct=threshold
        )

    def gate() -> int:
        """Exit 1 when --fail-on-regression is armed and deltas trip it."""
        if args.fail_on_regression is not None and regression_lines:
            for line in regression_lines:
                log(f"regression: {line}")
            log(
                f"{len(regression_lines)} regression(s) worse than "
                f"{args.fail_on_regression:g}% vs {args.compare}"
            )
            return 1
        return 0

    out_path = args.output or default_output_path(config.name)
    write_payload(payload, out_path)
    log(f"wrote {out_path}")
    if args.json:
        print(json.dumps(payload, indent=2))
        return gate()
    print(f"benchmark sweep {config.name!r} "
          f"({payload['wall_clock_s']:.2f}s) -> {out_path}")
    width = max(
        len(f"{r['model']}/{r['backend']}") for r in payload["results"]
    )
    for r in payload["results"]:
        perf = r["perf"]
        print(
            f"  {r['model'] + '/' + r['backend']:>{width}}: "
            f"{perf['latency_us']:12,.1f} us/query  "
            f"{perf['throughput_items_per_s']:12,.0f} items/s  "
            f"${perf['usd_per_million_queries']:.4f}/1M  "
            f"{r['fleet']['nodes']:4d} nodes @ "
            f"{payload['config']['target_qps']:,.0f} qps"
        )
    if args.compare:
        baseline_name = payload["comparison"]["baseline_name"]
        if regression_lines:
            print(f"regressions vs {baseline_name!r} ({args.compare}):")
            for line in regression_lines:
                print(f"  {line}")
        else:
            print(f"no regressions vs {baseline_name!r} ({args.compare})")
    return gate()


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_and_report

    return run_and_report(args.paths, select=args.select, as_json=args.json)


def _registries() -> tuple[
    tuple[str, Callable[[], tuple[str, ...]], type[LookupError]], ...
]:
    """Every name-keyed registry as ``(label, available_fn, error)``, in
    the order ``repro info`` and the ``--help`` epilogs list them;
    ``error`` is the registry's unknown-name error."""
    from repro.analysis import UnknownRuleError, available_rules
    from repro.autoscale import UnknownScalerError, available_scalers
    from repro.cluster import UnknownRoutingPolicyError, available_policies
    from repro.distplan import UnknownShardingStrategyError, available_strategies
    from repro.memory import UnknownCachePolicyError, available_cache_policies
    from repro.runtime import UnknownBackendError, available_backends
    from repro.telemetry import UnknownExporterError, available_exporters

    return (
        ("backends", available_backends, UnknownBackendError),
        ("routing policies", available_policies, UnknownRoutingPolicyError),
        ("scaler policies", available_scalers, UnknownScalerError),
        ("sharding strategies", available_strategies,
         UnknownShardingStrategyError),
        ("cache policies", available_cache_policies, UnknownCachePolicyError),
        ("telemetry exporters", available_exporters, UnknownExporterError),
        ("lint rules", available_rules, UnknownRuleError),
    )


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.experiments.harness import EXPERIMENTS
    from repro.models.spec import MODEL_FACTORIES

    if args.json:
        models = {}
        for name, factory in MODEL_FACTORIES.items():
            m = factory()
            models[name] = {
                "tables": m.num_tables,
                "feature_len": m.feature_len,
                "embedding_gb": m.total_embedding_bytes / 1e9,
            }
        print(
            json.dumps(
                {
                    "version": repro.__version__,
                    **{
                        label.replace(" ", "_"): list(available())
                        for label, available, _ in _registries()
                    },
                    "models": models,
                    "experiments": list(EXPERIMENTS),
                },
                indent=2,
            )
        )
        return 0
    print(f"repro {repro.__version__} — MicroRec (MLSys'21) reproduction")
    print()
    for label, available, _ in _registries():
        print(f"{label}: {', '.join(available())}")
    print("\nproduction models (+ benchmark family):")
    for name, factory in MODEL_FACTORIES.items():
        m = factory()
        print(
            f"  {name}: {m.num_tables} tables, feat {m.feature_len}, "
            f"{m.total_embedding_bytes / 1e9:.2f} GB"
        )
    print(f"\nexperiments: {', '.join(EXPERIMENTS)}")
    return 0


def _registry_epilog() -> str:
    """Live registry listing for ``--help`` epilogs.

    Built from the registries at parser-construction time rather than
    hard-coded strings, so backends or routing policies registered by
    plugins (or future PRs) appear in the help text automatically.
    """
    from repro.models.spec import MODEL_FACTORIES

    return "\n".join(
        [f"registered models: {' | '.join(MODEL_FACTORIES)}"]
        + [
            f"registered {label}: {' | '.join(available())}"
            for label, available, _ in _registries()
        ]
    )


def _finite_float(text: str) -> float:
    """argparse ``type`` of every float flag: ``nan``/``inf`` exit 2
    with a message naming the flag, like any other malformed number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


#: Per-verb override turning a shared flag into a repeatable list.
_REPEATABLE = {"action": "append", "default": None}


def _arg(flag: str, **kwargs) -> tuple[str, dict]:
    """One verb-local flag, spelled like ``add_argument``."""
    return flag, kwargs


def _shared_flags() -> dict[str, tuple[str, dict]]:
    """Every flag more than one verb takes, stated once by key.

    A verb names the keys it takes and may pass, per key, its own
    default or a dict of ``add_argument`` overrides (e.g.
    ``_REPEATABLE``); the help then states that default, or that the
    flag repeats.
    """
    from repro.cluster import available_policies
    from repro.models.spec import MODEL_FACTORIES
    from repro.runtime import available_backends
    from repro.serving.arrivals import ARRIVAL_PROCESSES

    def names(items) -> str:
        return " | ".join(items)

    return {
        "model": _arg("model", help=names(MODEL_FACTORIES)),
        "backend": _arg(
            "--backend",
            help=f"inference backend ({names(available_backends())})",
        ),
        "tier": _arg(
            "--tier", action="append", default=None,
            metavar="BACKEND[:COUNT[:MODEL]]",
            help="one replica tier of a routed cluster",
        ),
        "router": _arg(
            "--router", default="sla-aware",
            help=f"routing policy ({names(available_policies())})",
        ),
        "precision": _arg(
            "--precision", default=None,
            help="fp32 | fixed16 | fixed32 (backend default if omitted: "
            "fixed16 on fpga, fp32 on cpu)",
        ),
        "process": _arg(
            "--process", default="poisson", metavar="NAME",
            help=f"arrival process ({names(ARRIVAL_PROCESSES)})",
        ),
        "utilisation": _arg(
            "--utilisation", type=_finite_float, metavar="FRAC",
            help="offered load as a fraction of capacity",
        ),
        "rate": _arg(
            "--rate", type=_finite_float, default=None, metavar="QPS",
            help="absolute offered rate in queries/s (overrides "
            "--utilisation)",
        ),
        "slo_ms": _arg(
            "--slo-ms", type=_finite_float, default=30.0,
            help="latency SLO in ms",
        ),
        "percentile": _arg(
            "--percentile", type=_finite_float, default=99.0,
            help="percentile the SLO is judged at",
        ),
        "duration_s": _arg(
            "--duration-s", type=_finite_float, default=0.2,
            help="simulated serving window in seconds",
        ),
        "qps": _arg(
            "--qps", type=_finite_float, default=1_000_000.0,
            help="fleet-sizing target load in queries/s",
        ),
        "headroom": _arg("--headroom", type=_finite_float, default=0.7),
        "max_rows": _arg(
            "--max-rows", type=int, default=None,
            help="row-cap tables before deployment (required for "
            "fpga-compressed, whose codes must fit 256 MiB)",
        ),
        "seed": _arg("--seed", type=int, default=0),
        "json": _arg(
            "--json", action="store_true",
            help="print one machine-readable JSON document on stdout",
        ),
    }


def build_parser() -> argparse.ArgumentParser:
    from repro._version import __version__
    from repro.analysis import rules_epilog
    from repro.autoscale import available_scalers
    from repro.bench import BLOCKS
    from repro.core.planner import PlannerConfig
    from repro.distplan import available_strategies
    from repro.memory import available_cache_policies
    from repro.serving.arrivals import TRACE_SHAPES
    from repro.serving.popularity import DEFAULT_ALPHA
    from repro.telemetry import available_exporters

    registry_epilog = _registry_epilog()
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        epilog=registry_epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = _shared_flags()

    def verb(name, func, summary, *flags, epilog=None, description=None,
             **per_verb):
        """Add one verb taking ``flags`` in order: shared keys or
        ``_arg(...)`` locals; ``per_verb`` sets a shared key's default
        (or overrides its kwargs)."""
        p = sub.add_parser(
            name, help=summary, description=description, epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        for flag in flags:
            if isinstance(flag, str):
                override = per_verb.get(flag, {})
                flag, kwargs = shared[flag]
                kwargs = {**kwargs, **(
                    override if isinstance(override, dict)
                    else {"default": override}
                )}
                repeat = kwargs.get("action") == "append"
                if "help" in kwargs and (repeat or kwargs.get("default") is not None):
                    kwargs["help"] += (" (repeatable)" if repeat
                                       else " (default %(default)s)")
            else:
                flag, kwargs = flag
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)

    planner = PlannerConfig()
    verb(
        "experiments", _cmd_experiments, "regenerate paper tables/figures",
        _arg("names", nargs="*", help="experiment names (default: all)"),
    )
    verb(
        "plan", _cmd_plan, "run Algorithm 1 on a model",
        "model", "backend",
        _arg("--no-cartesian", action="store_true"),
        _arg(
            "--max-candidate-rows", type=int,
            default=planner.max_candidate_rows,
            help="rule 1 cutoff: largest table eligible for Cartesian "
            "merging",
        ),
        _arg(
            "--max-product-bytes", type=int,
            default=planner.max_product_bytes,
            help="rule 2/3 cutoff: largest allowed merged-product footprint",
        ),
        "max_rows",
        _arg("--hbm-channels", type=int, default=32),
        _arg("--onchip-banks", type=int, default=8),
        _arg("--show-merges", action="store_true"),
        "json",
        backend="fpga",
    )
    verb(
        "infer", _cmd_infer, "deploy a backend and run real inference",
        "model", "backend", "precision",
        _arg("--batch", type=int, default=128),
        "max_rows", "seed",
        _arg("--show", type=int, default=5, help="predictions to print"),
        "json",
        backend="fpga",
    )
    verb(
        "fleet", _cmd_fleet, "size engine fleets for a load",
        "model",
        _arg("qps", type=_finite_float, help="target queries per second"),
        "backend", "max_rows", "precision", "headroom", "json",
        backend=_REPEATABLE,
    )
    verb(
        "serve", _cmd_serve,
        "trace-driven serving lab: latency-under-load curves + "
        "SLA-aware fleet sizing",
        "model", "backend", "process", "utilisation", "rate", "slo_ms",
        "percentile", "duration_s", "qps", "headroom", "max_rows", "seed",
        "json",
        backend=_REPEATABLE, process=_REPEATABLE, utilisation=_REPEATABLE,
        rate=_REPEATABLE,
    )
    verb(
        "cluster", _cmd_cluster,
        "deploy a routed heterogeneous cluster and serve traffic "
        "through it",
        "model", "tier", "router", "process", "utilisation", "rate",
        "slo_ms", "duration_s", "qps", "headroom", "max_rows", "seed",
        "json",
        epilog=registry_epilog,
        tier={"help": "one replica tier; default: fpga gpu cpu, one "
              "replica each"},
        utilisation=0.8,
    )
    verb(
        "plan-shards", _cmd_plan_shards,
        "shard one model across a cluster and serve it fan-out/gather",
        "model", "tier",
        _arg(
            "--strategy", default="auto",
            help=f"sharding strategy ({' | '.join(available_strategies())})"
            "; default auto: enumerate all and keep the best-scoring plan",
        ),
        _arg(
            "--node-gb", type=_finite_float, default=None, metavar="GB",
            help="override every node's DRAM budget (default: the backend "
            "family's real capacity, e.g. ~40 GB per fpga board)",
        ),
        "utilisation", "rate", "slo_ms", "duration_s", "max_rows", "seed",
        "json",
        epilog=registry_epilog,
        tier={"metavar": "BACKEND[:COUNT]", "help": "one node tier "
              "hosting shards of MODEL; default: fpga:4"},
        utilisation=0.6,
    )
    verb(
        "autoscale", _cmd_autoscale,
        "drive an elastic fleet through a rate trace under every "
        "scaler policy",
        "model", "backend",
        _arg(
            "--policy", action="append", default=None, metavar="NAME",
            help=f"scaler policy ({' | '.join(available_scalers())}); "
            "repeatable; default: every registered policy",
        ),
        _arg(
            "--trace", default="diurnal", metavar="NAME",
            help=f"offered-load shape ({' | '.join(TRACE_SHAPES)}); "
            "default diurnal",
        ),
        "rate",
        _arg(
            "--nodes-mean", type=_finite_float, default=8.0, metavar="N",
            help="base rate expressed in nodes' worth of capacity when "
            "--rate is omitted (default 8)",
        ),
        _arg(
            "--windows", type=int, default=24,
            help="number of control windows over the horizon (default 24)",
        ),
        _arg(
            "--interval-s", type=_finite_float, default=0.05,
            help="control interval / simulated window length "
            "(default 0.05 s)",
        ),
        _arg(
            "--provision-delay-s", type=_finite_float, default=None,
            help="lag before a scale-up serves traffic (default: one "
            "control interval)",
        ),
        _arg(
            "--cooldown-s", type=_finite_float, default=0.0,
            help="minimum time between scaling actions (default 0)",
        ),
        _arg("--min-nodes", type=int, default=1),
        _arg("--max-nodes", type=int, default=1_000_000),
        "slo_ms", "percentile", "max_rows", "seed", "json",
        epilog=registry_epilog,
        backend="gpu",
        rate={"help": "base aggregate rate of the trace in queries/s "
              "(default: --nodes-mean x one node's sustained throughput)"},
    )
    verb(
        "tiers", _cmd_tiers,
        "tiered embedding storage: warm-vs-cold serving curves",
        "model", "backend",
        _arg(
            "--policy", default="lru",
            help="cache policy of the caching tiers "
            f"({' | '.join(available_cache_policies())})",
        ),
        _arg(
            "--alpha", type=_finite_float, default=DEFAULT_ALPHA,
            help="Zipf skew of per-query row popularity "
            f"(default {DEFAULT_ALPHA}; <= 0 means uniform)",
        ),
        _arg(
            "--drift", type=_finite_float, default=0.0, metavar="ROWS_PER_S",
            help="popularity drift: hot-set rotation speed (default 0)",
        ),
        _arg(
            "--hot-fraction", type=_finite_float, default=0.125,
            metavar="FRAC",
            help="fraction of the working set the hot tier holds "
            "(default 0.125)",
        ),
        "process", "utilisation", "slo_ms", "percentile", "duration_s",
        _arg(
            "--warm-accesses", type=int, default=8192,
            help="warm-up lookups defining steady state (default 8192)",
        ),
        _arg(
            "--sim-queries", type=int, default=2048,
            help="queries simulated per cache evaluation (default 2048)",
        ),
        "max_rows", "seed", "json",
        epilog=registry_epilog,
        backend="fpga", process={"metavar": None}, utilisation=_REPEATABLE,
    )
    verb(
        "stats", _cmd_stats,
        "serve one seeded window and dump the telemetry plane "
        "(counters, digest tails, optional trace spans)",
        "model", "backend", "tier", "router",
        _arg(
            "--exporter", default="table",
            help=f"output format ({' | '.join(available_exporters())})",
        ),
        _arg(
            "--spans", action="store_true",
            help="record sampled per-request trace spans",
        ),
        _arg(
            "--span-rate", type=_finite_float, default=0.001, metavar="FRAC",
            help="span sampling rate when --spans is on (default 0.001)",
        ),
        "process", "utilisation", "rate", "slo_ms", "duration_s",
        "max_rows", "seed", "json",
        epilog=registry_epilog,
        backend="fpga", utilisation=0.8,
    )
    verb(
        "bench", _cmd_bench,
        "sweep backends x models x batches into BENCH_<name>.json",
        _arg(
            "--model", action="append", default=None, metavar="NAME",
            help="model to sweep (repeatable; default: small)",
        ),
        "backend",
        _arg(
            "--batch", action="append", type=int, default=None, metavar="N",
            help="batch size for the latency curve (repeatable)",
        ),
        _arg(
            "--quick", action="store_true",
            help="CI-sized sweep: small batches, 256-row tables",
        ),
        *(
            _arg(flag, dest=dest, **kwargs)
            for block in BLOCKS
            for flag, dest, kwargs in block.flags()
        ),
        "max_rows", "seed", "qps",
        _arg(
            "--name", default=None,
            help="artifact name: writes BENCH_<name>.json "
            "(default: quick | full)",
        ),
        _arg(
            "--output", default=None, metavar="PATH",
            help="artifact path (overrides the BENCH_<name>.json "
            "convention)",
        ),
        _arg(
            "--compare", default=None, metavar="OLD.json",
            help="attach regression deltas against a previous artifact",
        ),
        _arg(
            "--fail-on-regression", nargs="?", type=_finite_float,
            const=5.0, default=None, metavar="PCT",
            help="with --compare: exit 1 if any headline metric regresses "
            "by more than PCT percent (default 5), or if any result "
            "exceeds a wall-clock budget stamped into the baseline",
        ),
        _arg(
            "--wall-clock-budget-scale", type=_finite_float, default=1.0,
            metavar="FACTOR",
            help="with --compare: multiply every baseline "
            "wall_clock_budget_s by FACTOR before gating (loosen budgets "
            "fleet-wide on slow runners without editing the baseline; "
            "default 1.0)",
        ),
        _arg(
            "--stamp-wall-clock-budgets", nargs="?", type=_finite_float,
            const=3.0, default=None, metavar="MULT",
            help="stamp each result's wall_clock_budget_s at MULT x its "
            "measured wall clock (default 3) — regenerates a budgeted "
            "baseline artifact in one command",
        ),
        "json",
        backend={**_REPEATABLE, "metavar": "NAME"},
    )
    verb(
        "lint", _cmd_lint, "AST invariant checker over the repo's sources",
        _arg(
            "paths", nargs="+",
            help="files or directories to lint (e.g. src tests)",
        ),
        _arg(
            "--select", action="append", default=None, metavar="RULES",
            help="restrict to the given rule code(s); repeatable or "
            "comma-separated (default: every registered rule)",
        ),
        "json",
        description=(
            "Check determinism, registry-hygiene, and parity-pair "
            "invariants (exit 0 clean, 1 findings, 2 usage error)."
        ),
        epilog=rules_epilog()
        + "\n\nsuppress per line with: "
        "# repro-lint: noqa[RPR00x] -- justification",
    )
    verb("info", _cmd_info, "library overview", "json")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one verb.  The single error boundary: bad input — a
    ``ValueError`` or a registry's unknown-name error — exits 2 with its
    one-line message; any other exception (a bare ``KeyError`` too) is
    a bug and tracebacks."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, *(error for *_, error in _registries())) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
