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
    repro bench [options]                  # backend x model x batch sweep
    repro info                             # library / model overview

(Also runnable as ``python -m repro``.)  ``MODEL`` is a registered model
name; ``--backend`` selects a registered inference backend, ``--router``
(on ``cluster``) a registered routing policy, ``--policy`` (on
``autoscale``) a registered scaler policy (on ``tiers``, a registered
cache policy), and ``--strategy`` (on ``plan-shards``) a registered
sharding strategy — the ``--help`` epilog
lists the registries live, so third-party plugins show up automatically.
``--json`` on ``plan``/``infer``/``fleet``/``serve``/``cluster``/
``plan-shards``/``autoscale``/``tiers``/``bench``/``info`` emits
machine-readable output for
scripting: with ``--json``, stdout carries *only* the JSON document
(progress goes to stderr), so the output pipes straight into ``python -m
json.tool``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _check_model(name: str) -> int | None:
    from repro.models.spec import MODEL_FACTORIES

    if name not in MODEL_FACTORIES:
        return _fail(
            f"unknown model {name!r}; available: {sorted(MODEL_FACTORIES)}"
        )
    return None


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.harness import EXPERIMENTS
    from repro.experiments.report import render_table

    names = args.names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        return _fail(
            f"unknown experiment(s) {unknown}; available: {sorted(EXPERIMENTS)}"
        )
    for name in names:
        print(render_table(EXPERIMENTS[name]()))
        print()
    return 0


def _planner_config(args: argparse.Namespace):
    from repro.core.planner import PlannerConfig

    return PlannerConfig(
        enable_cartesian=not args.no_cartesian,
        max_candidate_rows=args.max_candidate_rows,
        max_product_bytes=args.max_product_bytes,
    )


def _build_session(args: argparse.Namespace, **knobs):
    """Deploy the requested model/backend, translating errors to exit 2."""
    from repro.runtime import UnknownBackendError, deploy_model

    try:
        return deploy_model(
            args.model,
            backend=args.backend,
            max_rows=getattr(args, "max_rows", None),
            **knobs,
        )
    except (UnknownBackendError, ValueError) as exc:
        _fail(str(exc))
        return None


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.memory.spec import u280_memory_system
    from repro.memory.timing import MemoryTimingModel

    if (rc := _check_model(args.model)) is not None:
        return rc
    memory = u280_memory_system(
        hbm_channels=args.hbm_channels, onchip_banks=args.onchip_banks
    )
    session = _build_session(
        args,
        memory=memory,
        timing=MemoryTimingModel(axi=memory.axi),
        planner_config=_planner_config(args),
    )
    if session is None:
        return 2
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

    if (rc := _check_model(args.model)) is not None:
        return rc
    if args.batch <= 0:
        return _fail(f"--batch must be positive, got {args.batch}")
    session = _build_session(args, precision=args.precision, seed=args.seed)
    if session is None:
        return 2
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

    if (rc := _check_model(args.model)) is not None:
        return rc
    backends = args.backend or ["fpga", "cpu"]
    estimates = []
    for name in backends:
        args_one = argparse.Namespace(**{**vars(args), "backend": name})
        session = _build_session(args_one, precision=args.precision)
        if session is None:
            return 2
        estimates.append(session.perf())
    try:
        fleets = plan_fleet_for(args.qps, estimates, headroom=args.headroom)
    except ValueError as exc:
        return _fail(str(exc))
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
    from repro.runtime import available_backends
    from repro.serving.arrivals import ARRIVAL_PROCESSES
    from repro.serving.lab import (
        DEFAULT_PROCESSES,
        DEFAULT_UTILISATIONS,
        session_lab,
    )

    if (rc := _check_model(args.model)) is not None:
        return rc
    processes = tuple(args.process or DEFAULT_PROCESSES)
    unknown = [p for p in processes if p not in ARRIVAL_PROCESSES]
    if unknown:
        return _fail(
            f"unknown arrival process(es) {unknown}; "
            f"available: {list(ARRIVAL_PROCESSES)}"
        )
    explicit_backends = args.backend is not None
    backends = args.backend or list(available_backends())
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
    for name in backends:
        args_one = argparse.Namespace(**{**vars(args), "backend": name})
        session = _build_session(args_one, seed=args.seed)
        if session is None:
            if explicit_backends:
                return 2
            # Sweeping every registered backend: some cannot deploy this
            # model as-is (fpga-compressed needs --max-rows to fit its
            # 256 MiB materialisation limit) — skip them with a note
            # rather than discarding the whole lab.
            print(f"serve {args.model}/{name}: skipped (cannot deploy; "
                  "see error above)", file=sys.stderr)
            continue
        print(f"serve {args.model}/{name} ...", file=sys.stderr)
        try:
            lab = session_lab(session, **sweep_knobs)
            fleet = session.fleet(args.qps, headroom=args.headroom)
            try:
                fleet_sla = session.fleet_sla(
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
                fleet_sla = None
                print(f"  fleet-sla: {exc}", file=sys.stderr)
        except ValueError as exc:
            return _fail(str(exc))
        lab["fleet"] = fleet.as_dict()
        lab["fleet_sla"] = fleet_sla
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


def _cmd_cluster(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.cluster import Cluster, UnknownRoutingPolicyError, deploy_cluster
    from repro.runtime import UnknownBackendError
    from repro.serving.arrivals import ARRIVAL_PROCESSES, arrivals_for
    from repro.serving.lab import lab_seed

    if (rc := _check_model(args.model)) is not None:
        return rc
    if args.process not in ARRIVAL_PROCESSES:
        return _fail(
            f"unknown arrival process {args.process!r}; "
            f"available: {list(ARRIVAL_PROCESSES)}"
        )
    tier_texts = args.tier or ["fpga", "gpu", "cpu"]
    try:
        specs = [_parse_tier(text, args.model) for text in tier_texts]
    except ValueError as exc:
        return _fail(str(exc))
    for spec in specs:
        if (rc := _check_model(spec.model)) is not None:
            return rc
    try:
        cluster = deploy_cluster(
            specs,
            router=args.router,
            slo_ms=args.slo_ms,
            max_rows=args.max_rows,
            seed=args.seed,
        )
    except (UnknownRoutingPolicyError, UnknownBackendError, ValueError) as exc:
        return _fail(str(exc))
    capacity = cluster.perf().throughput_items_per_s
    rate = args.rate if args.rate is not None else args.utilisation * capacity
    if rate <= 0:
        return _fail(f"offered rate must be positive, got {rate}")
    rng = np.random.default_rng(
        lab_seed(args.seed, cluster.backend, args.process, "cli")
    )
    try:
        arrivals = arrivals_for(args.process, rng, rate, args.duration_s)
        result = cluster.serve(arrivals)
        fleet = cluster.fleet(args.qps, headroom=args.headroom)
    except ValueError as exc:
        # Bad knobs (negative duration, headroom out of (0, 1], ...)
        # exit 2 with the library's one-line message, never a traceback.
        return _fail(str(exc))

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
    import numpy as np

    from repro.distplan import (
        ShardingPlanError,
        UnknownShardingStrategyError,
        deploy_sharded,
    )
    from repro.runtime import UnknownBackendError
    from repro.serving.arrivals import arrivals_for
    from repro.serving.lab import lab_seed

    if (rc := _check_model(args.model)) is not None:
        return rc
    tier_texts = args.tier or ["fpga:4"]
    try:
        specs = [_parse_tier(text, args.model) for text in tier_texts]
    except ValueError as exc:
        return _fail(str(exc))
    for text, spec in zip(tier_texts, specs):
        if spec.model != args.model:
            return _fail(
                f"plan-shards serves one model across the cluster; "
                f"--tier {text!r} names a different model "
                f"({spec.model!r} != {args.model!r})"
            )
    node_capacity = (
        int(args.node_gb * 1024**3) if args.node_gb is not None else None
    )
    if node_capacity is not None and node_capacity <= 0:
        return _fail(f"--node-gb must be positive, got {args.node_gb}")
    try:
        cluster = deploy_sharded(
            args.model,
            specs,
            args.strategy,
            slo_ms=args.slo_ms,
            max_rows=args.max_rows,
            seed=args.seed,
            node_capacity_bytes=node_capacity,
        )
    except (
        UnknownShardingStrategyError,
        ShardingPlanError,
        UnknownBackendError,
        ValueError,
    ) as exc:
        return _fail(str(exc))
    capacity = cluster.perf().throughput_items_per_s
    rate = args.rate if args.rate is not None else args.utilisation * capacity
    if rate <= 0:
        return _fail(f"offered rate must be positive, got {rate}")
    rng = np.random.default_rng(
        lab_seed(args.seed, cluster.backend, "plan-shards")
    )
    try:
        arrivals = arrivals_for("poisson", rng, rate, args.duration_s)
        result = cluster.serve(arrivals)
    except ValueError as exc:
        return _fail(str(exc))
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


def _autoscale_trace(
    name: str, rate_per_s: float, duration_s: float, seed: int
):
    """Build the named offered-load trace around a base rate.

    Shape construction (and default parameters) live in
    :func:`repro.serving.arrivals.trace_for`; only the deterministic
    seeding of the bursty shape's modulation path is decided here.
    """
    import numpy as np

    from repro.serving.arrivals import trace_for
    from repro.serving.lab import lab_seed

    rng = np.random.default_rng(lab_seed(seed, "autoscale-trace"))
    return trace_for(name, rng, rate_per_s, duration_s)


def _cmd_autoscale(args: argparse.Namespace) -> int:
    from repro.autoscale import (
        UnknownScalerError,
        available_scalers,
        compare_policies,
        get_scaler,
    )
    from repro.serving.arrivals import TRACE_SHAPES

    if (rc := _check_model(args.model)) is not None:
        return rc
    if args.trace not in TRACE_SHAPES:
        return _fail(
            f"unknown trace {args.trace!r}; "
            f"available: {list(TRACE_SHAPES)}"
        )
    policies = args.policy or list(available_scalers())
    try:
        for name in policies:
            get_scaler(name)  # fail on typos before any build work
    except UnknownScalerError as exc:
        return _fail(str(exc))
    session = _build_session(args, seed=args.seed)
    if session is None:
        return 2
    per_node = session.perf().throughput_items_per_s
    rate = args.rate if args.rate is not None else args.nodes_mean * per_node
    duration_s = args.windows * args.interval_s
    if rate <= 0 or duration_s <= 0:
        return _fail(
            f"offered rate and horizon must be positive, got rate={rate}, "
            f"duration={duration_s}"
        )
    trace = _autoscale_trace(args.trace, rate, duration_s, args.seed)
    try:
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
    except ValueError as exc:
        return _fail(str(exc))
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
    from repro.memory import UnknownCachePolicyError, scaled_tier_hierarchy
    from repro.serving.arrivals import ARRIVAL_PROCESSES
    from repro.serving.lab import DEFAULT_UTILISATIONS, tiering_lab
    from repro.serving.popularity import DEFAULT_ALPHA, PopularityModel

    if (rc := _check_model(args.model)) is not None:
        return rc
    if args.process not in ARRIVAL_PROCESSES:
        return _fail(
            f"unknown arrival process {args.process!r}; "
            f"available: {list(ARRIVAL_PROCESSES)}"
        )
    session = _build_session(args, seed=args.seed)
    if session is None:
        return 2
    rows = sum(t.rows for t in session.model.tables)
    try:
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
    except (UnknownCachePolicyError, ValueError) as exc:
        return _fail(str(exc))
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
    import numpy as np

    from repro.serving.arrivals import ARRIVAL_PROCESSES, arrivals_for
    from repro.serving.lab import lab_seed
    from repro.telemetry import SpanRecorder, UnknownExporterError, get_exporter

    if (rc := _check_model(args.model)) is not None:
        return rc
    if args.process not in ARRIVAL_PROCESSES:
        return _fail(
            f"unknown arrival process {args.process!r}; "
            f"available: {list(ARRIVAL_PROCESSES)}"
        )
    try:
        get_exporter(args.exporter)
    except UnknownExporterError as exc:
        return _fail(str(exc))
    if args.tier:
        from repro.cluster import UnknownRoutingPolicyError, deploy_cluster
        from repro.runtime import UnknownBackendError

        try:
            specs = [_parse_tier(text, args.model) for text in args.tier]
        except ValueError as exc:
            return _fail(str(exc))
        for spec in specs:
            if (rc := _check_model(spec.model)) is not None:
                return rc
        try:
            surface = deploy_cluster(
                specs,
                router=args.router,
                slo_ms=args.slo_ms,
                max_rows=args.max_rows,
                seed=args.seed,
            )
        except (
            UnknownRoutingPolicyError,
            UnknownBackendError,
            ValueError,
        ) as exc:
            return _fail(str(exc))
    else:
        surface = _build_session(args, seed=args.seed)
        if surface is None:
            return 2
    hub = surface.telemetry
    if args.spans:
        hub.spans = SpanRecorder(sample_rate=args.span_rate, seed=args.seed)
    capacity = surface.perf().throughput_items_per_s
    rate = args.rate if args.rate is not None else args.utilisation * capacity
    if rate <= 0:
        return _fail(f"offered rate must be positive, got {rate}")
    rng = np.random.default_rng(
        lab_seed(args.seed, surface.backend, args.process, "stats")
    )
    try:
        arrivals = arrivals_for(args.process, rng, rate, args.duration_s)
        surface.serve(arrivals)
    except ValueError as exc:
        return _fail(str(exc))
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
    try:
        for block in BLOCKS:
            overrides.update(block.overrides(args))
    except ValueError as exc:
        return _fail(str(exc))
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
    try:
        if args.quick:
            config = BenchConfig.quick_config(**overrides)
        else:
            config = BenchConfig(**overrides)
    except ValueError as exc:
        return _fail(str(exc))
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
    try:
        payload = run_bench(config, log=log)
    except ValueError as exc:
        return _fail(str(exc))
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

    return run_and_report(
        args.paths, select=args.select, as_json=args.json
    )


def _registries() -> tuple[tuple[str, Callable[[], tuple[str, ...]]], ...]:
    """Every name-keyed registry as ``(label, available_fn)``, in the
    order ``repro info`` and the ``--help`` epilogs list them."""
    from repro.analysis import available_rules
    from repro.autoscale import available_scalers
    from repro.cluster import available_policies
    from repro.distplan import available_strategies
    from repro.memory import available_cache_policies
    from repro.runtime import available_backends
    from repro.telemetry import available_exporters

    return (
        ("backends", available_backends),
        ("routing policies", available_policies),
        ("scaler policies", available_scalers),
        ("sharding strategies", available_strategies),
        ("cache policies", available_cache_policies),
        ("telemetry exporters", available_exporters),
        ("lint rules", available_rules),
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
                        for label, available in _registries()
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
    for label, available in _registries():
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
            for label, available in _registries()
        ]
    )


def _model_help() -> str:
    from repro.models.spec import MODEL_FACTORIES

    return " | ".join(MODEL_FACTORIES)


def _process_help(prefix: str) -> str:
    from repro.serving.arrivals import ARRIVAL_PROCESSES

    return f"{prefix} ({' | '.join(ARRIVAL_PROCESSES)})"


def _add_backend_flag(parser: argparse.ArgumentParser, **kwargs) -> None:
    from repro.runtime import available_backends

    parser.add_argument(
        "--backend",
        help=f"inference backend ({' | '.join(available_backends())})",
        **kwargs,
    )


def _add_planner_flags(parser: argparse.ArgumentParser) -> None:
    from repro.core.planner import PlannerConfig

    defaults = PlannerConfig()
    parser.add_argument("--no-cartesian", action="store_true")
    parser.add_argument(
        "--max-candidate-rows",
        type=int,
        default=defaults.max_candidate_rows,
        help="rule 1 cutoff: largest table eligible for Cartesian merging",
    )
    parser.add_argument(
        "--max-product-bytes",
        type=int,
        default=defaults.max_product_bytes,
        help="rule 2/3 cutoff: largest allowed merged-product footprint",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro._version import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        epilog=_registry_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.add_argument("names", nargs="*", help="experiment names (default: all)")
    p_exp.set_defaults(func=_cmd_experiments)

    p_plan = sub.add_parser("plan", help="run Algorithm 1 on a model")
    p_plan.add_argument("model", help=_model_help())
    _add_backend_flag(p_plan, default="fpga")
    _add_planner_flags(p_plan)
    p_plan.add_argument(
        "--max-rows", type=int, default=None,
        help="row-cap tables before planning (required for "
        "fpga-compressed, whose codes must fit 256 MiB)",
    )
    p_plan.add_argument("--hbm-channels", type=int, default=32)
    p_plan.add_argument("--onchip-banks", type=int, default=8)
    p_plan.add_argument("--show-merges", action="store_true")
    p_plan.add_argument("--json", action="store_true")
    p_plan.set_defaults(func=_cmd_plan)

    p_infer = sub.add_parser(
        "infer", help="deploy a backend and run real inference"
    )
    p_infer.add_argument("model", help=_model_help())
    _add_backend_flag(p_infer, default="fpga")
    p_infer.add_argument(
        "--precision", default=None,
        help="fp32 | fixed16 | fixed32 (backend default if omitted)",
    )
    p_infer.add_argument("--batch", type=int, default=128)
    p_infer.add_argument(
        "--max-rows", type=int, default=None,
        help="row-cap tables before deployment (laptop-friendly)",
    )
    p_infer.add_argument("--seed", type=int, default=0)
    p_infer.add_argument("--show", type=int, default=5,
                         help="predictions to print")
    p_infer.add_argument("--json", action="store_true")
    p_infer.set_defaults(func=_cmd_infer)

    p_fleet = sub.add_parser("fleet", help="size engine fleets for a load")
    p_fleet.add_argument("model", help=_model_help())
    p_fleet.add_argument("qps", type=float, help="target queries per second")
    _add_backend_flag(p_fleet, action="append", default=None)
    p_fleet.add_argument(
        "--max-rows", type=int, default=None,
        help="row-cap tables before deployment (required for "
        "fpga-compressed, whose codes must fit 256 MiB)",
    )
    p_fleet.add_argument(
        "--precision", default=None,
        help="number format for every sized backend (backend defaults if "
        "omitted: fixed16 on fpga, fp32 on cpu)",
    )
    p_fleet.add_argument("--headroom", type=float, default=0.7)
    p_fleet.add_argument("--json", action="store_true")
    p_fleet.set_defaults(func=_cmd_fleet)

    p_serve = sub.add_parser(
        "serve",
        help="trace-driven serving lab: latency-under-load curves + "
        "SLA-aware fleet sizing",
    )
    p_serve.add_argument("model", help=_model_help())
    _add_backend_flag(p_serve, action="append", default=None)
    p_serve.add_argument(
        "--process", action="append", default=None, metavar="NAME",
        help=_process_help("arrival process to sweep")
        + "; repeatable; default: poisson diurnal bursty",
    )
    p_serve.add_argument(
        "--utilisation", action="append", type=float, default=None,
        metavar="FRAC",
        help="offered load as a fraction of per-node throughput "
        "(repeatable; default: 0.2 0.4 0.6 0.8 0.95 1.1)",
    )
    p_serve.add_argument(
        "--rate", action="append", type=float, default=None, metavar="QPS",
        help="absolute offered rate in queries/s (repeatable; overrides "
        "--utilisation)",
    )
    p_serve.add_argument(
        "--slo-ms", type=float, default=30.0,
        help="latency SLO (default 30 ms — 'tens of milliseconds', sec. 1)",
    )
    p_serve.add_argument(
        "--percentile", type=float, default=99.0,
        help="percentile the SLO is judged at (default p99)",
    )
    p_serve.add_argument(
        "--duration-s", type=float, default=0.2,
        help="simulated window per measurement (default 0.2 s)",
    )
    p_serve.add_argument(
        "--qps", type=float, default=1_000_000.0,
        help="fleet-sizing target load (queries per second)",
    )
    p_serve.add_argument("--headroom", type=float, default=0.7)
    p_serve.add_argument(
        "--max-rows", type=int, default=None,
        help="row-cap tables before deployment (required for "
        "fpga-compressed, whose codes must fit 256 MiB)",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--json", action="store_true")
    p_serve.set_defaults(func=_cmd_serve)

    from repro.cluster import available_policies

    p_cluster = sub.add_parser(
        "cluster",
        help="deploy a routed heterogeneous cluster and serve traffic "
        "through it",
        epilog=_registry_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_cluster.add_argument("model", help="default model for every tier")
    p_cluster.add_argument(
        "--tier", action="append", default=None, metavar="BACKEND[:COUNT[:MODEL]]",
        help="one replica tier (repeatable; default: fpga gpu cpu, one "
        "replica each)",
    )
    p_cluster.add_argument(
        "--router", default="sla-aware",
        help=f"routing policy ({' | '.join(available_policies())})",
    )
    p_cluster.add_argument(
        "--process", default="poisson", metavar="NAME",
        help=_process_help("arrival process of the served traffic")
        + "; default poisson",
    )
    p_cluster.add_argument(
        "--utilisation", type=float, default=0.8, metavar="FRAC",
        help="offered load as a fraction of total cluster capacity "
        "(default 0.8)",
    )
    p_cluster.add_argument(
        "--rate", type=float, default=None, metavar="QPS",
        help="absolute offered rate in queries/s (overrides --utilisation)",
    )
    p_cluster.add_argument(
        "--slo-ms", type=float, default=30.0,
        help="latency SLO the sla-aware router (and reporting) uses",
    )
    p_cluster.add_argument(
        "--duration-s", type=float, default=0.2,
        help="simulated serving window (default 0.2 s)",
    )
    p_cluster.add_argument(
        "--qps", type=float, default=1_000_000.0,
        help="fleet-sizing target load (whole clusters as the unit)",
    )
    p_cluster.add_argument("--headroom", type=float, default=0.7)
    p_cluster.add_argument(
        "--max-rows", type=int, default=None,
        help="row-cap tables before deployment (applies to every tier)",
    )
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument("--json", action="store_true")
    p_cluster.set_defaults(func=_cmd_cluster)

    from repro.distplan import available_strategies

    p_shards = sub.add_parser(
        "plan-shards",
        help="shard one model across a cluster and serve it fan-out/gather",
        epilog=_registry_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_shards.add_argument("model", help=_model_help())
    p_shards.add_argument(
        "--tier", action="append", default=None, metavar="BACKEND[:COUNT]",
        help="one node tier (repeatable; default: fpga:4); every node "
        "hosts shards of MODEL",
    )
    p_shards.add_argument(
        "--strategy", default="auto",
        help=f"sharding strategy ({' | '.join(available_strategies())}); "
        "default auto: enumerate all and keep the best-scoring plan",
    )
    p_shards.add_argument(
        "--node-gb", type=float, default=None, metavar="GB",
        help="override every node's DRAM budget (default: the backend "
        "family's real capacity, e.g. ~40 GB per fpga board)",
    )
    p_shards.add_argument(
        "--utilisation", type=float, default=0.6, metavar="FRAC",
        help="offered load as a fraction of fan-out capacity (default 0.6)",
    )
    p_shards.add_argument(
        "--rate", type=float, default=None, metavar="QPS",
        help="absolute offered rate in queries/s (overrides --utilisation)",
    )
    p_shards.add_argument(
        "--slo-ms", type=float, default=30.0,
        help="latency SLO (default 30 ms — 'tens of milliseconds', sec. 1)",
    )
    p_shards.add_argument(
        "--duration-s", type=float, default=0.2,
        help="simulated serving window (default 0.2 s)",
    )
    p_shards.add_argument(
        "--max-rows", type=int, default=None,
        help="row-cap tables before deployment (planning still uses the "
        "full model spec)",
    )
    p_shards.add_argument("--seed", type=int, default=0)
    p_shards.add_argument("--json", action="store_true")
    p_shards.set_defaults(func=_cmd_plan_shards)

    from repro.autoscale import available_scalers
    from repro.serving.arrivals import TRACE_SHAPES

    p_auto = sub.add_parser(
        "autoscale",
        help="drive an elastic fleet through a rate trace under every "
        "scaler policy",
        epilog=_registry_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_auto.add_argument("model", help=_model_help())
    _add_backend_flag(p_auto, default="gpu")
    p_auto.add_argument(
        "--policy", action="append", default=None, metavar="NAME",
        help=f"scaler policy ({' | '.join(available_scalers())}); "
        "repeatable; default: every registered policy",
    )
    p_auto.add_argument(
        "--trace", default="diurnal", metavar="NAME",
        help=f"offered-load shape ({' | '.join(TRACE_SHAPES)}); "
        "default diurnal",
    )
    p_auto.add_argument(
        "--rate", type=float, default=None, metavar="QPS",
        help="base aggregate rate of the trace in queries/s (default: "
        "--nodes-mean x one node's sustained throughput)",
    )
    p_auto.add_argument(
        "--nodes-mean", type=float, default=8.0, metavar="N",
        help="base rate expressed in nodes' worth of capacity when "
        "--rate is omitted (default 8)",
    )
    p_auto.add_argument(
        "--windows", type=int, default=24,
        help="number of control windows over the horizon (default 24)",
    )
    p_auto.add_argument(
        "--interval-s", type=float, default=0.05,
        help="control interval / simulated window length (default 0.05 s)",
    )
    p_auto.add_argument(
        "--provision-delay-s", type=float, default=None,
        help="lag before a scale-up serves traffic (default: one "
        "control interval)",
    )
    p_auto.add_argument(
        "--cooldown-s", type=float, default=0.0,
        help="minimum time between scaling actions (default 0)",
    )
    p_auto.add_argument("--min-nodes", type=int, default=1)
    p_auto.add_argument("--max-nodes", type=int, default=1_000_000)
    p_auto.add_argument(
        "--slo-ms", type=float, default=30.0,
        help="latency SLO (default 30 ms — 'tens of milliseconds', sec. 1)",
    )
    p_auto.add_argument(
        "--percentile", type=float, default=99.0,
        help="percentile the SLO is judged at (default p99)",
    )
    p_auto.add_argument(
        "--max-rows", type=int, default=None,
        help="row-cap tables before deployment (laptop-friendly)",
    )
    p_auto.add_argument("--seed", type=int, default=0)
    p_auto.add_argument("--json", action="store_true")
    p_auto.set_defaults(func=_cmd_autoscale)

    from repro.memory import available_cache_policies
    from repro.serving.popularity import DEFAULT_ALPHA

    p_tiers = sub.add_parser(
        "tiers",
        help="tiered embedding storage: warm-vs-cold serving curves",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_registry_epilog(),
    )
    p_tiers.add_argument("model", help=_model_help())
    _add_backend_flag(p_tiers, default="fpga")
    p_tiers.add_argument(
        "--policy", default="lru",
        help="cache policy of the caching tiers "
        f"({' | '.join(available_cache_policies())})",
    )
    p_tiers.add_argument(
        "--alpha", type=float, default=DEFAULT_ALPHA,
        help="Zipf skew of per-query row popularity "
        f"(default {DEFAULT_ALPHA}; <= 0 means uniform)",
    )
    p_tiers.add_argument(
        "--drift", type=float, default=0.0, metavar="ROWS_PER_S",
        help="popularity drift: hot-set rotation speed (default 0)",
    )
    p_tiers.add_argument(
        "--hot-fraction", type=float, default=0.125, metavar="FRAC",
        help="fraction of the working set the hot tier holds "
        "(default 0.125)",
    )
    p_tiers.add_argument(
        "--process", default="poisson",
        help=_process_help("arrival process (default poisson)"),
    )
    p_tiers.add_argument(
        "--utilisation", action="append", type=float, default=None,
        metavar="FRAC",
        help="offered load as a fraction of per-node throughput "
        "(repeatable; default: 0.2 0.4 0.6 0.8 0.95 1.1)",
    )
    p_tiers.add_argument(
        "--slo-ms", type=float, default=30.0,
        help="latency SLO (default 30 ms)",
    )
    p_tiers.add_argument(
        "--percentile", type=float, default=99.0,
        help="percentile the SLO is judged at (default p99)",
    )
    p_tiers.add_argument(
        "--duration-s", type=float, default=0.2,
        help="simulated window per measurement (default 0.2 s)",
    )
    p_tiers.add_argument(
        "--warm-accesses", type=int, default=8192,
        help="warm-up lookups defining steady state (default 8192)",
    )
    p_tiers.add_argument(
        "--sim-queries", type=int, default=2048,
        help="queries simulated per cache evaluation (default 2048)",
    )
    p_tiers.add_argument(
        "--max-rows", type=int, default=None,
        help="row-cap tables before deployment",
    )
    p_tiers.add_argument("--seed", type=int, default=0)
    p_tiers.add_argument("--json", action="store_true")
    p_tiers.set_defaults(func=_cmd_tiers)

    from repro.telemetry import available_exporters

    p_stats = sub.add_parser(
        "stats",
        help="serve one seeded window and dump the telemetry plane "
        "(counters, digest tails, optional trace spans)",
        epilog=_registry_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_stats.add_argument("model", help=_model_help())
    _add_backend_flag(p_stats, default="fpga")
    p_stats.add_argument(
        "--tier", action="append", default=None,
        metavar="BACKEND[:COUNT[:MODEL]]",
        help="serve through a routed cluster instead of a single session "
        "(repeatable, as in `repro cluster`)",
    )
    p_stats.add_argument(
        "--router", default="sla-aware",
        help="routing policy when --tier is given",
    )
    p_stats.add_argument(
        "--exporter", default="table",
        help=f"output format ({' | '.join(available_exporters())})",
    )
    p_stats.add_argument(
        "--spans", action="store_true",
        help="record sampled per-request trace spans",
    )
    p_stats.add_argument(
        "--span-rate", type=float, default=0.001, metavar="FRAC",
        help="span sampling rate when --spans is on (default 0.001)",
    )
    p_stats.add_argument(
        "--process", default="poisson", metavar="NAME",
        help=_process_help("arrival process of the served traffic")
        + "; default poisson",
    )
    p_stats.add_argument(
        "--utilisation", type=float, default=0.8, metavar="FRAC",
        help="offered load as a fraction of capacity (default 0.8)",
    )
    p_stats.add_argument(
        "--rate", type=float, default=None, metavar="QPS",
        help="absolute offered rate in queries/s (overrides --utilisation)",
    )
    p_stats.add_argument(
        "--slo-ms", type=float, default=30.0,
        help="latency SLO the sla-aware router uses when --tier is given",
    )
    p_stats.add_argument(
        "--duration-s", type=float, default=0.2,
        help="simulated serving window (default 0.2 s)",
    )
    p_stats.add_argument(
        "--max-rows", type=int, default=None,
        help="row-cap tables before deployment",
    )
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=_cmd_stats)

    p_bench = sub.add_parser(
        "bench",
        help="sweep backends x models x batches into BENCH_<name>.json",
    )
    p_bench.add_argument(
        "--model", action="append", default=None, metavar="NAME",
        help="model to sweep (repeatable; default: small)",
    )
    _add_backend_flag(
        p_bench, action="append", default=None,
        metavar="NAME",
    )
    p_bench.add_argument(
        "--batch", action="append", type=int, default=None, metavar="N",
        help="batch size for the latency curve (repeatable)",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="CI-sized sweep: small batches, 256-row tables",
    )
    from repro.bench import BLOCKS

    for block in BLOCKS:
        for flag, dest, kwargs in block.flags():
            p_bench.add_argument(flag, dest=dest, **kwargs)
    p_bench.add_argument(
        "--max-rows", type=int, default=None,
        help="row-cap tables before deployment (default: 4096, or 256 "
        "with --quick)",
    )
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--qps", type=float, default=1_000_000.0,
        help="fleet-sizing target load (queries per second)",
    )
    p_bench.add_argument(
        "--name", default=None,
        help="artifact name: writes BENCH_<name>.json "
        "(default: quick | full)",
    )
    p_bench.add_argument(
        "--output", default=None, metavar="PATH",
        help="artifact path (overrides the BENCH_<name>.json convention)",
    )
    p_bench.add_argument(
        "--compare", default=None, metavar="OLD.json",
        help="attach regression deltas against a previous artifact",
    )
    p_bench.add_argument(
        "--fail-on-regression", nargs="?", type=float, const=5.0,
        default=None, metavar="PCT",
        help="with --compare: exit 1 if any headline metric regresses by "
        "more than PCT percent (default 5), or if any result exceeds a "
        "wall-clock budget stamped into the baseline",
    )
    p_bench.add_argument(
        "--wall-clock-budget-scale", type=float, default=1.0,
        metavar="FACTOR",
        help="with --compare: multiply every baseline wall_clock_budget_s "
        "by FACTOR before gating (loosen budgets fleet-wide on slow "
        "runners without editing the baseline; default 1.0)",
    )
    p_bench.add_argument(
        "--stamp-wall-clock-budgets", nargs="?", type=float, const=3.0,
        default=None, metavar="MULT",
        help="stamp each result's wall_clock_budget_s at MULT x its "
        "measured wall clock (default 3) — regenerates a budgeted "
        "baseline artifact in one command",
    )
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=_cmd_bench)

    from repro.analysis import rules_epilog

    p_lint = sub.add_parser(
        "lint",
        help="AST invariant checker over the repo's sources",
        description=(
            "Check determinism, registry-hygiene, and parity-pair "
            "invariants (exit 0 clean, 1 findings, 2 usage error)."
        ),
        epilog=rules_epilog()
        + "\n\nsuppress per line with: "
        "# repro-lint: noqa[RPR00x] -- justification",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_lint.add_argument(
        "paths", nargs="+",
        help="files or directories to lint (e.g. src tests)",
    )
    p_lint.add_argument(
        "--select", action="append", default=None, metavar="RULES",
        help="restrict to the given rule code(s); repeatable or "
        "comma-separated (default: every registered rule)",
    )
    p_lint.add_argument("--json", action="store_true")
    p_lint.set_defaults(func=_cmd_lint)

    p_info = sub.add_parser("info", help="library overview")
    p_info.add_argument("--json", action="store_true")
    p_info.set_defaults(func=_cmd_info)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
