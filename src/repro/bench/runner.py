"""The benchmark sweep: registered backends x model specs x batch sizes.

This is the machine-readable successor to the ad-hoc ``benchmarks/bench_*``
scripts: one :func:`run_bench` call deploys every requested (model,
backend) pair through :func:`repro.deploy_model`, collects the normalised
:class:`~repro.runtime.perf.PerfEstimate`, the batch-latency curve, the
fleet plan for a target load, the latency-under-load serving block
(schema v2: one curve per arrival process from the serving lab plus the
SLA-aware fleet plan), the planner statistics (planning backends only),
and wall-clock timings, and returns one schema-versioned payload (see
:mod:`repro.bench.schema`).
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import asdict, dataclass
from typing import Callable

from repro.deploy.capacity import plan_fleet_sla
from repro.models.spec import MODEL_FACTORIES
from repro.runtime import available_backends, deploy_model
from repro.serving.arrivals import ARRIVAL_PROCESSES
from repro.serving.lab import session_lab

from repro.bench.blocks import BLOCKS, KNOBS
from repro.bench.schema import SCHEMA_VERSION, SUITE, validate_payload

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: The default fleet-sizing load: the paper's appendix prices engines at
#: web scale, and one million queries per second keeps node counts in a
#: range where the cost ordering is visible.
DEFAULT_TARGET_QPS = 1_000_000.0


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark sweep: what to deploy and where to operate it."""

    models: tuple[str, ...] = ("small",)
    #: Backend names to sweep; empty means every registered backend.
    backends: tuple[str, ...] = ()
    batches: tuple[int, ...] = (1, 64, 512, 2048)
    #: Per-table row cap applied before deployment (keeps the functional
    #: engines laptop-sized; ``None`` deploys the full tables).
    max_rows: int | None = 4096
    seed: int = 0
    quick: bool = False
    target_qps: float = DEFAULT_TARGET_QPS
    #: Latency SLO the serving block is judged against ("tens of
    #: milliseconds", section 1).
    slo_ms: float = 30.0
    #: Simulated window per latency-under-load measurement.
    serve_duration_s: float = 0.1
    #: Arrival processes swept per (model, backend) pair.
    serve_processes: tuple[str, ...] = ("poisson", "diurnal", "bursty")
    #: Offered-load grid as fractions of per-node sustained throughput.
    serve_utilisations: tuple[float, ...] = (0.25, 0.5, 0.8, 1.05)
    #: Knobs of the top-level blocks; :mod:`repro.bench.blocks` declares
    #: what each means, its constraint and its flag.  A block's switch
    #: knob (its backends, policy or strategy, or ``telemetry``) disables
    #: it when empty or false, and the block is then ``null``.
    cluster_backends: tuple[str, ...] = ("fpga", "gpu", "cpu")
    cluster_router: str = "sla-aware"
    cluster_utilisation: float = 0.8
    autoscale_policy: str = "reactive-utilisation"
    autoscale_windows: int = 12
    sharding_strategy: str = "auto"
    sharding_nodes: int = 4
    sharding_node_gb: float = 0.5
    tiering_policy: str = "lru"
    tiering_alpha: float = 1.05
    tiering_hot_fraction: float = 0.125
    telemetry: bool = True
    #: When set, stamp every result's ``wall_clock_budget_s`` (schema v6)
    #: at ``multiplier x`` its measured wall clock — the one-command way
    #: to regenerate a budgeted baseline artifact (pick ~3x so routine
    #: noise passes and order-of-magnitude slowdowns fail).  ``None``
    #: leaves results unbudgeted.
    wall_clock_budget_multiplier: float | None = None
    #: Artifact name: the sweep writes ``BENCH_<name>.json``.
    name: str = "full"

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("models must not be empty")
        if len(set(self.models)) != len(self.models):
            raise ValueError(f"duplicate models in {self.models}")
        if len(set(self.backends)) != len(self.backends):
            raise ValueError(f"duplicate backends in {self.backends}")
        if not self.batches:
            raise ValueError("batches must not be empty")
        if any(b <= 0 for b in self.batches):
            raise ValueError(f"batches must be positive, got {self.batches}")
        if len(set(self.batches)) != len(self.batches):
            raise ValueError(f"duplicate batches in {self.batches}")
        if self.max_rows is not None and self.max_rows <= 0:
            raise ValueError(f"max_rows must be positive, got {self.max_rows}")
        if self.target_qps <= 0:
            raise ValueError(
                f"target_qps must be positive, got {self.target_qps}"
            )
        if self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {self.slo_ms}")
        if self.serve_duration_s <= 0:
            raise ValueError(
                f"serve_duration_s must be positive, got "
                f"{self.serve_duration_s}"
            )
        if not self.serve_processes:
            raise ValueError("serve_processes must not be empty")
        if len(set(self.serve_processes)) != len(self.serve_processes):
            raise ValueError(
                f"duplicate serve_processes in {self.serve_processes}"
            )
        unknown = [
            p for p in self.serve_processes if p not in ARRIVAL_PROCESSES
        ]
        if unknown:
            raise ValueError(
                f"unknown serve_processes {unknown}; "
                f"available: {tuple(ARRIVAL_PROCESSES)}"
            )
        if not self.serve_utilisations:
            raise ValueError("serve_utilisations must not be empty")
        if any(u <= 0 for u in self.serve_utilisations):
            raise ValueError(
                f"serve_utilisations must be positive, got "
                f"{self.serve_utilisations}"
            )
        for knob in KNOBS:
            problem = knob.problem(getattr(self, knob.name))
            if problem is not None:
                raise ValueError(problem)
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"name must match {_NAME_RE.pattern}, got {self.name!r}"
            )

    @classmethod
    def quick_config(cls, **overrides: object) -> "BenchConfig":
        """The CI-sized sweep: small batches, heavily row-capped tables.

        Completes in well under two minutes across all five built-in
        backends; any field can still be overridden.
        """
        base: dict[str, object] = {
            "models": ("small",),
            "batches": (1, 64, 512),
            "max_rows": 256,
            "quick": True,
            "serve_duration_s": 0.05,
            "name": "quick",
        }
        base.update(overrides)
        return cls(**base)  # type: ignore[arg-type]

    def resolved_backends(self) -> tuple[str, ...]:
        return tuple(self.backends) or available_backends()


def _check_names(config: BenchConfig) -> None:
    unknown_models = [m for m in config.models if m not in MODEL_FACTORIES]
    if unknown_models:
        raise ValueError(
            f"unknown model(s) {unknown_models}; "
            f"available: {sorted(MODEL_FACTORIES)}"
        )
    registered = set(available_backends())
    unknown_backends = [
        b for b in config.resolved_backends() if b not in registered
    ]
    if unknown_backends:
        raise ValueError(
            f"unknown backend(s) {unknown_backends}; "
            f"registered: {sorted(registered)}"
        )
    for block in BLOCKS:
        if block.enabled(config):
            block.check_names(config)


def _bench_one(
    model_name: str, backend: str, config: BenchConfig
) -> dict[str, object]:
    """Deploy one (model, backend) pair and measure everything we quote."""
    started = time.perf_counter()
    session = deploy_model(
        model_name,
        backend=backend,
        max_rows=config.max_rows,
        seed=config.seed,
    )
    perf = session.perf()
    latencies = {
        str(batch): session.batch_latency_ms(batch)
        for batch in config.batches
    }
    fleet = session.fleet(config.target_qps)
    serving = session_lab(
        session,
        processes=config.serve_processes,
        utilisations=config.serve_utilisations,
        duration_s=config.serve_duration_s,
        slo_ms=config.slo_ms,
        seed=config.seed,
    )
    try:
        serving["fleet_sla"] = plan_fleet_sla(
            config.target_qps,
            session,
            slo_ms=config.slo_ms,
            duration_s=config.serve_duration_s,
            seed=config.seed,
        ).as_dict()
    except ValueError:
        # The SLO sits below this engine's latency floor: no fleet size
        # can meet it.  Record the absence; the schema allows null here.
        serving["fleet_sla"] = None
    plan = getattr(session, "plan", None)
    return {
        "model": model_name,
        "backend": backend,
        "precision": session.precision,
        "perf": perf.as_dict(),
        "batch_latency_ms": latencies,
        "fleet": fleet.as_dict(),
        "serving": serving,
        "planner": plan.summary() if plan is not None else None,
        "wall_clock_s": time.perf_counter() - started,
    }


def run_bench(
    config: BenchConfig,
    log: Callable[[str], None] | None = None,
) -> dict[str, object]:
    """Run one sweep and return the schema-versioned payload.

    ``log`` receives one progress line per (model, backend) pair; pass a
    stderr writer so stdout can stay machine-readable.  The payload is
    validated against :mod:`repro.bench.schema` before it is returned, so
    a malformed artifact can never leave this function.
    """
    _check_names(config)
    emit = log or (lambda _message: None)
    started = time.perf_counter()
    results = []
    backends = config.resolved_backends()
    multiplier = config.wall_clock_budget_multiplier
    for model_name in config.models:
        for backend in backends:
            result = _bench_one(model_name, backend, config)
            if multiplier is not None:
                result["wall_clock_budget_s"] = (
                    multiplier * result["wall_clock_s"]
                )
            perf = result["perf"]
            emit(
                f"bench {model_name}/{backend}: "
                f"{perf['latency_us']:.1f} us/query, "
                f"{perf['throughput_items_per_s']:,.0f} items/s, "
                f"${perf['usd_per_million_queries']:.4f}/1M "
                f"({result['wall_clock_s']:.2f}s)"
            )
            results.append(result)
    blocks: dict[str, object] = {}
    for block in BLOCKS:
        value = block.run(config) if block.enabled(config) else None
        if value is not None:
            emit(f"bench {block.key} {block.summary(value)}")
        blocks[block.key] = value
    # The config record is every field but the name, tuples as lists,
    # with the backends resolved.
    record = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(config).items()
        if key != "name"
    }
    record["backends"] = list(backends)
    payload: dict[str, object] = {
        "suite": SUITE,
        "schema_version": SCHEMA_VERSION,
        "name": config.name,
        "config": record,
        "results": results,
        **blocks,
        "wall_clock_s": time.perf_counter() - started,
    }
    return validate_payload(payload)


def default_output_path(name: str) -> str:
    """The conventional artifact filename for a sweep name."""
    return f"BENCH_{name}.json"


def write_payload(payload: dict[str, object], path: str) -> None:
    """Write a validated payload to ``path`` (2-space indent + newline)."""
    validate_payload(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def config_summary(config: BenchConfig) -> str:
    """One human line describing a sweep (CLI progress header)."""
    fields = asdict(config)
    fields["backends"] = list(config.resolved_backends())
    return (
        f"sweep {fields['name']}: models={list(config.models)} "
        f"backends={fields['backends']} batches={list(config.batches)} "
        f"max_rows={config.max_rows} target_qps={config.target_qps:,.0f}"
    )
