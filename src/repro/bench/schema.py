"""Schema of the ``BENCH_<name>.json`` benchmark artifact.

One schema version covers one shape of payload; consumers (the CI
``bench-smoke`` job, ``repro bench --compare``, plotting scripts) refuse
anything else.  The validator is hand-rolled — it needs to run from a bare
``numpy``-only install, so no ``jsonschema`` dependency — and reports the
JSON path of the first offending field.  Each top-level block's part of
the schema, and its config knobs, live with the block in
:mod:`repro.bench.blocks`.

Run as a module to validate a file (the CI job does exactly this)::

    python -m repro.bench BENCH_quick.json
"""

from __future__ import annotations

import json
import math
import sys
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.bench.blocks import Knob

#: Version of the payload shape documented here.  Bump on any change that
#: could break a consumer: removed/renamed keys, changed types or units.
#: v2 added the per-result ``serving`` block (latency-under-load curves
#: per arrival process + the SLA-aware fleet plan) and the serving knobs
#: in ``config``.  v3 added the top-level ``cluster`` block (a routed
#: heterogeneous cluster served at a fixed utilisation: blended and
#: per-tier latency plus fleet cost; null when the sweep disabled it)
#: and the cluster knobs in ``config``.  v4 added the top-level
#: ``autoscale`` block (an elastic fleet driven through a diurnal trace
#: by a scaler policy: per-window timeline, blended cost, and the
#: peak-sized static baseline; null when the sweep disabled it) and the
#: autoscale knobs in ``config``.  v5 added the top-level ``sharding``
#: block (one model sharded across a cluster's nodes by the distplan
#: planner and served fan-out/gather: the capacity-validated plan with
#: per-node occupancy plus the fan-out serving result; null when the
#: sweep disabled it) and the sharding knobs in ``config``.  v6 added
#: the optional per-result ``wall_clock_budget_s`` ceiling (absent or
#: null means unbudgeted): an explicit opt-in wall-clock budget that
#: ``--compare --fail-on-regression`` enforces as an absolute limit on
#: the *other* payload's measured ``wall_clock_s``, so a committed
#: baseline can gate CI runtime without chasing noisy raw deltas.  v7
#: added the top-level ``tiering`` block (a tier-attached deployment —
#: HBM hot-row cache over DDR over host — under Zipf-skewed popularity:
#: the hierarchy, the warm steady-state hit rate, and warm-vs-cold
#: latency curves; null when the sweep disabled it), the tiering knobs
#: in ``config``, and the per-window ``cold_nodes`` count in the
#: autoscale timeline.  v8 added the top-level ``telemetry`` block (one
#: routed serve observed through the always-on metric hub: digest-
#: estimated latency tails, per-tier dispatch shares, the spill share
#: off the primary tier, and the cache cascade's tier hit rates; null
#: when the sweep disabled it) and the ``telemetry`` boolean knob in
#: ``config``.
SCHEMA_VERSION = 8

#: The ``suite`` discriminator: distinguishes our artifacts from any other
#: JSON a pipeline might hand the validator.
SUITE = "repro-bench"

#: Numeric fields every ``perf`` record must carry, all strictly positive
#: (mirrors :class:`repro.runtime.perf.PerfEstimate`).
PERF_POSITIVE_FIELDS = (
    "latency_us",
    "serving_latency_ms",
    "ii_ns",
    "throughput_items_per_s",
    "throughput_gops",
    "serving_batch",
    "usd_per_hour",
    "usd_per_million_queries",
)

#: Numeric fields every ``fleet`` record must carry, all strictly positive
#: (mirrors :class:`repro.deploy.capacity.FleetPlan.as_dict`).
FLEET_POSITIVE_FIELDS = (
    "target_qps",
    "nodes",
    "per_node_qps",
    "fleet_qps",
    "usd_per_hour",
    "usd_per_million_queries",
    "latency_ms",
    "utilisation",
)

#: Numeric fields every latency-under-load curve point must carry, all
#: strictly positive (mirrors :class:`repro.serving.lab.LoadPoint`).
POINT_POSITIVE_FIELDS = (
    "rate_per_s",
    "utilisation",
    "queries",
    "mean_ms",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "p999_ms",
    "tail_ms",
    "achieved_qps",
)


class BenchSchemaError(ValueError):
    """A payload does not conform to the benchmark artifact schema."""


def _fail(path: str, message: str) -> None:
    raise BenchSchemaError(f"{path}: {message}")


def _get(obj: dict, path: str, key: str) -> object:
    if key not in obj:
        _fail(f"{path}.{key}", "missing required key")
    return obj[key]


def _check_str(obj: dict, path: str, key: str) -> str:
    value = _get(obj, path, key)
    if not isinstance(value, str) or not value:
        _fail(f"{path}.{key}", f"expected a non-empty string, got {value!r}")
    return value


def _check_number(
    obj: dict, path: str, key: str, *, minimum: float | None = None,
    exclusive: bool = False,
) -> float:
    value = _get(obj, path, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {value!r}")
    # json.load happily parses bare NaN/Infinity, and NaN sails through
    # every comparison below — reject non-finite values outright so the
    # CI gate (and --compare's delta arithmetic) can trust the artifact.
    if not math.isfinite(value):
        _fail(f"{path}.{key}", f"expected a finite number, got {value!r}")
    if minimum is not None:
        if exclusive and value <= minimum:
            _fail(f"{path}.{key}", f"expected > {minimum}, got {value!r}")
        if not exclusive and value < minimum:
            _fail(f"{path}.{key}", f"expected >= {minimum}, got {value!r}")
    return float(value)


def _check_str_list(obj: dict, path: str, key: str) -> list[str]:
    value = _get(obj, path, key)
    if not isinstance(value, list) or not value:
        _fail(f"{path}.{key}", f"expected a non-empty list, got {value!r}")
    for i, item in enumerate(value):
        if not isinstance(item, str) or not item:
            _fail(f"{path}.{key}[{i}]", f"expected a string, got {item!r}")
    return value


def _check_config(
    config: object, path: str, knobs: tuple[Knob, ...]
) -> None:
    if not isinstance(config, dict):
        _fail(path, f"expected an object, got {config!r}")
    _check_str_list(config, path, "models")
    _check_str_list(config, path, "backends")
    batches = _get(config, path, "batches")
    if not isinstance(batches, list) or not batches:
        _fail(f"{path}.batches", f"expected a non-empty list, got {batches!r}")
    for i, batch in enumerate(batches):
        if isinstance(batch, bool) or not isinstance(batch, int) or batch <= 0:
            _fail(
                f"{path}.batches[{i}]",
                f"expected a positive integer, got {batch!r}",
            )
    max_rows = _get(config, path, "max_rows")
    if max_rows is not None and (
        isinstance(max_rows, bool)
        or not isinstance(max_rows, int)
        or max_rows <= 0
    ):
        _fail(
            f"{path}.max_rows",
            f"expected null or a positive integer, got {max_rows!r}",
        )
    seed = _get(config, path, "seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        _fail(f"{path}.seed", f"expected an integer, got {seed!r}")
    quick = _get(config, path, "quick")
    if not isinstance(quick, bool):
        _fail(f"{path}.quick", f"expected a boolean, got {quick!r}")
    _check_number(config, path, "target_qps", minimum=0, exclusive=True)
    _check_number(config, path, "slo_ms", minimum=0, exclusive=True)
    _check_number(config, path, "serve_duration_s", minimum=0, exclusive=True)
    _check_str_list(config, path, "serve_processes")
    utilisations = _get(config, path, "serve_utilisations")
    if not isinstance(utilisations, list) or not utilisations:
        _fail(
            f"{path}.serve_utilisations",
            f"expected a non-empty list, got {utilisations!r}",
        )
    for i, u in enumerate(utilisations):
        if isinstance(u, bool) or not isinstance(u, (int, float)) or u <= 0:
            _fail(
                f"{path}.serve_utilisations[{i}]",
                f"expected a positive number, got {u!r}",
            )
    for knob in knobs:
        _check_knob(config, path, knob)


#: What a knob's declared ``kind`` means in the artifact: a type test and
#: its description for the rejection message.
_KNOB_KINDS = {
    bool: (lambda value: isinstance(value, bool), "a boolean"),
    int: (
        lambda value: isinstance(value, int) and not isinstance(value, bool),
        "an integer",
    ),
    float: (
        lambda value: isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value),
        "a finite number",
    ),
    str: (lambda value: isinstance(value, str), "a string"),
    list: (
        lambda value: isinstance(value, list)
        and all(isinstance(item, str) and item for item in value),
        "a list of non-empty strings",
    ),
}


def _check_knob(config: dict, path: str, knob: Knob) -> None:
    """One knob of ``config``: its declared type, then its rule."""
    value = _get(config, path, knob.name)
    if value is None and knob.optional:
        return
    fits, expected = _KNOB_KINDS[knob.kind]
    if not fits(value):
        _fail(f"{path}.{knob.name}", f"expected {expected}, got {value!r}")
    problem = knob.problem(value)
    if problem is not None:
        _fail(f"{path}.{knob.name}", problem)


def _check_perf(perf: object, path: str) -> None:
    if not isinstance(perf, dict):
        _fail(path, f"expected an object, got {perf!r}")
    _check_str(perf, path, "backend")
    _check_str(perf, path, "precision")
    _check_str(perf, path, "bottleneck")
    for key in PERF_POSITIVE_FIELDS:
        _check_number(perf, path, key, minimum=0, exclusive=True)


def _check_fleet(fleet: object, path: str) -> None:
    if not isinstance(fleet, dict):
        _fail(path, f"expected an object, got {fleet!r}")
    _check_str(fleet, path, "engine")
    for key in FLEET_POSITIVE_FIELDS:
        _check_number(fleet, path, key, minimum=0, exclusive=True)


def _check_bool(obj: dict, path: str, key: str) -> bool:
    value = _get(obj, path, key)
    if not isinstance(value, bool):
        _fail(f"{path}.{key}", f"expected a boolean, got {value!r}")
    return value


def _check_fraction(obj: dict, path: str, key: str) -> float:
    value = _check_number(obj, path, key, minimum=0)
    if value > 1:
        _fail(f"{path}.{key}", f"expected a fraction in [0, 1], got {value!r}")
    return value


def _check_point(point: object, path: str) -> None:
    if not isinstance(point, dict):
        _fail(path, f"expected an object, got {point!r}")
    for key in POINT_POSITIVE_FIELDS:
        _check_number(point, path, key, minimum=0, exclusive=True)
    _check_fraction(point, path, "sla_attainment")
    _check_bool(point, path, "meets_slo")


def _check_curve(curve: object, path: str) -> None:
    if not isinstance(curve, dict):
        _fail(path, f"expected an object, got {curve!r}")
    _check_str(curve, path, "backend")
    _check_str(curve, path, "process")
    _check_number(curve, path, "slo_ms", minimum=0, exclusive=True)
    _check_number(curve, path, "slo_percentile", minimum=0, exclusive=True)
    _check_number(curve, path, "duration_s", minimum=0, exclusive=True)
    _check_number(curve, path, "sla_capacity_per_s", minimum=0)
    knee = _get(curve, path, "knee_rate_per_s")
    if knee is not None:
        _check_number(curve, path, "knee_rate_per_s", minimum=0, exclusive=True)
    points = _get(curve, path, "points")
    if not isinstance(points, list) or not points:
        _fail(f"{path}.points", f"expected a non-empty list, got {points!r}")
    for i, point in enumerate(points):
        _check_point(point, f"{path}.points[{i}]")


def _check_fleet_sla(fleet: object, path: str) -> None:
    _check_fleet(fleet, path)
    _check_number(fleet, path, "slo_ms", minimum=0, exclusive=True)
    _check_number(fleet, path, "slo_percentile", minimum=0, exclusive=True)
    _check_str(fleet, path, "process")
    nodes = _get(fleet, path, "throughput_only_nodes")
    if isinstance(nodes, bool) or not isinstance(nodes, int) or nodes <= 0:
        _fail(
            f"{path}.throughput_only_nodes",
            f"expected a positive integer, got {nodes!r}",
        )
    _check_number(fleet, path, "observed_tail_ms", minimum=0)
    _check_fraction(fleet, path, "sla_attainment")
    _check_bool(fleet, path, "slo_bound")


def _check_serving(serving: object, path: str) -> None:
    """The v2 latency-under-load block: curves per process + SLA fleet."""
    if not isinstance(serving, dict):
        _fail(path, f"expected an object, got {serving!r}")
    _check_number(serving, path, "slo_ms", minimum=0, exclusive=True)
    _check_number(serving, path, "slo_percentile", minimum=0, exclusive=True)
    _check_number(serving, path, "duration_s", minimum=0, exclusive=True)
    processes = _get(serving, path, "processes")
    if not isinstance(processes, dict) or not processes:
        _fail(
            f"{path}.processes",
            f"expected a non-empty object, got {processes!r}",
        )
    for name, curve in processes.items():
        if not isinstance(name, str) or not name:
            _fail(f"{path}.processes", f"process keys must be strings, got {name!r}")
        _check_curve(curve, f"{path}.processes.{name}")
    fleet_sla = _get(serving, path, "fleet_sla")
    if fleet_sla is not None:
        # null means the SLO sits below the engine's latency floor — no
        # fleet size can meet it, which is a legitimate lab result.
        _check_fleet_sla(fleet_sla, f"{path}.fleet_sla")


def _check_int(
    obj: dict, path: str, key: str, *, minimum: int = 0
) -> int:
    value = _get(obj, path, key)
    if isinstance(value, bool) or not isinstance(value, int) or (
        value < minimum
    ):
        _fail(
            f"{path}.{key}",
            f"expected an integer >= {minimum}, got {value!r}",
        )
    return value


def _check_result(result: object, path: str) -> None:
    if not isinstance(result, dict):
        _fail(path, f"expected an object, got {result!r}")
    _check_str(result, path, "model")
    _check_str(result, path, "backend")
    _check_str(result, path, "precision")
    _check_perf(_get(result, path, "perf"), f"{path}.perf")
    latencies = _get(result, path, "batch_latency_ms")
    if not isinstance(latencies, dict) or not latencies:
        _fail(
            f"{path}.batch_latency_ms",
            f"expected a non-empty object, got {latencies!r}",
        )
    for key in latencies:
        if not isinstance(key, str) or not key.isdigit() or int(key) <= 0:
            _fail(
                f"{path}.batch_latency_ms",
                f"batch keys must be positive-integer strings, got {key!r}",
            )
        _check_number(
            latencies, f"{path}.batch_latency_ms", key,
            minimum=0, exclusive=True,
        )
    _check_fleet(_get(result, path, "fleet"), f"{path}.fleet")
    _check_serving(_get(result, path, "serving"), f"{path}.serving")
    planner = _get(result, path, "planner")
    if planner is not None and not isinstance(planner, dict):
        _fail(f"{path}.planner", f"expected null or an object, got {planner!r}")
    _check_number(result, path, "wall_clock_s", minimum=0)
    # v6: budgets are opt-in — the key may be absent or null; when set it
    # is a strictly positive ceiling the perf gate compares wall clocks
    # against.
    if result.get("wall_clock_budget_s") is not None:
        _check_number(
            result, path, "wall_clock_budget_s", minimum=0, exclusive=True
        )


def validate_payload(payload: object) -> dict:
    """Validate one benchmark payload against the current schema version.

    Returns the payload (typed as a dict) so calls can be chained; raises
    :class:`BenchSchemaError` naming the offending JSON path otherwise.
    Unknown extra keys are allowed everywhere — the schema pins what
    consumers rely on, not what producers may add.
    """
    if not isinstance(payload, dict):
        raise BenchSchemaError(
            f"$: expected a JSON object, got {type(payload).__name__}"
        )
    suite = _check_str(payload, "$", "suite")
    if suite != SUITE:
        _fail("$.suite", f"expected {SUITE!r}, got {suite!r}")
    version = _get(payload, "$", "schema_version")
    # isinstance guard: bool compares equal to int (True == 1), and every
    # other numeric field rejects bool the same way.
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        _fail(
            "$.schema_version",
            f"expected {SCHEMA_VERSION}, got {version!r} "
            "(regenerate the artifact or upgrade the consumer)",
        )
    _check_str(payload, "$", "name")
    # The blocks module builds on the helpers above, so it loads late.
    from repro.bench.blocks import BLOCKS, KNOBS

    config = _get(payload, "$", "config")
    _check_config(config, "$.config", KNOBS)
    _check_number(payload, "$", "wall_clock_s", minimum=0)
    for block in BLOCKS:
        # A disabled block is null, an enabled one an object; the key
        # itself must always exist.
        value = _get(payload, "$", block.key)
        path = f"$.{block.key}"
        if value is None:
            if block.enabled(config):
                _fail(path, f"null, but config.{block.switch} enables it")
            continue
        if not block.enabled(config):
            _fail(path, f"expected null: config.{block.switch} disables it")
        if not isinstance(value, dict):
            _fail(path, f"expected null or an object, got {value!r}")
        block.validate(value, path, config)
    results = _get(payload, "$", "results")
    if not isinstance(results, list) or not results:
        _fail("$.results", f"expected a non-empty list, got {results!r}")
    seen: set[tuple[str, str]] = set()
    for i, result in enumerate(results):
        path = f"$.results[{i}]"
        _check_result(result, path)
        key = (result["model"], result["backend"])
        if key in seen:
            _fail(path, f"duplicate (model, backend) entry {key!r}")
        seen.add(key)
    return payload


def validate_file(path: str) -> dict:
    """Load ``path`` as JSON and validate it; returns the payload."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise BenchSchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"{path} is not valid JSON: {exc}") from exc
    return validate_payload(payload)


def main(argv: Sequence[str] | None = None) -> int:
    """Validate benchmark artifact files; exit non-zero on the first bad one."""
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print("usage: python -m repro.bench.schema FILE [FILE ...]",
              file=sys.stderr)
        return 2
    for path in args:
        try:
            payload = validate_file(path)
        except BenchSchemaError as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            return 1
        print(
            f"ok {path}: schema v{payload['schema_version']}, "
            f"{len(payload['results'])} result(s)"
        )
    return 0


if __name__ == "__main__":
    # Run the package's copy of this module: the block validators raise
    # its BenchSchemaError, not this __main__ copy's.
    from repro.bench.schema import main as _main

    raise SystemExit(_main())
