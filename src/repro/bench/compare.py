"""Regression deltas between two benchmark artifacts.

``repro bench --compare old.json`` attaches the output of
:func:`compare_payloads` to the fresh payload: per (model, backend) pair,
the old and new value of each headline metric and the signed percentage
delta.  Positive ``delta_pct`` means the metric *grew* — an improvement
for throughput, a regression for latency and cost; the ``regressions``
helper applies that sign convention, and ``repro bench --compare old.json
--fail-on-regression [PCT]`` exits non-zero on its output so CI can gate
on it directly.

Wall-clock budgets (schema v6) gate differently: raw ``wall_clock_s``
deltas are too noisy to threshold, so a baseline result opts in by
carrying ``wall_clock_budget_s`` — an explicit absolute ceiling — and the
comparison flags every fresh result whose measured wall clock exceeds the
(optionally scaled) ceiling, independent of the percentage threshold.
"""

from __future__ import annotations

from repro.bench.blocks import BLOCKS, BenchBlock
from repro.bench.schema import validate_payload

#: Headline metrics compared per (model, backend) pair, with the direction
#: that counts as a regression when the metric grows.
METRICS = {
    "latency_us": "higher-is-worse",
    "serving_latency_ms": "higher-is-worse",
    "throughput_items_per_s": "lower-is-worse",
    "usd_per_million_queries": "higher-is-worse",
}

#: Serving-lab metrics (schema v2) compared when both artifacts carry a
#: ``serving`` block: SLA capacity per arrival process (the highest rate
#: whose judged tail met the SLO) and the SLA-sized fleet's node count.
SERVING_METRICS = {
    "sla_capacity_per_s": "lower-is-worse",
    "sla_nodes": "higher-is-worse",
}


def _serving_metrics(result: dict) -> dict[str, float]:
    """Flatten a result's serving block into comparable scalars.

    ``sla_capacity_per_s:<process>`` per swept arrival process, plus
    ``sla_nodes`` when the SLA fleet plan exists.  The no-serving guard
    is defensive only: :func:`compare_payloads` validates both payloads
    against the current schema first, so v1 artifacts are rejected
    outright (regenerate them) rather than silently compared on perf
    metrics alone.
    """
    serving = result.get("serving")
    if not isinstance(serving, dict):
        return {}
    out: dict[str, float] = {}
    for process, curve in sorted(serving.get("processes", {}).items()):
        out[f"sla_capacity_per_s:{process}"] = curve["sla_capacity_per_s"]
    fleet_sla = serving.get("fleet_sla")
    if isinstance(fleet_sla, dict):
        out["sla_nodes"] = fleet_sla["nodes"]
    return out


def _delta(before: float, after: float) -> float | None:
    """Signed percentage change; None when the baseline is zero."""
    if before == 0:
        return 0.0 if after == 0 else None
    return (after - before) / before * 100.0


def _block_deltas(
    block: BenchBlock, old: dict, new: dict
) -> dict[str, object] | None:
    """Old/new/delta records for one top-level block.

    ``None`` when either payload's block is null — sweeps legitimately
    disable blocks, and a one-sided block cannot be diffed.  Otherwise
    one record per metric both sides carry, in ``block.directions``
    order (a telemetry block without tier hit rates has no
    ``hot_hit_rate``, so that metric degrades to absent, not failing).
    """
    if old[block.key] is None or new[block.key] is None:
        return None
    before = block.metrics(old[block.key])
    after = block.metrics(new[block.key])
    return {
        metric: {
            "old": before[metric],
            "new": after[metric],
            "delta_pct": _delta(before[metric], after[metric]),
        }
        for metric in block.directions
        if metric in before and metric in after
    }


def _by_pair(payload: dict) -> dict[tuple[str, str], dict]:
    return {
        (result["model"], result["backend"]): result
        for result in payload["results"]
    }


def _wall_clock_entries(
    old_pairs: dict[tuple[str, str], dict],
    new_pairs: dict[tuple[str, str], dict],
    scale: float,
) -> list[dict[str, object]]:
    """Budget-vs-measured wall-clock records (schema v6).

    One record per shared pair whose *baseline* result carries a
    ``wall_clock_budget_s`` ceiling; the fresh run's measured
    ``wall_clock_s`` is judged against ``scale x budget``.  Budgets are
    opt-in, so unbudgeted pairs simply produce no record.
    """
    entries = []
    for key in sorted(old_pairs.keys() & new_pairs.keys()):
        budget = old_pairs[key].get("wall_clock_budget_s")
        if budget is None:
            continue
        measured = new_pairs[key]["wall_clock_s"]
        entries.append(
            {
                "model": key[0],
                "backend": key[1],
                "wall_clock_s": measured,
                "budget_s": budget * scale,
                "within_budget": measured <= budget * scale,
            }
        )
    return entries


def compare_payloads(
    old: dict, new: dict, *, wall_clock_budget_scale: float = 1.0
) -> dict[str, object]:
    """Diff two validated payloads into a regression-delta record.

    Pairs present in only one payload are listed under ``removed`` /
    ``added`` rather than failing — sweeps legitimately grow backends.
    ``wall_clock_budget_scale`` multiplies every baseline wall-clock
    budget before the fresh run is judged against it (CI runners are
    slower than the laptops budgets were stamped on; the knob loosens the
    whole fleet without editing the artifact).  Raises
    :class:`~repro.bench.schema.BenchSchemaError` if either payload does
    not conform to the schema.
    """
    if wall_clock_budget_scale <= 0:
        raise ValueError(
            f"wall_clock_budget_scale must be positive, got "
            f"{wall_clock_budget_scale}"
        )
    validate_payload(old)
    validate_payload(new)
    old_pairs = _by_pair(old)
    new_pairs = _by_pair(new)
    entries = []
    for key in sorted(old_pairs.keys() & new_pairs.keys()):
        old_perf = old_pairs[key]["perf"]
        new_perf = new_pairs[key]["perf"]
        deltas = {}
        for metric in METRICS:
            before, after = old_perf[metric], new_perf[metric]
            deltas[metric] = {
                "old": before,
                "new": after,
                "delta_pct": _delta(before, after),
            }
        old_serving = _serving_metrics(old_pairs[key])
        new_serving = _serving_metrics(new_pairs[key])
        for metric in sorted(old_serving.keys() | new_serving.keys()):
            before = old_serving.get(metric)
            after = new_serving.get(metric)
            # A metric present on only one side is itself a signal: the
            # SLA fleet plan going null (SLO newly unattainable) must
            # surface as a delta, not vanish from the comparison.
            deltas[metric] = {
                "old": before,
                "new": after,
                "delta_pct": (
                    _delta(before, after)
                    if before is not None and after is not None
                    else None
                ),
            }
        entries.append(
            {"model": key[0], "backend": key[1], "metrics": deltas}
        )
    return {
        "baseline_name": old["name"],
        "entries": entries,
        **{block.key: _block_deltas(block, old, new) for block in BLOCKS},
        "wall_clock": {
            "budget_scale": wall_clock_budget_scale,
            "entries": _wall_clock_entries(
                old_pairs, new_pairs, wall_clock_budget_scale
            ),
        },
        "removed": sorted(
            f"{m}/{b}" for m, b in old_pairs.keys() - new_pairs.keys()
        ),
        "added": sorted(
            f"{m}/{b}" for m, b in new_pairs.keys() - old_pairs.keys()
        ),
    }


def regressions(
    comparison: dict, threshold_pct: float = 5.0
) -> list[str]:
    """Human-readable regression lines worse than ``threshold_pct``.

    Wall-clock budget exceedances are absolute ceilings, not deltas, so
    they are reported regardless of ``threshold_pct``.
    """
    lines = []
    wall_clock = comparison.get("wall_clock") or {}
    for record in wall_clock.get("entries", ()):
        if not record["within_budget"]:
            lines.append(
                f"{record['model']}/{record['backend']}: wall_clock_s "
                f"{record['wall_clock_s']:.3f}s exceeds budget "
                f"{record['budget_s']:.3f}s"
            )
    pair_directions = {**METRICS, **SERVING_METRICS}
    sections = [
        (f"{entry['model']}/{entry['backend']}", entry["metrics"],
         pair_directions)
        for entry in comparison["entries"]
    ] + [
        (block.label, comparison[block.key], block.directions)
        for block in BLOCKS
        if comparison.get(block.key)
    ]
    for label, deltas, directions in sections:
        for metric, record in deltas.items():
            # Serving metrics are keyed "<metric>:<process>".
            direction = directions[metric.split(":", 1)[0]]
            before, after = record["old"], record["new"]
            delta = record["delta_pct"]
            if after is None:
                # The metric vanished — for sla_nodes that means the SLO
                # became unattainable at any fleet size: always worse.
                worse, moved = True, "disappeared (SLO no longer attainable?)"
            elif before is None:
                # Appeared: the SLO became attainable — an improvement.
                worse, moved = False, "appeared"
            elif delta is None:
                # Baseline was zero, so no percentage exists; a metric
                # growing off a zero baseline is a regression only when
                # growth is the bad direction.
                worse = direction == "higher-is-worse" and after > 0
                moved = "appeared"
            else:
                worse = delta > threshold_pct if direction == "higher-is-worse" \
                    else delta < -threshold_pct
                moved = f"{'rose' if delta > 0 else 'fell'} {abs(delta):.1f}%"
            if worse:
                old_text = "-" if before is None else f"{before:.6g}"
                new_text = "-" if after is None else f"{after:.6g}"
                lines.append(
                    f"{label}: {metric} {moved} ({old_text} -> {new_text})"
                )
    return lines
