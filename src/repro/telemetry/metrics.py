"""Metric registry and string-keyed exporter registry.

:class:`MetricRegistry` is the in-process metrics plane: counters
(monotone event totals), gauges (last-written level), and histograms
backed by :class:`~repro.telemetry.digest.QuantileDigest` — O(bins)
tails instead of O(requests) arrays, which is what makes always-on
collection affordable on ten-million-arrival replays.

Rendering a snapshot goes through the **exporter registry**, the same
string-keyed shape as the backend / router / scaler / strategy /
cache-policy / rule registries elsewhere in the repo: ``json`` for
machine diffing, ``prometheus-text`` for the exposition format scrape
pipelines expect, ``table`` for humans.  ``register_exporter`` /
``available_exporters`` / :class:`UnknownExporterError` follow the
house rules (checked by the RPR004 lint rule), and unknown names fail
listing every registered key.

:class:`Telemetry` bundles one registry with an optional span recorder
— the single object the ``telemetry=`` hooks across the serving stack
accept and thread through.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np

from repro.telemetry.digest import QuantileDigest
from repro.registry import Registry
from repro.telemetry.spans import SpanRecorder

#: Percentiles every histogram snapshot reports (keys in the snapshot
#: are ``p50`` / ``p95`` / ``p99`` / ``p999``).
SNAPSHOT_PERCENTILES: tuple[tuple[str, float], ...] = (
    ("p50", 50.0),
    ("p95", 95.0),
    ("p99", 99.0),
    ("p999", 99.9),
)


class Counter:
    """Monotone event counter (float so weighted counts work too)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name}: increments must be >= 0, "
                f"got {amount}"
            )
        self.value += float(amount)


class Gauge:
    """Last-written level (replicas active, rows resident, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Digest-backed distribution (latencies, window tails, ...)."""

    __slots__ = ("name", "digest")

    def __init__(self, name: str):
        self.name = name
        self.digest = QuantileDigest()

    def observe(self, value: float) -> None:
        self.digest.add(value)

    def observe_many(self, values: np.ndarray | Sequence[float]) -> None:
        self.digest.add_many(values)


class MetricRegistry:
    """Get-or-create registry of counters, gauges, and histograms.

    Names are free-form dotted strings (``serve.requests.fpga``); a
    name is bound to one metric kind for the registry's lifetime and
    re-requesting it under another kind fails loudly.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _claim(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{other_kind}, cannot re-register as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._claim(name, "counter")
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._claim(name, "gauge")
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._claim(name, "histogram")
            metric = self._histograms[name] = Histogram(name)
        return metric

    def snapshot(self) -> dict[str, object]:
        """Deterministic JSON-ready view (names sorted, digests folded).

        Histograms report count / mean / min / max plus the digest
        percentiles in :data:`SNAPSHOT_PERCENTILES`; empty histograms
        report ``null`` statistics rather than raising.
        """
        histograms: dict[str, object] = {}
        for name in sorted(self._histograms):
            digest = self._histograms[name].digest
            if digest.count == 0:
                histograms[name] = {
                    "count": 0,
                    "mean": None,
                    "min": None,
                    "max": None,
                    **{key: None for key, _ in SNAPSHOT_PERCENTILES},
                }
                continue
            histograms[name] = {
                "count": digest.count,
                "mean": digest.mean,
                "min": digest.min,
                "max": digest.max,
                **{
                    key: digest.quantile(q)
                    for key, q in SNAPSHOT_PERCENTILES
                },
            }
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": histograms,
        }


class Telemetry:
    """One metrics plane plus optional span recording.

    The object every ``telemetry=`` hook across the serving stack
    accepts: digest-backed metrics are always collected when a hub is
    active; span recording stays off unless a
    :class:`~repro.telemetry.spans.SpanRecorder` is attached (bounded
    memory is opt-in detail, not a default cost).
    """

    __slots__ = ("metrics", "spans")

    def __init__(self, spans: SpanRecorder | None = None):
        self.metrics = MetricRegistry()
        self.spans = spans

    def snapshot(self) -> dict[str, object]:
        """Metrics snapshot plus recorded spans (deterministic)."""
        payload = self.metrics.snapshot()
        payload["spans"] = (
            [span.as_dict() for span in self.spans.spans]
            if self.spans is not None
            else None
        )
        return payload

    def render(self, exporter: str = "table") -> str:
        """Render the current snapshot through a registered exporter."""
        return get_exporter(exporter).render(self.snapshot())


# -- exporter registry -------------------------------------------------


class UnknownExporterError(LookupError):
    """Raised for exporter names nothing has registered."""


def _prometheus_name(name: str, suffix: str = "") -> str:
    """Fold a dotted metric name into the exposition-format charset."""
    safe = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"repro_{safe}{suffix}"


class JsonExporter:
    """Machine-diffable snapshot: stable JSON, sorted keys."""

    name = "json"

    def render(self, snapshot: Mapping[str, object]) -> str:
        return json.dumps(snapshot, indent=2, sort_keys=True)


class PrometheusTextExporter:
    """Prometheus exposition format (counters, gauges, summaries)."""

    name = "prometheus-text"

    def render(self, snapshot: Mapping[str, object]) -> str:
        lines: list[str] = []
        counters = snapshot.get("counters") or {}
        for metric, value in counters.items():  # snapshot() sorts names
            pname = _prometheus_name(metric, "_total")
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {value}")
        gauges = snapshot.get("gauges") or {}
        for metric, value in gauges.items():
            pname = _prometheus_name(metric)
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {value}")
        histograms = snapshot.get("histograms") or {}
        for metric, stats in histograms.items():
            pname = _prometheus_name(metric)
            lines.append(f"# TYPE {pname} summary")
            for key, quantile in SNAPSHOT_PERCENTILES:
                value = stats[key]
                if value is None:
                    continue
                lines.append(
                    f'{pname}{{quantile="{quantile / 100:g}"}} {value}'
                )
            lines.append(f"{pname}_count {stats['count']}")
            mean = stats["mean"]
            if mean is not None:
                lines.append(
                    f"{pname}_sum {mean * stats['count']}"
                )
        return "\n".join(lines) + "\n"


class TableExporter:
    """Human-readable aligned tables, one section per metric kind."""

    name = "table"

    def render(self, snapshot: Mapping[str, object]) -> str:
        lines: list[str] = []
        for kind in ("counters", "gauges"):
            table = snapshot.get(kind) or {}
            if not table:
                continue
            lines.append(f"{kind}:")
            width = max(len(name) for name in table)
            for metric, value in table.items():
                lines.append(f"  {metric:<{width}}  {value:g}")
        histograms = snapshot.get("histograms") or {}
        if histograms:
            lines.append("histograms:")
            width = max(len(name) for name in histograms)
            for metric, stats in histograms.items():
                if not stats["count"]:
                    lines.append(f"  {metric:<{width}}  (empty)")
                    continue
                tails = "  ".join(
                    f"{key}={stats[key]:.4g}"
                    for key, _ in SNAPSHOT_PERCENTILES
                )
                lines.append(
                    f"  {metric:<{width}}  n={stats['count']}  "
                    f"mean={stats['mean']:.4g}  {tails}"
                )
        return "\n".join(lines) + "\n"


_REGISTRY: Registry[object] = Registry(
    "exporter", "exporters", UnknownExporterError
)
register_exporter = _REGISTRY.register
get_exporter = _REGISTRY.get
available_exporters = _REGISTRY.available

register_exporter(JsonExporter())
register_exporter(PrometheusTextExporter())
register_exporter(TableExporter())
