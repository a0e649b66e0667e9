"""Always-on telemetry plane: digests, metrics, exporters, spans.

The paper's argument is about p99 tails under load, so the repo's
observability layer has to make tails *cheap*: this package replaces
store-every-latency percentile math with O(bins) streaming state so
ten-million-arrival replays afford always-on collection.

* :mod:`repro.telemetry.digest` — :class:`QuantileDigest`, a
  deterministic, mergeable log-spaced-bin quantile sketch with an
  exact small-sample fallback, plus :func:`exact_quantile`, the one
  shared ``np.percentile`` wrapper every percentile consumer routes
  through;
* :mod:`repro.telemetry.metrics` — :class:`MetricRegistry` (counters,
  gauges, digest-backed histograms), the :class:`Telemetry` hub the
  serving stack's ``telemetry=`` hooks accept, and the string-keyed
  exporter registry (``json`` / ``prometheus-text`` / ``table``)
  mirroring the repo's other registries;
* :mod:`repro.telemetry.spans` — :class:`RequestSpan` phase breakdowns
  (route-decision → queue-wait → service → tier-lookup → gather) with
  :class:`SpanRecorder`'s seeded, hard-capped sampling.

Quickstart::

    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    session = deploy_model("small", backend="fpga")
    session.serve(arrivals_ns, telemetry=telemetry)
    print(telemetry.render("table"))           # live counters + tails
    print(telemetry.render("prometheus-text"))  # scrape format

Collection is observation-only: a serve with telemetry attached
produces byte-identical results to one without.
"""

from repro.telemetry.digest import (
    BIN_RATIO,
    EXACT_LIMIT,
    QuantileDigest,
    exact_quantile,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    JsonExporter,
    MetricRegistry,
    PrometheusTextExporter,
    TableExporter,
    Telemetry,
    UnknownExporterError,
    available_exporters,
    get_exporter,
    register_exporter,
)
from repro.telemetry.spans import (
    SPAN_PHASES,
    RequestSpan,
    SpanRecorder,
    span_seed,
)

__all__ = [
    "BIN_RATIO",
    "EXACT_LIMIT",
    "QuantileDigest",
    "exact_quantile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Telemetry",
    "JsonExporter",
    "PrometheusTextExporter",
    "TableExporter",
    "UnknownExporterError",
    "available_exporters",
    "get_exporter",
    "register_exporter",
    "SPAN_PHASES",
    "RequestSpan",
    "SpanRecorder",
    "span_seed",
]
