"""Reproducible cross-backend benchmarking (``repro bench``).

One subsystem behind every comparative number in the repository: a sweep
of registered backends x model specs x batch sizes
(:func:`run_bench` / :class:`BenchConfig`), a schema-versioned JSON
artifact (``BENCH_<name>.json``, :mod:`repro.bench.schema`), and
regression deltas between two artifacts (:func:`compare_payloads`).  The
CI ``bench-smoke`` job runs the quick sweep on every push and validates
the artifact with ``python -m repro.bench``.  The artifact's top-level
blocks (cluster, autoscale, sharding, tiering, telemetry) are the
:data:`BLOCKS` of :mod:`repro.bench.blocks`.
"""

from repro.bench.blocks import BLOCKS
from repro.bench.compare import (
    METRICS,
    SERVING_METRICS,
    compare_payloads,
    regressions,
)
from repro.bench.runner import (
    DEFAULT_TARGET_QPS,
    BenchConfig,
    config_summary,
    default_output_path,
    run_bench,
    write_payload,
)
from repro.bench.schema import (
    SCHEMA_VERSION,
    SUITE,
    BenchSchemaError,
    validate_file,
    validate_payload,
)

__all__ = [
    "BLOCKS",
    "BenchConfig",
    "BenchSchemaError",
    "DEFAULT_TARGET_QPS",
    "METRICS",
    "SERVING_METRICS",
    "SCHEMA_VERSION",
    "SUITE",
    "compare_payloads",
    "config_summary",
    "default_output_path",
    "regressions",
    "run_bench",
    "validate_file",
    "validate_payload",
    "write_payload",
]
