"""Routing policies: who serves the next query in a heterogeneous fleet.

A *routing policy* assigns every arrival in a query stream to one replica
of a :class:`~repro.cluster.cluster.Cluster`.  Policies register under
short names in a string-keyed registry exactly like the inference-backend
registry (:mod:`repro.runtime.backend`): everything above this layer —
:func:`repro.cluster.deploy_cluster`, the CLI, the bench runner — selects
routers by name and never touches policy constructors directly.

Four policies ship by default:

``round-robin``
    Arrival ``i`` goes to replica ``i mod n`` — the oblivious baseline.
``least-loaded``
    Each arrival goes to the replica whose *virtual queue* (a running
    per-replica model of backlog, advanced by the replica's sustained
    item spacing) would start serving it earliest; ties break towards
    the faster, lower-indexed replica.  Work-conserving and adaptive:
    a traffic burst spreads across the fleet instead of piling onto a
    fixed schedule.
``cheapest-first``
    Replicas are ordered by $/M-queries (the
    :class:`~repro.runtime.perf.PerfEstimate` figure priced from the
    rates in :mod:`repro.deploy.capacity`); each arrival goes to the
    cheapest replica whose virtual backlog is under a spill threshold,
    overflowing to the next-cheapest tier — cost-optimal until load
    forces the expensive tiers in.
``sla-aware``
    Tiers are ordered by serving latency (the paper's FPGA first);
    each arrival goes to the fastest replica whose *predicted* latency
    (virtual queueing delay + the tier's serving latency) still meets
    the SLO, spilling towards the GPU/CPU overflow tiers only once the
    primary tier's predicted tail exceeds the SLO.  If no tier can hold
    the SLO the arrival goes to the replica with the best prediction.

All policies are deterministic pure functions of the arrival stream and
the replica set — two runs of the same cluster under the same seed
produce byte-identical routing, which the CLI's ``--json`` determinism
guarantee (and CI) relies on.

Third-party policies plug in with::

    from repro.cluster import register_policy

    class MyPolicy:
        name = "my-policy"

        def route(self, arrivals_ns, replicas, *, slo_ms):
            ...  # return one replica index per arrival

    register_policy(MyPolicy())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.registry import Registry

class UnknownRoutingPolicyError(LookupError):
    """Raised when a routing-policy name is not in the registry."""


@dataclass(frozen=True)
class ReplicaView:
    """What a routing policy may know about one replica.

    A static snapshot of the replica's normalised performance — policies
    route on published numbers (as a production load balancer would on
    health-checked metadata), not on the internals of the queueing
    simulators.
    """

    index: int
    backend: str
    model: str
    #: Single-item latency (ms) — the unloaded floor.
    latency_ms: float
    #: Per-query latency at the serving operating point (ms) — what one
    #: admitted query should expect from an unqueued replica.
    serving_latency_ms: float
    #: Sustained item spacing at capacity (ns) — advances the virtual
    #: queue one query at a time.
    ii_ns: float
    usd_per_hour: float
    usd_per_million_queries: float


@runtime_checkable
class RoutingPolicy(Protocol):
    """Uniform surface every registered routing policy implements."""

    name: str

    def route(
        self,
        arrivals_ns: np.ndarray,
        replicas: Sequence[ReplicaView],
        *,
        slo_ms: float,
    ) -> np.ndarray:
        """One replica index (into ``replicas``) per arrival timestamp."""
        ...


_REGISTRY: Registry[RoutingPolicy] = Registry(
    "routing policy", "policies", UnknownRoutingPolicyError
)
register_policy = _REGISTRY.register
get_policy = _REGISTRY.get
available_policies = _REGISTRY.available


def dispatch_counts(
    assignments: np.ndarray, replica_backends: Sequence[str]
) -> dict[str, int]:
    """Queries dispatched per backend tier (first-appearance order).

    The one accounting of a routing outcome shared by
    :meth:`~repro.cluster.cluster.ClusterServingResult.tier_counts`
    and the telemetry dispatch/spill counters: ``assignments`` holds
    one replica index per query, replicas group into tiers by backend
    name, and tiers that served nothing still appear with 0.
    """
    counts: dict[str, int] = {
        name: 0 for name in dict.fromkeys(replica_backends)
    }
    if len(replica_backends):
        per_replica = np.bincount(
            np.asarray(assignments, dtype=np.int64),
            minlength=len(replica_backends),
        )
        for i, name in enumerate(replica_backends):
            counts[name] += int(per_replica[i])
    return counts


# ---------------------------------------------------------------------------
# Built-in policies
# ---------------------------------------------------------------------------


def _virtual_free(replicas: Sequence[ReplicaView]) -> np.ndarray:
    """Initial virtual-queue state: every replica free at time 0."""
    if not replicas:
        raise ValueError("cannot route over an empty replica set")
    return np.zeros(len(replicas), dtype=np.float64)


class RoundRobinPolicy:
    """Oblivious rotation: arrival ``i`` lands on replica ``i mod n``."""

    name = "round-robin"

    def route(
        self,
        arrivals_ns: np.ndarray,
        replicas: Sequence[ReplicaView],
        *,
        slo_ms: float,
    ) -> np.ndarray:
        _virtual_free(replicas)  # validates non-empty
        return np.arange(arrivals_ns.size, dtype=np.int64) % len(replicas)


class LeastLoadedPolicy:
    """Join the replica whose virtual queue starts serving you earliest.

    Per replica the policy keeps ``free[r]``, the time its virtual queue
    next has a service slot; admitting an arrival at ``t`` advances it by
    the replica's sustained spacing ``ii_ns``.  The arrival joins the
    replica with the earliest ``max(t, free[r])``, breaking ties towards
    the smaller spacing (faster replica) and then the lower index — so
    an idle fleet funnels to its fastest member and a loaded fleet
    spreads in proportion to capacity.
    """

    name = "least-loaded"

    def route(
        self,
        arrivals_ns: np.ndarray,
        replicas: Sequence[ReplicaView],
        *,
        slo_ms: float,
    ) -> np.ndarray:
        _virtual_free(replicas)  # validates non-empty
        ii = [float(r.ii_ns) for r in replicas]
        if len(replicas) == 1:
            return np.zeros(arrivals_ns.size, dtype=np.int64)
        order = sorted(range(len(replicas)), key=lambda i: (ii[i], i))
        # Incremental virtual-queue state: ``free`` is carried across
        # events as plain floats and advanced in place, never recomputed.
        # The scan keeps the first replica in ``order`` achieving the
        # strict minimum — the same tie-break as ``min(order, key=...)``.
        free = [0.0] * len(replicas)
        out: list[int] = []
        append = out.append
        inf = float("inf")
        for t in arrivals_ns.tolist():
            best = -1
            best_start = inf
            for i in order:
                start = free[i]
                if start < t:
                    start = t
                if start < best_start:
                    best_start = start
                    best = i
            append(best)
            free[best] = best_start + ii[best]
        return np.array(out, dtype=np.int64)


class CheapestFirstPolicy:
    """Fill the cheapest tier first, spilling when its backlog builds.

    Replicas are ranked by ``usd_per_million_queries``; each arrival goes
    to the cheapest replica whose virtual backlog is below
    ``max_backlog_ms``, overflowing to the next-cheapest.  When every
    replica is past the threshold the arrival joins the least-loaded one
    (work conservation beats price once the whole fleet is saturated).
    """

    name = "cheapest-first"

    def __init__(self, max_backlog_ms: float = 5.0):
        if max_backlog_ms <= 0:
            raise ValueError(
                f"max_backlog_ms must be positive, got {max_backlog_ms}"
            )
        self.max_backlog_ms = max_backlog_ms

    def route(
        self,
        arrivals_ns: np.ndarray,
        replicas: Sequence[ReplicaView],
        *,
        slo_ms: float,
    ) -> np.ndarray:
        _virtual_free(replicas)  # validates non-empty
        ii = [float(r.ii_ns) for r in replicas]
        order = sorted(
            range(len(replicas)),
            key=lambda i: (replicas[i].usd_per_million_queries, i),
        )
        threshold_ns = self.max_backlog_ms * 1e6
        # Incremental running state: per-replica virtual free times are
        # advanced event by event, never rebuilt by scanning history.
        free = [0.0] * len(replicas)
        out: list[int] = []
        append = out.append
        inf = float("inf")
        for t in arrivals_ns.tolist():
            best = -1
            for i in order:
                if free[i] - t <= threshold_ns:
                    best = i
                    break
            if best < 0:
                # Whole fleet past the spill threshold: least-loaded
                # fallback, first-in-order tie-break.
                best_start = inf
                for i in order:
                    start = free[i]
                    if start < t:
                        start = t
                    if start < best_start:
                        best_start = start
                        best = i
            append(best)
            start = free[best]
            if start < t:
                start = t
            free[best] = start + ii[best]
        return np.array(out, dtype=np.int64)


class SlaAwarePolicy:
    """Spill from the fastest tier only when its predicted tail misses.

    Tiers are ordered by serving latency — in the paper's fleets the
    pipelined FPGA is primary and the GPU/CPU batched stacks are the
    overflow tiers.  For each arrival the policy predicts the latency a
    replica would deliver (virtual queueing delay plus the tier's
    serving latency) and admits the arrival at the *fastest* replica
    whose prediction still meets the SLO.  Under light load everything
    stays on the primary tier; spill starts exactly when the primary's
    predicted tail exceeds the SLO, and falls back to the best available
    prediction when no tier can hold it.
    """

    name = "sla-aware"

    def route(
        self,
        arrivals_ns: np.ndarray,
        replicas: Sequence[ReplicaView],
        *,
        slo_ms: float,
    ) -> np.ndarray:
        if slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {slo_ms}")
        _virtual_free(replicas)  # validates non-empty
        ii = [float(r.ii_ns) for r in replicas]
        service_ns = [float(r.serving_latency_ms) * 1e6 for r in replicas]
        order = sorted(
            range(len(replicas)),
            key=lambda i: (replicas[i].serving_latency_ms, i),
        )
        slo_ns = slo_ms * 1e6
        # Incremental virtual-queue state, advanced in place per event.
        free = [0.0] * len(replicas)
        out: list[int] = []
        append = out.append
        inf = float("inf")
        for t in arrivals_ns.tolist():
            best = -1
            for i in order:
                start = free[i]
                if start < t:
                    start = t
                if start - t + service_ns[i] <= slo_ns:
                    best = i
                    break
            if best < 0:
                # No tier holds the SLO: best available prediction,
                # first-in-order tie-break.
                best_pred = inf
                for i in order:
                    start = free[i]
                    if start < t:
                        start = t
                    predicted = start - t + service_ns[i]
                    if predicted < best_pred:
                        best_pred = predicted
                        best = i
            append(best)
            start = free[best]
            if start < t:
                start = t
            free[best] = start + ii[best]
        return np.array(out, dtype=np.int64)


register_policy(RoundRobinPolicy())
register_policy(LeastLoadedPolicy())
register_policy(CheapestFirstPolicy())
register_policy(SlaAwarePolicy())
