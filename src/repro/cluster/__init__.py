"""Heterogeneous cluster API: many models, many backends, one surface.

This package composes the layers below it into the deployment shape real
recommendation fleets run: several models on a mix of accelerator tiers,
behind one routed serving surface.

* :mod:`repro.cluster.routing` — the string-keyed routing-policy
  registry (``round-robin``, ``least-loaded``, ``cheapest-first``,
  ``sla-aware``) mirroring the inference-backend registry;
* :mod:`repro.cluster.cluster` — :class:`Cluster`, a set of
  :class:`~repro.runtime.session.Session` replicas implementing the same
  :class:`~repro.runtime.session.ServingSurface` as a single session,
  and :class:`ClusterServingResult`, its blended + per-tier latency
  distribution;
* :mod:`repro.cluster.api` — :func:`deploy_cluster`, the one-call
  frontend (:func:`repro.deploy_model` stays the trivial one-replica
  case).

Quickstart::

    from repro.cluster import ReplicaSpec, deploy_cluster

    cluster = deploy_cluster(
        [
            ReplicaSpec(model="small", backend="fpga"),
            ReplicaSpec(model="small", backend="gpu"),
            ReplicaSpec(model="small", backend="cpu"),
        ],
        router="sla-aware",
        slo_ms=30.0,
        max_rows=4096,
    )
    result = cluster.serve(arrivals_ns)       # ClusterServingResult
    print(result.p99_ms, result.tier_counts())
    print(cluster.fleet_sla(1_000_000, slo_ms=30.0))
"""

from repro.cluster.api import ReplicaSpec, deploy_cluster
from repro.cluster.cluster import Cluster, ClusterServingResult
from repro.cluster.routing import (
    CheapestFirstPolicy,
    LeastLoadedPolicy,
    ReplicaView,
    RoundRobinPolicy,
    RoutingPolicy,
    SlaAwarePolicy,
    UnknownRoutingPolicyError,
    available_policies,
    dispatch_counts,
    get_policy,
    register_policy,
)

__all__ = [
    "Cluster",
    "ClusterServingResult",
    "ReplicaSpec",
    "deploy_cluster",
    "RoutingPolicy",
    "ReplicaView",
    "UnknownRoutingPolicyError",
    "available_policies",
    "dispatch_counts",
    "get_policy",
    "register_policy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "CheapestFirstPolicy",
    "SlaAwarePolicy",
]
