"""Autoscaling control plane: elastic fleets driven by rate traces.

Every serving layer below this one replays traffic against a *fixed*
fleet.  This package adds the missing loop: a string-keyed **scaler
registry** (:mod:`repro.autoscale.policies`, mirroring the backend and
routing-policy registries) and a discrete-time **autoscaling simulator**
(:mod:`repro.autoscale.simulator`) that resizes a fleet of any
:class:`~repro.runtime.session.ServingSurface` — single-engine sessions
and routed clusters alike — through a
:class:`~repro.serving.arrivals.RateTrace`, under provisioning delay,
cool-down, and fleet-size bounds, trading
:data:`~repro.deploy.capacity.ACCELERATOR_RATES` $/hour against
tail-latency SLOs.

Quickstart::

    import repro
    from repro.serving import diurnal_trace

    session = repro.deploy_model("small", backend="gpu", max_rows=4096)
    day = diurnal_trace(8 * session.perf().throughput_items_per_s, 1.2)
    result = repro.simulate_autoscale(
        session, day, policy="predictive-trace", slo_ms=30.0,
    )
    print(result.mean_nodes, result.sla_attainment)
    print(result.usd_total, "vs static", result.static.usd_total)
"""

from repro.autoscale.policies import (
    AutoscaleObservation,
    PredictiveTraceScaler,
    QueueDepthScaler,
    ReactiveUtilisationScaler,
    ScalerPolicy,
    SlaFeedbackScaler,
    StaticScaler,
    UnknownScalerError,
    available_scalers,
    get_scaler,
    register_scaler,
)
from repro.autoscale.simulator import (
    AutoscaleResult,
    AutoscaleWindow,
    StaticBaseline,
    compare_policies,
    simulate_autoscale,
)

__all__ = [
    "simulate_autoscale",
    "compare_policies",
    "AutoscaleResult",
    "AutoscaleWindow",
    "StaticBaseline",
    "AutoscaleObservation",
    "ScalerPolicy",
    "UnknownScalerError",
    "available_scalers",
    "get_scaler",
    "register_scaler",
    "StaticScaler",
    "ReactiveUtilisationScaler",
    "QueueDepthScaler",
    "PredictiveTraceScaler",
    "SlaFeedbackScaler",
]
