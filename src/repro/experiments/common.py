"""Shared builders for the experiment modules.

Everything here routes through the unified runtime API
(:mod:`repro.runtime`): experiments deploy named backends and read
sessions, instead of wiring engine classes by hand.  Sessions for the two
production models are cached because several experiments (Tables 2, 3, 4,
Figure 7) reuse them; plans come from :func:`plan_tables`, which memoises
them itself.
"""

from __future__ import annotations

import functools

from repro.core.planner import Plan, PlannerConfig, plan_tables
from repro.cpu.costmodel import CpuCostModel
from repro.experiments.calibration import (
    default_memory,
    default_timing,
    fpga_config,
)
from repro.fpga.accelerator import FpgaAcceleratorModel
from repro.models.spec import MODEL_FACTORIES, ModelSpec
from repro.runtime import Session, get_backend

MODELS = dict(MODEL_FACTORIES)


@functools.lru_cache(maxsize=None)
def model(name: str) -> ModelSpec:
    try:
        return MODELS[name]()
    except KeyError:
        raise KeyError(
            f"unknown production model {name!r}; expected one of {sorted(MODELS)}"
        ) from None


def plan(name: str, cartesian: bool = True) -> Plan:
    """Planner output for a production model, with or without merging."""
    return plan_tables(
        model(name).tables,
        default_memory(),
        timing=default_timing(),
        config=PlannerConfig(enable_cartesian=cartesian),
    )


@functools.lru_cache(maxsize=None)
def session(
    name: str,
    backend: str = "fpga",
    precision: str | None = None,
    cartesian: bool = True,
) -> Session:
    """A cached runtime session for a production model on one backend.

    ``precision=None`` keeps each backend's own default (fixed16 on the
    FPGA backends, fp32 on the CPU baseline — the paper's pairing).  The
    ``fpga`` backend reuses :func:`plan` (one Algorithm 1 run per
    model/merging setting, shared across precisions); other backends
    build from their own defaults.
    """
    builder = get_backend(backend)
    knobs: dict[str, object] = {"precision": precision}
    if backend == "fpga":
        knobs["plan"] = plan(name, cartesian)
        if precision not in (None, "fp32"):
            knobs["fpga_config"] = fpga_config(precision)
    elif not cartesian:
        raise ValueError(
            f"cartesian=False only applies to the fpga backend, not {backend!r}"
        )
    return builder.build(model(name), **knobs)


def accelerator(
    name: str, precision: str = "fixed16", cartesian: bool = True
) -> FpgaAcceleratorModel:
    return session(name, "fpga", precision, cartesian).engine.accelerator


@functools.lru_cache(maxsize=None)
def cpu_model(name: str) -> CpuCostModel:
    return session(name, "cpu").cost
