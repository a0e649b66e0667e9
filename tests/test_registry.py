"""One contract for all seven name-keyed registries (repro.registry)."""

from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.analysis import UnknownRuleError, available_rules, get_rule, register_rule
from repro.analysis import registry as rules_module
from repro.autoscale import (
    UnknownScalerError,
    available_scalers,
    get_scaler,
    register_scaler,
)
from repro.autoscale import policies as scalers_module
from repro.cluster import (
    UnknownRoutingPolicyError,
    available_policies,
    get_policy,
    register_policy,
)
from repro.cluster import routing as routing_module
from repro.distplan import (
    UnknownShardingStrategyError,
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.distplan import strategies as strategies_module
from repro.memory import (
    UnknownCachePolicyError,
    available_cache_policies,
    get_cache_policy,
    register_cache_policy,
)
from repro.memory import tiers as tiers_module
from repro.registry import Registry
from repro.runtime import (
    UnknownBackendError,
    available_backends,
    get_backend,
    register_backend,
)
from repro.runtime import backend as backend_module
from repro.telemetry import (
    UnknownExporterError,
    available_exporters,
    get_exporter,
    register_exporter,
)
from repro.telemetry import metrics as metrics_module


@dataclass(frozen=True)
class Case:
    """One registry's public surface plus a key it does not hold."""

    label: str
    registry: Registry
    register: Callable[..., Any]
    get: Callable[[str], Any]
    available: Callable[[], tuple[str, ...]]
    error: type[LookupError]
    fresh_key: str


CASES = (
    Case("backends", backend_module._REGISTRY, register_backend,
         get_backend, available_backends, UnknownBackendError,
         "contract-test"),
    Case("routing", routing_module._REGISTRY, register_policy,
         get_policy, available_policies, UnknownRoutingPolicyError,
         "contract-test"),
    Case("scalers", scalers_module._REGISTRY, register_scaler,
         get_scaler, available_scalers, UnknownScalerError,
         "contract-test"),
    Case("strategies", strategies_module._REGISTRY, register_strategy,
         get_strategy, available_strategies, UnknownShardingStrategyError,
         "contract-test"),
    Case("cache-policies", tiers_module._REGISTRY, register_cache_policy,
         get_cache_policy, available_cache_policies,
         UnknownCachePolicyError, "contract-test"),
    Case("exporters", metrics_module._REGISTRY, register_exporter,
         get_exporter, available_exporters, UnknownExporterError,
         "contract-test"),
    Case("rules", rules_module._REGISTRY, register_rule, get_rule,
         available_rules, UnknownRuleError, "RPR997"),
)


class Named:
    def __init__(self, name: object) -> None:
        self.name = name


@pytest.fixture(params=CASES, ids=[case.label for case in CASES])
def case(request, monkeypatch):
    """The registry under test, on a private copy of its entries so
    nothing registered here outlives the test."""
    case = request.param
    monkeypatch.setattr(case.registry, "entries", dict(case.registry.entries))
    return case


def test_register_returns_the_registered_object(case):
    obj = Named(case.fresh_key)
    assert case.register(obj) is obj
    assert case.get(case.fresh_key) is obj
    assert case.fresh_key in case.available()


def test_duplicate_name_needs_replace(case):
    first, second = Named(case.fresh_key), Named(case.fresh_key)
    case.register(first)
    with pytest.raises(ValueError, match="already registered.*replace=True"):
        case.register(second)
    assert case.get(case.fresh_key) is first
    assert case.register(second, replace=True) is second
    assert case.get(case.fresh_key) is second


@pytest.mark.parametrize("bad", [object(), Named(""), Named(7)])
def test_missing_empty_or_non_str_name_rejected(case, bad):
    before = case.available()
    with pytest.raises(ValueError, match="str .name"):
        case.register(bad)
    assert case.available() == before


def test_unknown_name_raises_the_registrys_lookup_error(case):
    assert issubclass(case.error, LookupError)
    with pytest.raises(case.error) as err:
        case.get("no-such-key")
    message = str(err.value)
    assert "'no-such-key'" in message
    assert case.available()
    for key in case.available():
        assert key in message


def test_available_is_sorted(case):
    names = case.available()
    assert isinstance(names, tuple)
    assert list(names) == sorted(names)
