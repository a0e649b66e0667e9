"""One generic string-keyed registry behind every pluggable name.

Backends, routing policies, scalers, sharding strategies, cache
policies, telemetry exporters and lint rules are all objects registered
under their ``name`` at import time.  Each owning module holds one
:class:`Registry` and re-exports its bound methods under the public
names (``register_backend = _REGISTRY.register`` ...), so the contract
is written once:

* the key is the object's non-empty ``str`` ``name`` attribute;
* re-registering a key raises unless ``replace=True`` — plug-ins cannot
  silently shadow a built-in;
* an unknown key raises the registry's own ``Unknown*Error`` (a
  :class:`LookupError`) naming every registered key, so a typo's fix is
  in the error message.

Built-ins register with one inline ``register_x(SomeClass())`` call
each, the single idiom lint rule RPR004 resolves statically.
"""

from __future__ import annotations

from typing import Generic, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Name-keyed objects of one kind.

    ``noun`` names one entry in messages (``"routing policy"``),
    ``plural`` the listing (``"policies"``), and ``error`` is the
    :class:`LookupError` subclass :meth:`get` raises.
    """

    def __init__(
        self, noun: str, plural: str, error: type[LookupError]
    ) -> None:
        self.noun = noun
        self.plural = plural
        self.error = error
        self.entries: dict[str, T] = {}

    def register(self, obj: T, *, replace: bool = False) -> T:
        """Register ``obj`` under ``obj.name`` and return it.

        Re-registering a name requires ``replace=True`` to guard
        against accidental shadowing.
        """
        name = getattr(obj, "name", None)
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.noun} {obj!r} must expose a str .name")
        if name in self.entries and not replace:
            raise ValueError(
                f"{self.noun} {name!r} is already registered; pass "
                "replace=True to override"
            )
        self.entries[name] = obj
        return obj

    def get(self, name: str) -> T:
        """The object registered under ``name``; raises ``error``
        naming every registered key otherwise."""
        try:
            return self.entries[name]
        except KeyError:
            raise self.error(
                f"unknown {self.noun} {name!r}; registered {self.plural}: "
                f"{', '.join(self.available()) or '(none)'}"
            ) from None

    def available(self) -> tuple[str, ...]:
        """Sorted names of every registered object."""
        return tuple(sorted(self.entries))
