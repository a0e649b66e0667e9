"""RPR004 — registry hygiene.

The project is held together by seven string-keyed registries, each a
:class:`~repro.registry.Registry` (backends, routing policies, scalers,
sharding strategies, cache policies, telemetry exporters and the
lint-rule registry itself).  Three conventions keep them debuggable:

* registry keys are **static** — either a string literal argument or a
  string-literal ``name`` class attribute on the registered object,
  registered with one inline ``register_x(SomeClass())`` call per
  built-in; computed keys (f-strings, concatenation, ``.format``) hide
  the key from grep and from this linter;
* one key, one owner — the same key registered from two modules (without
  ``replace=True``) is a silent last-import-wins bug;
* every ``Unknown*Error`` raise interpolates the available keys, so a
  typo's fix is always in the error message.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.context import ModuleContext, ProjectContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule

_STRING_METHODS = {"format", "join", "replace", "lower", "upper", "strip"}


def _call_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_computed_string(node: ast.AST) -> bool:
    """An expression that *computes* a string (f-string, concat,
    ``.format(...)``) — never acceptable as a registry key."""
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Mod)
    ):
        return any(
            isinstance(side, ast.Constant)
            and isinstance(side.value, str)
            for side in (node.left, node.right)
        )
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "str":
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _STRING_METHODS
        ):
            return True
    return False


def _class_key_literal(
    cls: ast.ClassDef,
) -> tuple[str | None, ast.AST | None]:
    """The class-level ``name`` assignment: ``(literal, node)``.

    ``(None, node)`` means a ``name`` attribute exists but is not a
    string literal; ``(None, None)`` means no ``name`` attribute.
    """
    for stmt in cls.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "name":
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, str
                ):
                    return value.value, value
                return None, value
    return None, None


@dataclass
class _KeySite:
    """One statically resolved registration."""

    module: str
    line: int
    registry: str
    key: str


@dataclass
class _Resolver:
    """Static resolution of the one registration idiom: a string
    literal, or ``register_x(SomeClass())`` on a class defined in the
    same module with a string-literal ``name``."""

    module: ModuleContext
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)

    def __post_init__(self) -> None:
        tree = self.module.tree
        if tree is None:
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self.classes[node.name] = node

    def key_for(self, arg: ast.expr) -> str | None:
        """Registry key for one registration argument, or ``None``
        when it is not the sanctioned idiom."""
        if isinstance(arg, ast.Constant) and isinstance(
            arg.value, str
        ):
            return arg.value
        if isinstance(arg, ast.Call):
            return self.class_key(arg)[0]
        return None

    def class_key(
        self, call: ast.Call
    ) -> tuple[str | None, ast.AST | None]:
        """:func:`_class_key_literal` of the instantiated class, or
        ``(None, None)`` when it is not defined in this module."""
        if not isinstance(call.func, ast.Name):
            return None, None
        cls = self.classes.get(call.func.id)
        if cls is None:
            return None, None
        return _class_key_literal(cls)


class RegistryHygieneRule(Rule):
    name = "RPR004"
    slug = "registry-hygiene"
    invariant = (
        "register_* keys are string literals, unique across modules, "
        "and Unknown*Error raisers name the available keys"
    )
    rationale = (
        "seven registries resolve every CLI flag; a computed or "
        "shadowed key turns a typo into silent misrouting instead of "
        "an actionable error"
    )

    def __init__(self) -> None:
        self._sites: list[_KeySite] = []

    def check_module(
        self, module: ModuleContext
    ) -> Iterator[Finding]:
        tree = module.tree
        if tree is None:
            return
        resolver: _Resolver | None = None
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func_name = _call_name(node.func)
                if func_name and func_name.startswith("register_"):
                    if resolver is None:
                        resolver = _Resolver(module)
                    yield from self._check_registration(
                        module, resolver, node, func_name
                    )
            elif isinstance(node, ast.Raise):
                yield from self._check_unknown_raise(module, node)

    def _check_registration(
        self,
        module: ModuleContext,
        resolver: _Resolver,
        node: ast.Call,
        func_name: str,
    ) -> Iterator[Finding]:
        replace = any(
            kw.arg == "replace"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )
        key_args = list(node.args) + [
            kw.value for kw in node.keywords if kw.arg == "name"
        ]
        for arg in key_args:
            if _is_computed_string(arg):
                yield module.finding(
                    arg, self.name,
                    f"{func_name}() key must be a string literal, "
                    "not a computed string",
                )
                return
            if isinstance(arg, ast.Call):
                key, value_node = resolver.class_key(arg)
                if key is None and value_node is not None:
                    yield module.finding(
                        value_node, self.name,
                        "registered class must define its `name` as "
                        "a string literal",
                    )
                    return
        if replace or module.is_test:
            # tests re-register deliberately; replace=True is the
            # sanctioned shadowing escape hatch.
            return
        for arg in key_args:
            key = resolver.key_for(arg)
            if key is not None:
                self._sites.append(
                    _KeySite(
                        module=module.relpath,
                        line=node.lineno,
                        registry=func_name,
                        key=key,
                    )
                )

    def _check_unknown_raise(
        self, module: ModuleContext, node: ast.Raise
    ) -> Iterator[Finding]:
        exc = node.exc
        if not isinstance(exc, ast.Call):
            return
        exc_name = _call_name(exc.func)
        if (
            exc_name is None
            or not exc_name.startswith("Unknown")
            or not exc_name.endswith("Error")
        ):
            return
        for arg in ast.walk(exc):
            if isinstance(arg, ast.Call):
                inner = _call_name(arg.func)
                if inner and (
                    inner.startswith("available_") or inner == "join"
                ):
                    return
        yield module.finding(
            node, self.name,
            f"{exc_name} message must interpolate the available keys "
            "(join over the registry or available_*())",
        )

    def finalize(
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        sites = self._sites
        self._sites = []
        seen: dict[tuple[str, str], _KeySite] = {}
        for site in sorted(
            sites, key=lambda s: (s.module, s.line, s.key)
        ):
            ident = (site.registry, site.key)
            first = seen.get(ident)
            if first is None:
                seen[ident] = site
            elif (first.module, first.line) != (site.module, site.line):
                yield Finding(
                    path=site.module,
                    line=site.line,
                    col=0,
                    rule=self.name,
                    message=(
                        f"duplicate registry key {site.key!r} for "
                        f"{site.registry}() (first registered at "
                        f"{first.module}:{first.line}); pass "
                        "replace=True to shadow deliberately"
                    ),
                )


register_rule(RegistryHygieneRule())
