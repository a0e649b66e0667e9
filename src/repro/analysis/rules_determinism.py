"""Determinism rules: RPR001 (RNG), RPR002 (wall clock), RPR003
(unordered iteration).

The project's CI checks that every ``--json`` CLI verb is byte-
identical across two runs.  These rules push that check to the source
level: the three ways a nondeterministic value reaches an artifact are
an unseeded (or global-state) RNG, a wall-clock read, and iteration
order of an unordered collection.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule

# ---------------------------------------------------------------------------
# Shared import tracking
# ---------------------------------------------------------------------------


class _Imports:
    """Module/name aliases for the stdlib + numpy modules a rule cares
    about, collected from the module's import statements."""

    def __init__(self, tree: ast.Module, modules: Iterable[str]):
        watched = set(modules)
        self.module_aliases: dict[str, set[str]] = {
            m: set() for m in watched
        }
        self.from_names: dict[str, dict[str, str]] = {
            m: {} for m in watched
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in watched:
                        self.module_aliases[alias.name].add(
                            alias.asname or alias.name
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module in watched:
                    for alias in node.names:
                        self.from_names[node.module][
                            alias.asname or alias.name
                        ] = alias.name

    def is_module(self, node: ast.AST, module: str) -> bool:
        return (
            isinstance(node, ast.Name)
            and node.id in self.module_aliases.get(module, ())
        )

    def from_name(self, node: ast.AST, module: str) -> str | None:
        """Original name when ``node`` is a ``from module import x``
        binding (``None`` otherwise)."""
        if isinstance(node, ast.Name):
            return self.from_names.get(module, {}).get(node.id)
        return None


# ---------------------------------------------------------------------------
# RPR001 — unseeded / global-state RNG
# ---------------------------------------------------------------------------

#: numpy.random attributes that construct *seedable* generators; every
#: other ``np.random.*`` call drives the legacy global state.
_NUMPY_CONSTRUCTORS = {
    "default_rng", "RandomState", "Generator", "SeedSequence",
    "BitGenerator", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
}
#: The constructors that take the seed as their (first) argument and
#: are nondeterministic (OS entropy) when called bare.
_SEED_TAKING = {"default_rng", "RandomState", "SeedSequence"}


class UnseededRngRule(Rule):
    name = "RPR001"
    slug = "unseeded-rng"
    invariant = (
        "every RNG is an explicitly seeded Generator; no global or "
        "module-level RNG state"
    )
    rationale = (
        "simulation results land in byte-compared --json artifacts; "
        "one OS-entropy seed makes every downstream number "
        "irreproducible"
    )

    def check_module(
        self, module: ModuleContext
    ) -> Iterator[Finding]:
        tree = module.tree
        if tree is None:
            return
        imports = _Imports(tree, ("random", "numpy", "numpy.random"))
        module_level_values = {
            id(stmt.value)
            for stmt in tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            and stmt.value is not None
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            label = self._rng_call(node, imports)
            if label is None:
                continue
            kind, attr = label
            if kind == "legacy":
                yield module.finding(
                    node, self.name,
                    f"numpy.random.{attr}() drives the legacy global "
                    "RNG; use a seeded np.random.default_rng(seed)",
                )
            elif kind == "stdlib":
                yield module.finding(
                    node, self.name,
                    f"random.{attr}() uses the stdlib's global RNG "
                    "state; use a seeded np.random.default_rng(seed)",
                )
            elif kind == "unseeded":
                yield module.finding(
                    node, self.name,
                    f"{attr}() without a seed draws OS entropy; pass "
                    "an explicit seed",
                )
            elif kind == "constructor" and id(node) in module_level_values:
                yield module.finding(
                    node, self.name,
                    f"module-level RNG state ({attr}(...)): shared "
                    "generators make results depend on call order; "
                    "construct one per function instead",
                )

    @staticmethod
    def _rng_call(
        node: ast.Call, imports: _Imports
    ) -> tuple[str, str] | None:
        """Classify a call as RNG-related, or ``None``.

        Returns ``(kind, attr)`` with kind one of ``legacy`` (numpy
        global state), ``stdlib`` (random module global state),
        ``unseeded`` (seed-taking constructor called bare), or
        ``constructor`` (a properly seeded constructor — only flagged
        when it builds module-level state).
        """
        func = node.func
        attr: str | None = None
        scope: str | None = None
        if isinstance(func, ast.Attribute):
            value = func.value
            # np.random.X(...) — numpy module attribute 'random'
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and imports.is_module(value.value, "numpy")
            ):
                scope, attr = "numpy", func.attr
            elif imports.is_module(value, "numpy.random"):
                scope, attr = "numpy", func.attr
            elif imports.is_module(value, "random"):
                scope, attr = "stdlib", func.attr
        else:
            original = imports.from_name(func, "numpy.random")
            if original is not None:
                scope, attr = "numpy", original
            else:
                original = imports.from_name(func, "random")
                if original is not None:
                    scope, attr = "stdlib", original
        if scope is None or attr is None:
            return None
        seeded = bool(node.args) or bool(node.keywords)
        if scope == "numpy":
            if attr not in _NUMPY_CONSTRUCTORS:
                return ("legacy", attr)
            if attr in _SEED_TAKING and not seeded:
                return ("unseeded", attr)
            return ("constructor", attr)
        # stdlib random: Random(seed) builds a seeded instance; every
        # other callable mutates or reads the hidden global state.
        if attr == "Random":
            if not seeded:
                return ("unseeded", attr)
            return ("constructor", attr)
        return ("stdlib", attr)


# ---------------------------------------------------------------------------
# RPR002 — wall-clock reads
# ---------------------------------------------------------------------------

_TIME_FUNCS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
    "clock_gettime", "clock_gettime_ns",
}
_DATETIME_FUNCS = {"now", "utcnow", "today"}


class WallClockRule(Rule):
    name = "RPR002"
    slug = "wall-clock"
    invariant = (
        "wall-clock reads only inside the bench timing harness "
        "(src/repro/bench/)"
    )
    rationale = (
        "a timestamp in a simulation or report path breaks the "
        "byte-identical --json guarantee on every run"
    )

    def check_module(
        self, module: ModuleContext
    ) -> Iterator[Finding]:
        tree = module.tree
        if tree is None or module.in_timing_harness:
            return
        imports = _Imports(tree, ("time", "datetime"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                if (
                    func.attr in _TIME_FUNCS
                    and imports.is_module(func.value, "time")
                ):
                    yield module.finding(
                        node, self.name,
                        f"time.{func.attr}() reads the wall clock "
                        "outside the bench timing harness",
                    )
                elif func.attr in _DATETIME_FUNCS and (
                    self._is_datetime_like(func.value, imports)
                ):
                    yield module.finding(
                        node, self.name,
                        f"datetime .{func.attr}() reads the wall "
                        "clock outside the bench timing harness",
                    )
            else:
                original = imports.from_name(func, "time")
                if original in _TIME_FUNCS:
                    yield module.finding(
                        node, self.name,
                        f"{original}() (from time) reads the wall "
                        "clock outside the bench timing harness",
                    )

    @staticmethod
    def _is_datetime_like(
        node: ast.AST, imports: _Imports
    ) -> bool:
        # datetime.datetime.now() / datetime.date.today()
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("datetime", "date")
            and imports.is_module(node.value, "datetime")
        ):
            return True
        # from datetime import datetime, date
        return imports.from_name(node, "datetime") in (
            "datetime", "date",
        )


# ---------------------------------------------------------------------------
# RPR003 — unordered iteration feeding ordered output
# ---------------------------------------------------------------------------

#: Consumers whose result does not depend on iteration order.
_ORDER_NEUTRAL = {
    "sorted", "set", "frozenset", "sum", "min", "max", "any", "all",
    "len",
}
#: Calls that materialise iteration order into an ordered value.
_MATERIALIZERS = {"list", "tuple", "enumerate"}
_SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference",
}
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def _is_dict_view(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "items")
        and not node.args
        and not node.keywords
    )


def _is_setlike(node: ast.AST) -> bool:
    """Syntactically certain to evaluate to a ``set``/``frozenset``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in (
            "set", "frozenset",
        ):
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and _is_setlike(func.value)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        if _is_setlike(node.left) or _is_setlike(node.right):
            return True
        # dict-view algebra (d.keys() & e.keys()) returns a set
        return _is_dict_view(node.left) and _is_dict_view(node.right)
    return False


class UnsortedIterationRule(Rule):
    name = "RPR003"
    slug = "unsorted-set-iteration"
    invariant = (
        "iterating a set (or set algebra over dict views) requires an "
        "enclosing sorted()"
    )
    rationale = (
        "set iteration order varies with PYTHONHASHSEED; one unsorted "
        "set reaching a join/list/--json payload breaks byte identity "
        "across processes"
    )

    def check_module(
        self, module: ModuleContext
    ) -> Iterator[Finding]:
        tree = module.tree
        if tree is None:
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.For) and _is_setlike(node.iter):
                yield module.finding(
                    node.iter, self.name,
                    "for-loop over a set has nondeterministic order; "
                    "iterate sorted(...) instead",
                )
            elif isinstance(node, ast.comprehension) and _is_setlike(
                node.iter
            ):
                owner = module.parent(node)
                # A set comprehension over a set stays unordered:
                # no order leaks.  List/generator/dict comprehensions
                # freeze the arbitrary order into their result.
                if isinstance(owner, ast.SetComp):
                    continue
                if owner is not None and self._neutralized(
                    module, owner
                ):
                    continue
                yield module.finding(
                    node.iter, self.name,
                    "comprehension over a set leaks nondeterministic "
                    "order; iterate sorted(...) instead",
                )
            elif isinstance(node, ast.Call):
                yield from self._check_materializer(module, node)

    def _check_materializer(
        self, module: ModuleContext, node: ast.Call
    ) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id not in _MATERIALIZERS:
                return
            label = f"{func.id}()"
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            label = ".join()"
        else:
            return
        for arg in node.args:
            if _is_setlike(arg) and not self._neutralized(
                module, node
            ):
                yield module.finding(
                    arg, self.name,
                    f"{label} over a set materialises "
                    "nondeterministic order; wrap the set in "
                    "sorted(...)",
                )

    @staticmethod
    def _neutralized(
        module: ModuleContext, node: ast.AST
    ) -> bool:
        """True when an enclosing expression discards iteration order
        (``sorted(...)``, ``set(...)``, ``sum(...)``, membership
        tests, ...)."""
        current = node
        while True:
            parent = module.parent(current)
            if parent is None or isinstance(parent, ast.stmt):
                return False
            if isinstance(parent, ast.Call):
                func = parent.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_NEUTRAL
                    and current in parent.args
                ):
                    return True
            if isinstance(parent, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn))
                for op in parent.ops
            ):
                return True
            if isinstance(parent, ast.SetComp):
                return True
            current = parent


register_rule(UnseededRngRule())
register_rule(WallClockRule())
register_rule(UnsortedIterationRule())
