"""Module and project contexts the rules check against.

A :class:`ModuleContext` is one parsed source file: its AST, a
child-to-parent map (rules climb it to find enclosing ``sorted()``
calls or ``except`` handlers), its suppression table, and role flags
derived from the path (test module?  timing harness?).  A
:class:`ProjectContext` is every module of one lint run — the unit
cross-module rules (duplicate registry keys, parity-pair coverage)
finalize over.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from repro.analysis.findings import ENGINE_RULE, Finding
from repro.analysis.suppress import Suppression, scan_suppressions


class LintUsageError(ValueError):
    """Bad invocation (missing path, not a Python tree): exit code 2."""


#: Path prefixes allowed to read the wall clock (RPR002): the bench
#: runner stamps ``wall_clock_s`` into artifacts by design.
TIMING_HARNESS_PREFIXES = ("src/repro/bench/",)


@dataclass
class ModuleContext:
    """One parsed Python source file."""

    relpath: str
    source: str
    tree: ast.Module | None
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    problems: list[Finding] = field(default_factory=list)

    _parents: dict[ast.AST, ast.AST] | None = None
    _referenced: frozenset[str] | None = None

    @property
    def is_test(self) -> bool:
        """Test modules: relaxed registry-duplicate / parity rules."""
        name = PurePosixPath(self.relpath).name
        return (
            self.relpath.startswith("tests/")
            or name.startswith("test_")
            or name == "conftest.py"
        )

    @property
    def in_timing_harness(self) -> bool:
        """True where wall-clock reads are the module's job."""
        return self.relpath.startswith(TIMING_HARNESS_PREFIXES)

    def parent(self, node: ast.AST) -> ast.AST | None:
        """Parent of ``node`` in this module's AST (built lazily)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            if self.tree is not None:
                for outer in ast.walk(self.tree):
                    for child in ast.iter_child_nodes(outer):
                        parents[child] = outer
            self._parents = parents
        return self._parents.get(node)

    def referenced_names(self) -> frozenset[str]:
        """Every ``Name`` id and ``Attribute`` attr in the module."""
        if self._referenced is None:
            names: set[str] = set()
            if self.tree is not None:
                for node in ast.walk(self.tree):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        names.add(node.attr)
                    elif isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        names.add(node.name)
            self._referenced = frozenset(names)
        return self._referenced

    def finding(
        self, node: ast.AST, rule: str, message: str
    ) -> Finding:
        """A :class:`Finding` at ``node``'s location in this module."""
        return Finding(
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )


@dataclass
class ProjectContext:
    """Every module of one lint run."""

    modules: list[ModuleContext]

    @property
    def has_tests(self) -> bool:
        return any(m.is_test for m in self.modules)

    def test_modules(self) -> list[ModuleContext]:
        return [m for m in self.modules if m.is_test]


def discover_files(paths: list[str]) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files or directories).

    Deterministic: results are sorted; ``__pycache__`` and hidden
    directories are skipped.  A path that does not exist is a usage
    error, not a finding.
    """
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            files.add(path)
        elif path.is_dir():
            for found in path.rglob("*.py"):
                parts = found.parts
                if any(
                    p == "__pycache__" or p.startswith(".")
                    for p in parts
                ):
                    continue
                files.add(found)
        else:
            raise LintUsageError(f"no such file or directory: {raw!r}")
    return sorted(files)


def load_module(path: Path, root: Path) -> ModuleContext:
    """Parse one file into a :class:`ModuleContext`.

    A file that does not parse still produces a context — with no
    tree and one ``RPR000`` problem — so a syntax error surfaces as a
    finding instead of crashing the run.
    """
    try:
        relpath = PurePosixPath(
            path.resolve().relative_to(root.resolve())
        ).as_posix()
    except ValueError:
        relpath = path.as_posix()
    source = path.read_text(encoding="utf-8")
    problems: list[Finding] = []
    try:
        tree: ast.Module | None = ast.parse(source)
    except SyntaxError as exc:
        tree = None
        problems.append(
            Finding(
                path=relpath,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule=ENGINE_RULE,
                message=f"syntax error: {exc.msg}",
            )
        )
    suppressions, bad = scan_suppressions(source)
    problems.extend(
        Finding(
            path=relpath, line=line, col=0,
            rule=ENGINE_RULE, message=message,
        )
        for line, message in bad
    )
    return ModuleContext(
        relpath=relpath,
        source=source,
        tree=tree,
        suppressions=suppressions,
        problems=problems,
    )
