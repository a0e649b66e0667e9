"""Spans recorded around the benchmark's own calls into the program.

A span has a name (``<layer>.<call>``), an optional tag, a start, an end,
its parent span and a phase identifier shared by every span of one phase
of a repetition (``setup``, ``timed``, ``diagnostics``).  Spans stay in
memory; the parent process writes them out when the run ends.

A disabled tracer records nothing, so the untraced runs that supply the
end-to-end metrics pay one no-op context manager per wrapped call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    """Records one span per wrapped call while enabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict[str, object]] = []
        self._stack: list[int] = []
        self._phase = ""

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Open a root span ``bench.<name>``; nested spans share its id."""
        previous = self._phase
        self._phase = name
        try:
            with self.span(f"bench.{name}"):
                yield
        finally:
            self._phase = previous

    @contextmanager
    def span(self, name: str, tag: str = "") -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record: dict[str, object] = {
            "id": index,
            "parent": self._stack[-1] if self._stack else None,
            "phase": self._phase,
            "name": name,
            "tag": tag,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def named(
        self, name: str, tag: str | None = None
    ) -> list[dict[str, object]]:
        """The spans called ``name`` (with ``tag``, when given)."""
        return [
            s
            for s in self.spans
            if s["name"] == name and (tag is None or s["tag"] == tag)
        ]

    def total_s(self, name: str, tag: str | None = None) -> float:
        return sum(duration(s) for s in self.named(name, tag))

    def count(self, name: str, tag: str | None = None) -> int:
        return len(self.named(name, tag))


def duration(span: dict[str, object]) -> float:
    return float(span["end"]) - float(span["start"])  # type: ignore[arg-type]


def self_times(
    spans: list[dict[str, object]], phase: str | None = None
) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's.

    The wrapped calls run one after another on one thread, so children
    never overlap and lie inside their parent.  Restricted to ``phase``
    when given; the root span of a phase belongs to the ``bench`` layer
    and its self time is the benchmark's own glue between calls.
    """
    chosen = [s for s in spans if phase is None or s["phase"] == phase]
    child_s: dict[object, float] = {}
    for s in chosen:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + duration(s)
    out: dict[str, float] = {}
    for s in chosen:
        layer = str(s["name"]).split(".", 1)[0]
        own = duration(s) - child_s.get(s["id"], 0.0)
        out[layer] = out.get(layer, 0.0) + own
    return out
