"""In-memory spans for the traced run.

Spans come only from the benchmark's own files: explicit `span()`
blocks around the calls this benchmark makes into each layer, and
wrappers that `instrumented()` installs, for the length of the traced
run, on the public functions one layer calls in the next (a campaign
calling inference, generation, batches and launches).  Nothing inside
the program changes.  Spans stay in memory; `write()` stores them when
the run ends, and `fold()` turns them into a per-layer self-time table:
a span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from dataclasses import dataclass

# The span the current thread or asyncio task is inside; a context
# variable keeps concurrent serve connections from adopting each
# other's spans as parents.
_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    label: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, label: str = ""):
        span_id = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        begun = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(
                Span(span_id, parent, name, begun, ended, label)
            )

    def wrap(self, fn, name: str, label=None):
        """`fn` recording one span per call; `label(*args)` names the
        call's subject (e.g. the system a campaign runs on)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, label(*args) if label else ""):
                return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {
                        "id": s.span_id,
                        "parent": s.parent_id,
                        "name": s.name,
                        "label": s.label,
                        "start": s.start,
                        "end": s.end,
                    }
                    for s in self.spans
                ],
                handle,
            )


class NullTracer:
    """The untraced run: spans cost one attribute lookup and a call."""

    enabled = False
    _NULL = contextlib.nullcontext()

    def span(self, name: str, label: str = ""):
        return self._NULL


@dataclass
class LayerRow:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def fold(spans: list[Span]) -> dict[str, LayerRow]:
    """Per-layer self-time table: one row per span name."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.duration
            )
    table: dict[str, LayerRow] = {}
    for span in spans:
        row = table.setdefault(span.name, LayerRow())
        row.calls += 1
        row.total_s += span.duration
        row.self_s += span.duration - child_time.get(span.span_id, 0.0)
    return table


def format_table(table: dict[str, LayerRow]) -> list[str]:
    lines = [f"{'layer':<22} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
    for name, row in sorted(
        table.items(), key=lambda item: -item[1].self_s
    ):
        lines.append(
            f"{name:<22} {row.calls:>8} {row.total_s:>10.4f} "
            f"{row.self_s:>10.4f}"
        )
    return lines


def _system_of(obj, *_args) -> str:
    return obj.system.name


def _layer_calls():
    """(owner, attribute, span name, label) for every call one layer
    makes into the next that the traced run records."""
    from repro.checker import compile as checker_compile
    from repro.checker import fleet
    from repro.inject.campaign import Campaign
    from repro.inject.harness import InjectionHarness

    return [
        (Campaign, "run", "campaign.run", _system_of),
        (Campaign, "run_spex", "core.infer", _system_of),
        (Campaign, "generate", "inject.generate", _system_of),
        (InjectionHarness, "test_batch", "inject.test_batch", None),
        (InjectionHarness, "launch", "runtime.launch", None),
        (checker_compile, "checker_for_system", "checker.compile", None),
        (fleet, "ground_truth_agreement", "fleet.agreement", None),
    ]


@contextlib.contextmanager
def instrumented(tracer):
    """Install the layer wrappers for the block (no-op when untraced).

    A module-level function is replaced in every `repro` module that
    imported it by name, so calls from any layer are seen."""
    if not tracer.enabled:
        yield
        return
    restore: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name, label in _layer_calls():
            original = getattr(owner, attr)
            wrapped = tracer.wrap(original, name, label)
            if inspect.isclass(owner):
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                if getattr(module, attr, None) is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
