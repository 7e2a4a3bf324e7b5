"""Spans around the program's layer entry points, recorded from outside.

The benchmark does not change ``src/repro``: a :class:`Tracer` replaces a
layer's public entry points (a class attribute or the name a caller module
imported) with wrappers that record a span — name, start, end, parent span,
request id and block — and restores the originals when it is closed.  Spans
are held in memory and written out when the run ends.

A layer's self time is its span durations minus the time covered by its
child spans; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

#: Span fields, in the order each span list stores them.
FIELDS = ("name", "start", "end", "parent", "request", "block")
NAME, START, END, PARENT, REQUEST, BLOCK = range(len(FIELDS))

#: ``block`` of spans recorded outside the measured blocks (the offline build).
SETUP_BLOCK = -1


class Tracer:
    """Records spans while ``enabled``; a disabled wrapper only forwards the call."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.enabled = False
        self.request = -1
        self.block = SETUP_BLOCK
        self.counters: Dict[int, Counter] = defaultdict(Counter)
        self.samples: Dict[int, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------------
    def begin(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.request, self.block]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        observe: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attribute``.

        ``observe(tracer, args, result)`` runs after the call, outside the span.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if observe is not None:
                observe(tracer, args, result)
            return result

        self._patch(owner, attribute, original, traced)

    def count(self, owner: object, attribute: str, name: str) -> None:
        """Count calls of ``owner.attribute`` and the rows they return, without a span.

        Used for per-row index probes, where a span per call would cost more
        than the call itself.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            if tracer.enabled:
                counters = tracer.counters[tracer.block]
                counters[f"{name}.calls"] += 1
                counters[f"{name}.rows"] += len(result)
            return result

        self._patch(owner, attribute, original, counted)

    def note(self, name: str, value: float) -> None:
        """Record one observed value (e.g. a plan's tariff share) in the current block."""
        self.samples[self.block][name].append(value)

    def _patch(self, owner, attribute, original, replacement) -> None:
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def close(self) -> None:
        """Restore every wrapped entry point."""
        self.enabled = False
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reduction ---------------------------------------------------------------
    def self_times(self, blocks: Iterable[int]) -> Dict[str, float]:
        """Total self time per span name over the spans of ``blocks``."""
        wanted = set(blocks)
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span[BLOCK] in wanted:
                duration = span[END] - span[START]
                totals[span[NAME]] += duration
                if span[PARENT] >= 0:
                    totals[self.spans[span[PARENT]][NAME]] -= duration
        return dict(totals)

    def durations(self, name: str, blocks: Iterable[int]) -> float:
        wanted = set(blocks)
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name and s[BLOCK] in wanted)

    def calls(self, blocks: Iterable[int]) -> Counter:
        wanted = set(blocks)
        return Counter(span[NAME] for span in self.spans if span[BLOCK] in wanted)

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def wrap_build_layers(tracer: Tracer) -> None:
    """Spans on the offline build: access-schema builder, indexes, KD-trees."""
    from repro.access.builder import AccessSchemaBuilder
    from repro.access.index import ConstraintIndex, TemplateIndex
    from repro.relational.kdtree import KDTree

    for method in ("build_constraint", "build_family", "build_canonical"):
        tracer.wrap(AccessSchemaBuilder, method, "access.builder")
    tracer.wrap(TemplateIndex, "__init__", "access.template_index")
    tracer.wrap(ConstraintIndex, "__init__", "access.constraint_index")
    tracer.wrap(KDTree, "__init__", "access.kdtree_build")
    tracer.wrap(KDTree, "resolution", "access.resolution")


def _note_plan(tracer: Tracer, args: tuple, plan) -> None:
    tracer.note("plan.tariff_share", plan.tariff / plan.budget if plan.budget else 0.0)


def wrap_answer_layers(tracer: Tracer) -> None:
    """Spans on the online path: parse, plan, fetch, evaluate, η refinement, exact."""
    from repro.access.index import ConstraintIndex, TemplateIndex
    from repro.core import framework
    from repro.core.executor import PlanExecutor

    # Beas calls these through the names its module imported.
    tracer.wrap(framework, "parse_query", "parse")
    for planner in ("plan_spc", "plan_ra", "plan_aggregate"):
        tracer.wrap(framework, planner, "plan", observe=_note_plan)
    tracer.wrap(framework, "refine_bound_with_induced", "eta")
    tracer.wrap(framework.Beas, "answer_exact", "exact")
    tracer.wrap(PlanExecutor, "fetch", "fetch")
    tracer.wrap(PlanExecutor, "evaluate", "evaluate")
    tracer.count(TemplateIndex, "fetch", "fetch.index")
    tracer.count(ConstraintIndex, "fetch", "fetch.index")
