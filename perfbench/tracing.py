"""Spans recorded from outside the program, around each stage call.

No file under ``src/`` knows about these spans.  The benchmark compiles a
:class:`~repro.core.plan.PipelinePlan` whose stage factories wrap every
stage in a :class:`SpanStage`; executors take that plan like any other.
A span is ``(name, start, end, parent)``.  The parent is the current root:
an increment for SEQ and the multiprocess runner, the entity itself for
PP (whose stages run on many threads at once).

A wrapper keeps ``inner`` and delegates attribute reads, the same contract
as the program's own ``InstrumentedStage``: the multiprocess executor
unwraps stages through ``inner`` to fold worker-side counters back, and
reads ``cg.generated`` / ``lm.materialized`` through the wrappers.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from collections.abc import Callable, Iterable
from time import perf_counter

from repro.core.plan import PipelinePlan


def entity_key(message):
    """The entity a stage message belongs to (input entity or profile)."""
    eid = getattr(message, "eid", None)
    return eid if eid is not None else message.profile.eid


def prefiltered_count(comparisons, threshold: float) -> int:
    """Pairs the interned kernel's Jaccard length prefilter never scores.

    The same division-form test as ``InternedComparator.compare_batch``: a
    pair is skipped when ``min(|a|, |b|) / max(|a|, |b|) < threshold``;
    two empty sets are always scored.
    """
    skipped = 0
    for c in comparisons:
        a, b = c.left.token_ids, c.right.token_ids
        if a is None or b is None:
            a, b = c.left.tokens, c.right.tokens
        la, lb = len(a), len(b)
        if la > lb:
            la, lb = lb, la
        if lb and la / lb < threshold:
            skipped += 1
    return skipped


class SpanRecorder:
    """In-memory span store of one executor run; written out at the end."""

    def __init__(self, prefilter_threshold: float | None = None) -> None:
        self.spans: list[tuple[str, float, float, object]] = []
        self.roots: list[tuple[object, float, float]] = []
        #: The open root span (SEQ/MP); ``None`` makes the entity the parent.
        self.root: object = None
        #: When set, ``co`` calls also count prefiltered pairs (outside the
        #: span, so the count adds to root self time, not to ``co``).
        self.prefilter_threshold = prefilter_threshold
        self.prefiltered = 0
        self.examined = 0

    def open_root(self, root_id: object) -> float:
        self.root = root_id
        return perf_counter()

    def close_root(self, start: float) -> None:
        self.roots.append((self.root, start, perf_counter()))
        self.root = None

    def record(self, name: str, start: float, end: float, message) -> None:
        parent = self.root if self.root is not None else entity_key(message)
        self.spans.append((name, start, end, parent))
        if name == "co" and self.prefilter_threshold is not None:
            self.examined += len(message.comparisons)
            self.prefiltered += prefiltered_count(
                message.comparisons, self.prefilter_threshold
            )

    # -- analysis -------------------------------------------------------

    def busy(self) -> dict[str, float]:
        """Summed span duration per stage name."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def root_self(self) -> float:
        """Σ over roots of duration minus the time their children cover."""
        children: dict[object, list[tuple[float, float]]] = defaultdict(list)
        for _, start, end, parent in self.spans:
            children[parent].append((start, end))
        total = 0.0
        for root_id, start, end in self.roots:
            total += (end - start) - covered(children.get(root_id, ()), start, end)
        return total


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanStage:
    """A stage callable that records one span per call."""

    __slots__ = ("inner", "name", "_recorder")

    def __init__(self, name: str, inner: Callable, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.name = name
        self._recorder = recorder

    def __call__(self, message):
        start = perf_counter()
        out = self.inner(message)
        self._recorder.record(self.name, start, perf_counter(), message)
        return out

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


class CompletionStamp:
    """Outermost ``cl`` wrapper: stamps each entity's completion instant."""

    __slots__ = ("inner", "done")

    def __init__(self, inner: Callable, done: dict) -> None:
        self.inner = inner
        self.done = done

    def __call__(self, message):
        out = self.inner(message)
        self.done[message.profile.eid] = perf_counter()
        return out

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


def traced_plan(
    config, recorder: SpanRecorder | None, done: dict | None = None
) -> PipelinePlan:
    """The config's plan with span wrappers (when ``recorder``) and a ``cl``
    completion stamp (when ``done``) around the stages its factories build."""

    def wrap(name: str, stage: Callable) -> Callable:
        if recorder is not None:
            stage = SpanStage(name, stage, recorder)
        if done is not None and name == "cl":
            stage = CompletionStamp(stage, done)
        return stage

    def rewrap(spec):
        def factory(cfg, backend, _make=spec.factory, _name=spec.name):
            return wrap(_name, _make(cfg, backend))

        return dataclasses.replace(spec, factory=factory)

    plan = PipelinePlan.from_config(config)
    return dataclasses.replace(plan, specs=tuple(rewrap(s) for s in plan.specs))
