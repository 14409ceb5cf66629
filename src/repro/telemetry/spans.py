"""Causal span tracing for the replication write path.

A :class:`Span` is one timed operation; spans form trees via
``parent_id`` and forests via ``trace_id``.  The canonical trace in
this system follows one host write end-to-end:

    host-write (main array, root)
      └─ journal-append           (entry enters the main journal)
      …entry rides a transfer-batch span (own root, batch-scoped)…
      └─ restore-apply            (backup array applies the entry)

``restore-apply`` is parented to the *originating* ``host-write`` span
— the trace context travels with the
:class:`~repro.storage.journal.JournalEntry` — so recovery-point lag
(RPO), per-stage latency and consistency-group apply order can all be
derived from spans alone.  Entries created by initial copy or resync
are parented to ``initial-copy``/``resync`` spans instead, keeping the
"every restore-apply has a causal parent" invariant total.

The tracer integrates with the kernel
:class:`~repro.simulation.trace.TraceLog` (when the simulator was
built with ``trace=True``) by logging a ``span`` action on every
finish; it never replaces the flat action log.

Span IDs come from a deterministic counter, not randomness or wall
clocks, so traces are reproducible run-to-run like everything else in
the simulation.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple


@dataclass(slots=True)
class Span:
    """One timed, attributed operation in a causal trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start: float
    end: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    status: str = "ok"

    @property
    def duration(self) -> float:
        """Span duration in (simulated) seconds; raises if unfinished."""
        if self.end is None:
            raise ValueError(f"span {self.name!r} [{self.span_id}] "
                             f"has not finished")
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set(self, **attrs: object) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        end = f"{self.end:g}" if self.end is not None else "…"
        return (f"<Span {self.name} [{self.span_id}] "
                f"trace={self.trace_id} {self.start:g}→{end}>")


class _NullSpan(Span):
    """The shared no-op span handed out while tracing is disabled.

    Carries ``None`` ids so trace context propagated from it (e.g. into
    a journal entry) stays empty, and swallows attribute updates so the
    singleton never accumulates state.
    """

    __slots__ = ()

    def set(self, **attrs: object) -> "Span":
        return self


#: singleton returned by :meth:`Tracer.start` when ``enabled`` is False;
#: :meth:`Tracer.finish` treats it as a no-op, so call sites need no
#: ``if tracing`` guards (though hot loops may add them to skip building
#: the attribute kwargs at all)
NULL_SPAN = _NullSpan(name="tracing-disabled", trace_id=None,  # type: ignore[arg-type]
                      span_id=None, parent_id=None, start=0.0)  # type: ignore[arg-type]


class Tracer:
    """Creates, stores, and queries spans for one simulation.

    Storage is ring-capped (default 250k spans) so unbounded workloads
    cannot exhaust memory: the oldest span is evicted in O(1) and the
    drop count stays visible in :attr:`dropped`.  IDs are sequential
    (``t0001``/``s000001``) — deterministic across runs for a given
    event order.
    """

    def __init__(self, clock: Callable[[], float],
                 max_spans: int = 250_000,
                 on_finish: Optional[Callable[[Span], None]] = None,
                 ) -> None:
        self._clock = clock
        self.on_finish = on_finish
        #: master switch: when False, :meth:`start` returns the shared
        #: :data:`NULL_SPAN` and :meth:`finish` no-ops — zero span
        #: objects are allocated on the hot path
        self.enabled = True
        self.spans: Deque[Span] = deque(maxlen=max_spans)
        self.dropped = 0
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    # -- span lifecycle ------------------------------------------------------

    def start(self, name: str, parent: Optional[Span] = None,
              trace_id: Optional[str] = None,
              parent_id: Optional[str] = None,
              **attrs: object) -> Span:
        """Open a span.

        Causality can be given either as a live ``parent`` span or as
        raw ``trace_id``/``parent_id`` strings (the form that travels
        inside a :class:`~repro.storage.journal.JournalEntry` across
        the site-to-site hop).  With neither, the span roots a new
        trace.  The span keeps ``attrs``, the call's own fresh kwargs
        dict, without a copy.
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif trace_id is None:
            trace_id = f"t{next(self._trace_ids):04d}"
            parent_id = None
        # positional: (name, trace_id, span_id, parent_id, start, end,
        # attrs) — cheaper than keywords at ~22 spans per order
        span = Span(name, trace_id, f"s{next(self._span_ids):06d}",
                    parent_id, self._clock(), None, attrs)
        spans = self.spans
        if len(spans) == spans.maxlen:
            self.dropped += 1  # the append below evicts the oldest
        spans.append(span)
        return span

    def finish(self, span: Span, status: str = "ok",
               **attrs: object) -> Span:
        """Close a span at the current clock; returns it."""
        if span is NULL_SPAN:
            return span
        if span.end is not None:
            raise ValueError(f"span {span.name!r} [{span.span_id}] "
                             f"finished twice")
        span.end = self._clock()
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        if self.on_finish is not None:
            self.on_finish(span)
        return span

    def event(self, name: str, parent: Optional[Span] = None,
              trace_id: Optional[str] = None,
              parent_id: Optional[str] = None,
              **attrs: object) -> Span:
        """A zero-duration span (instantaneous event)."""
        span = self.start(name, parent=parent, trace_id=trace_id,
                          parent_id=parent_id, **attrs)
        return self.finish(span)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def by_id(self, span_id: str) -> Optional[Span]:
        """The stored span with this id, or None (may have been evicted).

        A linear scan: lookups are rare queries (the write path never
        makes one), so no per-span index is kept.
        """
        for span in self.spans:
            if span.span_id == span_id:
                return span
        return None

    def named(self, name: str) -> List[Span]:
        """All stored spans with this name, in creation order."""
        return [span for span in self.spans if span.name == name]

    def trace(self, trace_id: str) -> List[Span]:
        """All stored spans of one trace, in creation order."""
        return [span for span in self.spans if span.trace_id == trace_id]

    def children(self, span: Span) -> List[Span]:
        """Direct children of ``span`` among stored spans."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> Iterator[Span]:
        """Spans with no parent, in creation order."""
        return (span for span in self.spans if span.parent_id is None)

    def as_dicts(self) -> List[dict]:
        """All stored spans as JSON-serialisable dicts."""
        return [span.as_dict() for span in self.spans]

    def render_json(self) -> str:
        """All stored spans as a JSON array."""
        return json.dumps(self.as_dicts(), indent=2)


@dataclass(frozen=True)
class StageStats:
    """Aggregate duration stats for one span name."""

    name: str
    count: int
    mean: float
    maximum: float


def stage_breakdown(tracer: Tracer) -> List[StageStats]:
    """Per-span-name duration statistics over finished spans.

    Batch spans carrying a ``writes`` attribute (``host-write-batch``,
    batched ``journal-append``) weigh in as that many units: ``count``
    then lines up with ``repro_host_writes_total`` rather than with the
    number of batches, and ``mean`` is the write-weighted mean (the
    latency an average *write* experienced).  ``maximum`` stays the
    longest single span either way.
    """
    grouped: Dict[str, List[Tuple[float, int]]] = {}
    for span in tracer.spans:
        if span.finished:
            writes = span.attrs.get("writes")
            weight = writes if isinstance(writes, int) and writes > 0 \
                else 1
            grouped.setdefault(span.name, []).append(
                (span.duration, weight))
    out = []
    for name in sorted(grouped):
        entries = grouped[name]
        count = sum(weight for _duration, weight in entries)
        weighted = sum(duration * weight
                       for duration, weight in entries)
        out.append(StageStats(
            name=name, count=count, mean=weighted / count,
            maximum=max(duration for duration, _weight in entries)))
    return out


def chrome_trace(tracer: Tracer) -> dict:
    """Finished spans in Chrome/Perfetto trace-event format.

    Load the result (JSON-serialised) in ``chrome://tracing`` or
    https://ui.perfetto.dev.  Each trace renders as one "thread" (tid =
    trace id) of complete ``ph: "X"`` events; timestamps convert from
    simulated seconds to microseconds, the format's native unit.
    """
    events = []
    for span in tracer.spans:
        if not span.finished:
            continue
        args = {str(key): value for key, value in sorted(span.attrs.items())}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": span.status,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": span.trace_id,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


@dataclass(frozen=True)
class LagReport:
    """Replication lag derived purely from spans (§IV RPO analysis).

    ``worst_lag`` is the maximum over applied writes of
    (restore-apply end − host-write end): how far behind the backup
    image trailed the acked state.  ``unapplied`` counts host writes
    whose data never reached the backup volume (still in a journal, or
    the pair had no restore target) — after a clean drain it is 0 and
    ``worst_lag`` alone bounds the RPO.
    """

    applied: int
    unapplied: int
    worst_lag: float
    mean_lag: float


def replication_lag_report(tracer: Tracer) -> LagReport:
    """Derive replication lag by joining restore-apply to host-write.

    Batched ingest (``host-write-batch`` spans) joins the same way —
    one unit per batch, lagged to the *latest* restore apply of its
    trace, since a batch acks all of its writes at one instant.
    """
    applied_traces: Dict[str, float] = {}
    for span in tracer.named("restore-apply"):
        if span.finished:
            prev = applied_traces.get(span.trace_id)
            if prev is None or span.end > prev:
                applied_traces[span.trace_id] = span.end
    lags: List[float] = []
    unapplied = 0
    for host_write in (tracer.named("host-write")
                       + tracer.named("host-write-batch")):
        if not host_write.finished:
            continue
        applied_at = applied_traces.get(host_write.trace_id)
        if applied_at is None:
            unapplied += 1
        else:
            lags.append(max(0.0, applied_at - host_write.end))
    if not lags:
        return LagReport(applied=0, unapplied=unapplied,
                         worst_lag=0.0, mean_lag=0.0)
    return LagReport(applied=len(lags), unapplied=unapplied,
                     worst_lag=max(lags),
                     mean_lag=sum(lags) / len(lags))
