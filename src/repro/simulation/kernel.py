"""The discrete-event simulator kernel.

:class:`Simulator` owns the virtual clock and the event queue.  All other
subsystems (storage array, container platform, databases, operators) run
as generator processes inside one simulator, which makes every experiment
deterministic and repeatable for a given seed.

Typical usage::

    sim = Simulator(seed=7)

    def hello(sim):
        yield sim.timeout(1.5)
        return "done at %.1f" % sim.now

    proc = sim.spawn(hello(sim), name="hello")
    sim.run()
    assert sim.now == 1.5 and proc.result == "done at 1.5"

Scheduling internals (see docs/performance.md, "Kernel scheduling"):
queue entries are typed ``(when, seq, kind, a, b)`` tuples dispatched by
a switch in :meth:`Simulator.run` — no per-event closure allocation —
and zero-delay work (event callbacks, process resumes, ``timeout(0)``)
bypasses the heap through a FIFO *now-queue*.  A single sequence counter
spans both structures, so firing order at any timestamp is exactly the
scheduling order the heap-only kernel produced.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from collections import deque
from typing import Callable, Iterable, Optional

from repro.errors import DeadlockError, ProcessError, SimTimeError
from repro.simulation.events import (KIND_CALL, KIND_CALLBACK, KIND_RESUME,
                                     KIND_SLEEP, KIND_TIMEOUT, PENDING,
                                     SUCCEEDED, AllOf, AnyOf, CallbackHandle,
                                     Event, SleepRequest, Timeout)
from repro.simulation.process import Process, ProcessGenerator
from repro.simulation.rng import RngRegistry
from repro.simulation.trace import TraceLog
from repro.telemetry import Telemetry

# short aliases for the typed queue-entry kinds (events.py is the
# single source of truth); ``run`` dispatches on these small ints
# instead of calling a per-event closure — closure allocation used to
# dominate the scheduling hot path
_TIMEOUT = KIND_TIMEOUT    # a = Event to succeed, b = success value
_CALLBACK = KIND_CALLBACK  # a = callable, b = Event passed as argument
_RESUME = KIND_RESUME      # a = Process, b = fired Event (or None)
_CALL = KIND_CALL          # a = CallbackHandle from call_at, b unused
_SLEEP = KIND_SLEEP        # a = Process, b = sleep token


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the named RNG streams (see :class:`RngRegistry`).
        Two simulators with the same seed and the same program produce
        identical histories.
    trace:
        When true, record a :class:`TraceLog` of scheduling activity
        (useful in tests and debugging; off by default for speed).
    """

    def __init__(self, seed: int = 0, trace: bool = False) -> None:
        self._now = 0.0
        #: time-ordered heap of (when, seq, kind, a, b) entries
        self._queue: list = []
        #: FIFO of (seq, kind, a, b) entries due at the current instant
        self._nowq: deque = deque()
        self._sequence = itertools.count()
        #: cancelled call_at handles still sitting in the heap; they are
        #: dropped lazily at pop and excluded from pending_events/peek
        self._cancelled_pending = 0
        self.rng = RngRegistry(seed)
        self.trace = TraceLog(self) if trace else None
        #: per-simulation observability context (metrics + spans); see
        #: :mod:`repro.telemetry`
        self.telemetry = Telemetry(clock=lambda: self._now,
                                   trace_log=self.trace)
        #: When true (default) a process whose generator raises stores the
        #: exception on its termination event instead of crashing ``run``.
        self.capture_process_errors = True
        self._stopped = False

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction ----------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event owned by this simulator."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None,
                name: str = "") -> Timeout:
        """Event that fires ``delay`` seconds from now with ``value``."""
        return Timeout(self, delay, value=value, name=name)

    def sleep(self, delay: float) -> SleepRequest:
        """Plain pause: resume the yielding process after ``delay``.

        The fast-path sibling of ``yield sim.timeout(delay)`` for the
        (overwhelmingly common) wait that nobody else observes: the
        kernel schedules the process resume directly, without
        materialising a :class:`Timeout` event object.  The resume fires
        at exactly the instant the equivalent timeout would have, but
        one hop sooner: a timeout fires and then resumes its process
        through the now-queue, a sleep resumes it directly.  So when
        other work is due at the same instant the order can differ —
        a ``call_at`` queued after a ``timeout(1.0)`` and due with it
        runs before the woken process, and after a ``sleep(1.0)``'s
        (``tests/simulation/test_scheduling_order.py`` pins the tie
        cases).  Use :meth:`timeout` when the wait needs a value, a
        name, combination via ``all_of``/``any_of``, or the timeout
        order at ties; use ``sleep`` for pure pacing.
        """
        if delay < 0:
            raise SimTimeError(f"negative sleep delay: {delay}")
        return SleepRequest(delay)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` fired successfully."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fired successfully."""
        return AnyOf(self, events)

    # -- processes ---------------------------------------------------------

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from ``generator`` at the current time."""
        process = Process(self, generator, name=name)
        if self.trace is not None:
            self.trace.record("spawn", process=process.name)
        self._nowq.append((next(self._sequence), _RESUME, process, None))
        return process

    # -- direct scheduling ---------------------------------------------------

    def call_at(self, when: float, fn: Callable[[], None]) -> CallbackHandle:
        """Run ``fn()`` at absolute simulated time ``when``.

        Returns a handle whose ``cancel()`` prevents execution.
        """
        if when < self._now:
            raise SimTimeError(
                f"cannot schedule at {when:g}, now is {self._now:g}")
        handle = CallbackHandle(fn, self)
        heappush(self._queue,
                       (when, next(self._sequence), _CALL, handle, None))
        return handle

    def call_after(self, delay: float,
                   fn: Callable[[], None]) -> CallbackHandle:
        """Run ``fn()`` after ``delay`` seconds."""
        if delay < 0:
            raise SimTimeError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, fn)

    # -- run loop --------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulation time at exit.  With ``until`` set, the
        clock is advanced to exactly ``until`` even if the last event
        fired earlier (so repeated ``run(until=...)`` calls tile time).
        """
        if until is not None and until < self._now:
            raise SimTimeError(
                f"cannot run until {until:g}, now is {self._now:g}")
        self._stopped = False
        nowq = self._nowq
        heap = self._queue
        pop = heappop
        popleft = nowq.popleft
        append = nowq.append
        sequence = self._sequence
        # loop-local kind constants: the dispatch below runs once per
        # queue entry and global loads are measurable at that rate
        TIMEOUT, CALLBACK, RESUME, SLEEP, CALL = \
            _TIMEOUT, _CALLBACK, _RESUME, _SLEEP, _CALL
        while not self._stopped:
            if nowq:
                # a heap entry already due at this instant fires first
                # when it carries the older sequence number — exactly
                # the order the heap-only kernel produced
                if heap and heap[0][0] <= self._now \
                        and heap[0][1] < nowq[0][0]:
                    _when, _seq, kind, a, b = pop(heap)
                    if kind == CALL and a.cancelled:
                        self._cancelled_pending -= 1
                        continue
                else:
                    _seq, kind, a, b = popleft()
            elif heap:
                when = heap[0][0]
                if until is not None and when > until:
                    break
                _when, _seq, kind, a, b = pop(heap)
                if kind == CALL and a.cancelled:
                    # lazy tombstone drop: the clock does not advance to
                    # a cancelled callback's instant
                    self._cancelled_pending -= 1
                    continue
                self._now = when
            else:
                break
            if kind == TIMEOUT:
                # inlined Event.succeed (timeouts dominate the queue)
                if a._state != PENDING:
                    raise ProcessError(f"{a!r} already triggered")
                a._state = SUCCEEDED
                a._value = b
                callbacks = a._callbacks
                if callbacks:
                    a._callbacks = None
                    for callback in callbacks:
                        append((next(sequence), CALLBACK, callback, a))
            elif kind == CALLBACK:
                a(b)
            elif kind == RESUME:
                a._step(b)
            elif kind == SLEEP:
                if a._sleep_token == b:
                    a._step(None)
            else:  # CALL
                a._sim = None
                fn = a.fn
                if fn is not None:
                    fn()
        if until is not None and not self._stopped:
            self._now = max(self._now, until)
        return self._now

    def run_until_complete(self, process: Process,
                           timeout: Optional[float] = None) -> object:
        """Run until ``process`` terminates and return its result.

        Raises :class:`DeadlockError` if the event queue drains first,
        or :class:`SimTimeError` if ``timeout`` simulated seconds pass —
        in which case the clock is advanced to the deadline first, so
        repeated calls tile time the same way ``run(until=...)`` does.
        """
        deadline = None if timeout is None else self._now + timeout
        nowq = self._nowq
        heap = self._queue
        pop = heappop
        popleft = nowq.popleft
        append = nowq.append
        sequence = self._sequence
        TIMEOUT, CALLBACK, RESUME, SLEEP, CALL = \
            _TIMEOUT, _CALLBACK, _RESUME, _SLEEP, _CALL
        terminated = process._terminated
        while terminated._state == PENDING:
            # purge cancelled call_at tombstones up front so they can
            # neither mask a real deadlock nor stretch the deadline
            while heap and heap[0][2] == CALL and heap[0][3].cancelled:
                pop(heap)
                self._cancelled_pending -= 1
            if nowq:
                if heap and heap[0][0] <= self._now \
                        and heap[0][1] < nowq[0][0]:
                    _when, _seq, kind, a, b = pop(heap)
                    if kind == CALL and a.cancelled:
                        self._cancelled_pending -= 1
                        continue
                else:
                    _seq, kind, a, b = popleft()
            elif heap:
                when = heap[0][0]
                if deadline is not None and when > deadline:
                    self._now = deadline
                    raise SimTimeError(
                        f"{process!r} did not finish within {timeout:g}s")
                _when, _seq, kind, a, b = pop(heap)
                if kind == CALL and a.cancelled:
                    self._cancelled_pending -= 1
                    continue
                self._now = when
            else:
                raise DeadlockError(
                    f"event queue drained while {process!r} still waiting")
            if kind == TIMEOUT:
                # inlined Event.succeed (timeouts dominate the queue)
                if a._state != PENDING:
                    raise ProcessError(f"{a!r} already triggered")
                a._state = SUCCEEDED
                a._value = b
                callbacks = a._callbacks
                if callbacks:
                    a._callbacks = None
                    for callback in callbacks:
                        append((next(sequence), CALLBACK, callback, a))
            elif kind == CALLBACK:
                a(b)
            elif kind == RESUME:
                a._step(b)
            elif kind == SLEEP:
                if a._sleep_token == b:
                    a._step(None)
            else:  # CALL
                a._sim = None
                fn = a.fn
                if fn is not None:
                    fn()
        return process.result

    def stop(self) -> None:
        """Make the current ``run()`` call return after this event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of scheduled-but-unprocessed queue entries.

        Cancelled :meth:`call_at` handles still sitting in the heap are
        *excluded* — a cancelled callback is not pending work and must
        not mask a drained queue (see ``run_until_complete``'s deadlock
        detection).
        """
        return (len(self._queue) + len(self._nowq)
                - self._cancelled_pending)

    def peek(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty.

        Skips (and drops) cancelled ``call_at`` tombstones, so the
        returned instant is one at which something will actually run.
        """
        if self._nowq:
            return self._now
        heap = self._queue
        while heap:
            head = heap[0]
            if head[2] == _CALL and head[3].cancelled:
                heappop(heap)
                self._cancelled_pending -= 1
                continue
            return head[0]
        return None

    # -- kernel internals (used by Event/Process) -----------------------------

    def _schedule_timeout(self, event: Event, delay: float,
                          value: object) -> None:
        if delay == 0.0:
            self._nowq.append(
                (next(self._sequence), _TIMEOUT, event, value))
        else:
            heappush(
                self._queue,
                (self._now + delay, next(self._sequence), _TIMEOUT,
                 event, value))

    def _schedule_callback(self, event: Event,
                           callback: Callable[[Event], None]) -> None:
        self._nowq.append((next(self._sequence), _CALLBACK, callback, event))

    def _schedule_resume(self, process: Process,
                         fired: Optional[Event]) -> None:
        self._nowq.append((next(self._sequence), _RESUME, process, fired))

    def _schedule_sleep(self, delay: float, process: Process,
                        token: int) -> None:
        if delay == 0.0:
            self._nowq.append((next(self._sequence), _SLEEP, process, token))
        else:
            heappush(
                self._queue,
                (self._now + delay, next(self._sequence), _SLEEP,
                 process, token))

    def __repr__(self) -> str:
        return (f"<Simulator now={self._now:g} "
                f"pending={self.pending_events}>")
