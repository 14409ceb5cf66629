"""Scheduling-order guarantees of the typed-entry / now-queue kernel.

The kernel overhaul replaced per-event closures with typed queue
entries and routed zero-delay work through a FIFO now-queue.  The
contract is that none of this is *observable*: every program fires in
exactly the order the original heap-only kernel produced.  These tests
pin that contract:

* a hypothesis property test replays interleaved streams of
  ``timeout(0)``, ``call_after(0, ...)``, event-succeed callbacks and
  positive-delay timeouts against an embedded reference implementation
  of the old heap-only scheduler;
* ``sim.sleep`` (the Timeout-free fast path) resumes at the same
  instant as ``yield sim.timeout`` and produces identical histories
  while no wake-up ties with other work at its instant; at a tie the
  order can differ, and pinned tests record where it does and where
  it does not;
* ``run_until_complete(timeout=...)`` advances the clock to the
  deadline before raising, so repeated calls tile simulated time;
* cancelled ``call_at`` tombstones are invisible: excluded from
  ``pending_events``/``peek`` and unable to mask a real deadlock or
  advance the clock.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimTimeError
from repro.simulation import Simulator

# ---------------------------------------------------------------------------
# reference implementation: the pre-overhaul heap-only scheduler
# ---------------------------------------------------------------------------


class _RefKernel:
    """The old kernel's scheduling semantics, minimally.

    One heap of ``(when, seq, thunk)`` — every scheduling action,
    including zero-delay callback delivery, pushes a closure with the
    next global sequence number and the loop pops in ``(when, seq)``
    order.  This is what ``Simulator`` did before the typed-entry /
    now-queue overhaul, and remains the ordering oracle.
    """

    def __init__(self):
        self.now = 0.0
        self._queue = []
        self._sequence = itertools.count()

    def push(self, delay, thunk):
        heapq.heappush(self._queue,
                       (self.now + delay, next(self._sequence), thunk))

    def run(self):
        while self._queue:
            when, _seq, thunk = heapq.heappop(self._queue)
            self.now = when
            thunk()


class _RefEvent:
    """Old-kernel event: succeed schedules each callback at delay 0."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.fired = False
        self.callbacks = []

    def add_callback(self, callback):
        if self.fired:
            self.kernel.push(0.0, lambda: callback(self))
        else:
            self.callbacks.append(callback)

    def succeed(self):
        assert not self.fired
        self.fired = True
        for callback in self.callbacks:
            self.kernel.push(0.0, lambda cb=callback: cb(self))


class _RefAdapter:
    """Drives the reference kernel through the shared program shape."""

    def __init__(self):
        self.kernel = _RefKernel()

    def timeout_cb(self, delay, fn):
        event = _RefEvent(self.kernel)
        event.add_callback(fn)
        self.kernel.push(delay, event.succeed)

    def call_after(self, delay, fn):
        self.kernel.push(delay, fn)

    def event_succeed_after(self, delay, fn):
        event = _RefEvent(self.kernel)
        event.add_callback(fn)
        self.kernel.push(delay, event.succeed)
        return event

    def run(self):
        self.kernel.run()

    @property
    def now(self):
        return self.kernel.now


class _RealAdapter:
    """Drives the production kernel through the shared program shape."""

    def __init__(self):
        self.sim = Simulator(seed=1)

    def timeout_cb(self, delay, fn):
        self.sim.timeout(delay).add_callback(fn)

    def call_after(self, delay, fn):
        self.sim.call_after(delay, fn)

    def event_succeed_after(self, delay, fn):
        event = self.sim.event()
        event.add_callback(fn)
        self.sim.call_after(delay, lambda: event.succeed())
        return event

    def run(self):
        self.sim.run()

    @property
    def now(self):
        return self.sim.now


# op kinds: what each scheduled cell does when built
_TIMEOUT_CB, _CALL_AFTER, _EVENT_SUCCEED = range(3)

#: delays are drawn from a tiny grid so same-instant ties are the rule,
#: not the exception — ties are exactly where heap-vs-now-queue order
#: could diverge
_DELAYS = st.sampled_from([0.0, 0.0, 0.001, 0.002])

_OP = st.tuples(st.integers(min_value=0, max_value=2), _DELAYS)

#: each op may carry child ops scheduled from inside its callback —
#: that is the case where the now-queue holds work while the heap has
#: entries due at the same instant
_PROGRAM = st.lists(
    st.tuples(_OP, st.lists(_OP, max_size=3)), min_size=1, max_size=12)


def _build(adapter, program):
    """Schedule ``program`` on ``adapter``; returns the firing log."""
    order = []
    counter = itertools.count()

    def schedule(op, children):
        kind, delay = op
        label = next(counter)

        def fired(*_args):
            order.append((label, adapter.now))
            for child in children:
                schedule(child, [])

        if kind == _TIMEOUT_CB:
            adapter.timeout_cb(delay, fired)
        elif kind == _CALL_AFTER:
            adapter.call_after(delay, fired)
        else:
            adapter.event_succeed_after(delay, fired)

    for op, children in program:
        schedule(op, children)
    return order


class TestHeapOnlyEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(program=_PROGRAM)
    def test_fires_in_heap_only_kernel_order(self, program):
        real = _RealAdapter()
        real_order = _build(real, program)
        real.run()

        reference = _RefAdapter()
        ref_order = _build(reference, program)
        reference.run()

        assert real_order == ref_order

    def test_nowq_yields_to_older_heap_entry_at_same_instant(self):
        # a call_at sitting in the heap, due now, with an older seq
        # must fire before a younger now-queue entry — the exact
        # interleave rule the run loop implements
        sim = Simulator(seed=1)
        order = []
        sim.call_after(0.001, lambda: order.append("heap-older"))

        def proc(sim):
            yield sim.timeout(0.001)
            order.append("process")

        sim.spawn(proc(sim))
        sim.run()
        assert order == ["heap-older", "process"]


class TestSleepVsTimeout:
    @staticmethod
    def _history(use_sleep, seed=11, processes=3, steps=25):
        sim = Simulator(seed=seed)
        history = []

        def pacer(sim, index):
            stream = f"pacer-{index}"
            for step in range(steps):
                delay = sim.rng.jitter(stream, 0.002 * (index + 1), 0.5)
                if use_sleep:
                    yield sim.sleep(delay)
                else:
                    yield sim.timeout(delay)
                history.append((index, step, round(sim.now, 12)))

        for index in range(processes):
            sim.spawn(pacer(sim, index), name=f"pacer-{index}")
        sim.run()
        return history, sim.now

    def test_sleep_history_identical_to_timeout(self):
        timeout_history, timeout_end = self._history(use_sleep=False)
        sleep_history, sleep_end = self._history(use_sleep=True)
        assert sleep_history == timeout_history
        assert sleep_end == timeout_end

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_sleep_equivalence_across_seeds(self, seed):
        timeout_history, _ = self._history(use_sleep=False, seed=seed,
                                           processes=2, steps=10)
        sleep_history, _ = self._history(use_sleep=True, seed=seed,
                                         processes=2, steps=10)
        assert sleep_history == timeout_history

    # The jittered histories above never tie.  At a tie the two waits
    # are not interchangeable: a timeout resumes its process in two
    # hops (the Timeout fires, then its callback resumes the process
    # through the now-queue), a sleep in one (the entry resumes the
    # process directly).  Work queued between the two hops runs before
    # a timeout's process and after a sleep's.

    @staticmethod
    def _wait(sim, use_sleep, delay):
        return sim.sleep(delay) if use_sleep else sim.timeout(delay)

    def _two_waiters(self, use_sleep):
        """A and B both wait 1.0 s; A then yields an event that has
        already succeeded (a zero-delay resume)."""
        sim = Simulator(seed=1)
        order = []
        ready = sim.event()
        ready.succeed()

        def a(sim):
            yield self._wait(sim, use_sleep, 1.0)
            order.append("A-wake")
            yield ready
            order.append("A-after-zero")

        def b(sim):
            yield self._wait(sim, use_sleep, 1.0)
            order.append("B-wake")

        sim.spawn(a(sim), name="A")
        sim.spawn(b(sim), name="B")
        sim.run()
        return order

    def test_tie_between_waiters_keeps_timeout_order(self):
        # every wait due at the instant is older than the zero-delay
        # work the first waker queues, so both waits give one order
        expected = ["A-wake", "B-wake", "A-after-zero"]
        assert self._two_waiters(use_sleep=False) == expected
        assert self._two_waiters(use_sleep=True) == expected

    def _wait_then_callback(self, use_sleep):
        """A waits 1.0 s; a ``call_at`` due at the same instant is
        queued after A's wait."""
        sim = Simulator(seed=1)
        order = []

        def a(sim):
            yield self._wait(sim, use_sleep, 1.0)
            order.append("A-wake")

        sim.spawn(a(sim), name="A")
        sim.run(until=0.5)
        sim.call_at(1.0, lambda: order.append("callback"))
        sim.run()
        return order

    def test_tie_with_callback_differs(self):
        # the timeout's resume hop is queued after the callback fires
        assert self._wait_then_callback(use_sleep=False) == [
            "callback", "A-wake"]
        assert self._wait_then_callback(use_sleep=True) == [
            "A-wake", "callback"]

    def _zero_waits(self, use_sleep):
        """A waits 0 s; B, spawned after it, yields an event that has
        already succeeded."""
        sim = Simulator(seed=1)
        order = []
        ready = sim.event()
        ready.succeed()

        def a(sim):
            yield self._wait(sim, use_sleep, 0.0)
            order.append("A")

        def b(sim):
            yield ready
            order.append("B")

        sim.spawn(a(sim), name="A")
        sim.spawn(b(sim), name="B")
        sim.run()
        return order

    def test_zero_delay_tie_differs(self):
        # B's resume is queued between timeout(0)'s two hops
        assert self._zero_waits(use_sleep=False) == ["B", "A"]
        assert self._zero_waits(use_sleep=True) == ["A", "B"]

    def test_negative_sleep_raises(self):
        sim = Simulator(seed=1)
        with pytest.raises(SimTimeError):
            sim.sleep(-0.1)


class TestRunUntilCompleteTiling:
    def test_timeout_advances_clock_to_deadline(self):
        sim = Simulator(seed=1)

        def proc(sim):
            yield sim.timeout(100.0)

        with pytest.raises(SimTimeError):
            sim.run_until_complete(sim.spawn(proc(sim)), timeout=1.0)
        assert sim.now == 1.0

    def test_repeated_timeouts_tile_time(self):
        # the regression: before the fix the clock stuck at the last
        # *event* time, so back-to-back timeouts measured from a stale
        # now and the deadlines drifted earlier than wall of the caller
        sim = Simulator(seed=1)

        def proc(sim):
            yield sim.timeout(100.0)

        process = sim.spawn(proc(sim))
        for expected in (1.0, 2.5, 3.5):
            with pytest.raises(SimTimeError):
                sim.run_until_complete(
                    process, timeout=expected - sim.now)
            assert sim.now == expected
        # the same tiling run(until=...) guarantees
        assert sim.run(until=4.0) == 4.0


class TestCancelledTombstones:
    def test_pending_events_excludes_cancelled(self):
        sim = Simulator(seed=1)
        keep = sim.call_after(1.0, lambda: None)
        drop = sim.call_after(2.0, lambda: None)
        assert sim.pending_events == 2
        drop.cancel()
        assert sim.pending_events == 1
        drop.cancel()  # idempotent: counted exactly once
        assert sim.pending_events == 1
        keep.cancel()
        assert sim.pending_events == 0

    def test_peek_skips_cancelled_head(self):
        sim = Simulator(seed=1)
        first = sim.call_after(1.0, lambda: None)
        sim.call_after(2.0, lambda: None)
        assert sim.peek() == 1.0
        first.cancel()
        assert sim.peek() == 2.0

    def test_cancelled_handle_does_not_mask_deadlock(self):
        # the satellite's motivating bug: a cancelled handle used to
        # count as pending work, so run_until_complete span forever
        # (or mis-reported) instead of raising DeadlockError
        sim = Simulator(seed=1)
        handle = sim.call_after(5.0, lambda: None)
        handle.cancel()

        def waits_forever(sim):
            yield sim.event()

        with pytest.raises(DeadlockError):
            sim.run_until_complete(sim.spawn(waits_forever(sim)))

    def test_dropping_tombstone_does_not_advance_clock(self):
        sim = Simulator(seed=1)
        handle = sim.call_after(10.0, lambda: None)
        sim.call_after(2.0, lambda: None)
        handle.cancel()
        sim.run()
        assert sim.now == 2.0
