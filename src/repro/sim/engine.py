"""A minimal, deterministic discrete-event simulation engine.

The engine is a priority queue of timestamped callbacks: a binary heap
of ``(time, sequence, fn, args)`` tuples (``heapq``).  Ties are broken
by insertion order, which keeps runs bit-for-bit reproducible
regardless of hash randomization or dict ordering quirks.

Entries come in two forms that share the heap, the sequence counter,
the run loop and the compaction:

* **fire-and-forget** — :meth:`Simulator.call_at` queues
  ``(time, seq, fn, args)`` and returns nothing; the loop calls
  ``fn(*args)``.  No :class:`Event` and no closure is built, which is
  what every message hop uses (a hop is never cancelled).
* **cancellable** — :meth:`Simulator.schedule` / :meth:`schedule_at`
  queue ``(time, seq, event, None)`` and return the :class:`Event`, for
  the timers that may be called off (publisher ticks, BIR deadlines).
  ``args is None`` is how the loop tells the two apart.

Two fast paths keep the event loop cheap at scale without changing the
execution order:

* **Same-timestamp batching** — once an event fires, every further
  event sharing its timestamp is drained in one inner loop that skips
  the ``until``-bound re-check and the clock write (clustered arrivals
  are the common case under fixed link latency).
* **Cancelled-event compaction** — cancellations are O(1) flag flips,
  but each cancelled event still costs a queue pop later.  The engine
  counts cancellations still queued and rebuilds the queue without
  them once they dominate, so cancel-heavy workloads (BIR aggregation
  timers, retry deadlines) stop paying per-corpse pops.  Events
  dropped by a rebuild have their ``Event._sim`` back-reference
  cleared so a late ``cancel()`` cannot skew the cancellation count.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
>>> sim.call_at(1.0, fired.append, "hop")
>>> sim.run()
>>> fired
['hop', 5.0]
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

#: Compaction threshold: rebuild the queue once at least this many
#: cancelled events linger in it *and* they make up half the queue.
#: The floor keeps tiny queues from compacting constantly; the ratio
#: keeps compaction amortized O(1) per cancellation.
COMPACT_MIN_CANCELLED = 64


class SimulationError(Exception):
    """Raised when the engine is used inconsistently."""


class Event:
    """A scheduled, cancellable callback.

    Events are returned by :meth:`Simulator.schedule` and can be
    cancelled before they fire.  A cancelled event stays queued but is
    skipped when popped, which keeps cancellation O(1); the owning
    simulator counts still-queued cancellations so it can compact the
    queue when they pile up.
    """

    __slots__ = ("time", "callback", "cancelled", "_sim")

    def __init__(self, time: float, callback: Callable[[], None],
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.callback = callback
        self.cancelled = False
        #: Owning simulator while the event is queued; cleared when the
        #: event leaves the queue (popped, or dropped by a compaction)
        #: so late cancels don't skew the count.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, {state})"


class Simulator:
    """Virtual-time event loop over a binary heap.

    Parameters
    ----------
    start_time:
        Initial value of the clock.  Experiments usually start at 0.
    """

    __slots__ = (
        "_now",
        "_sequence",
        "_running",
        "_events_processed",
        "_cancelled_in_heap",
        "_batched_events",
        "_compactions",
        "_heap",
    )

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        self._sequence = itertools.count()
        self._running = False
        self._events_processed = 0
        self._cancelled_in_heap = 0
        self._batched_events = 0
        self._compactions = 0
        #: ``(time, seq, fn, args)``; a cancellable entry carries its
        #: :class:`Event` as ``fn`` and ``None`` as ``args``.
        self._heap: List[Tuple[float, int, Any, Optional[tuple]]] = []

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (skips cancelled events)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (cancelled events included
        until the next compaction removes them)."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying queue slots."""
        return self._cancelled_in_heap

    @property
    def batched_events(self) -> int:
        """Events executed by the same-timestamp batch fast path."""
        return self._batched_events

    @property
    def heap_compactions(self) -> int:
        """Times the cancelled-event compaction rebuilt the queue."""
        return self._compactions

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute virtual time; cancellable."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        event = Event(time, callback, self)
        heapq.heappush(self._heap, (time, next(self._sequence), event, None))
        return event

    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at an absolute virtual time; not cancellable.

        The fire-and-forget form: it takes the same ``(time, sequence)``
        slot :meth:`schedule_at` would, without building an
        :class:`Event` or a closure.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        heapq.heappush(self._heap, (time, next(self._sequence), fn, args))

    def _note_cancelled(self) -> None:
        """Record one more cancelled-but-queued event (see :meth:`Event.cancel`)."""
        self._cancelled_in_heap += 1

    def _maybe_compact(self) -> None:
        """Drop cancelled events once they dominate the heap.

        Rebuilding filters corpses — clearing each one's ``_sim``
        back-reference as it is dropped — and re-heapifies in place;
        the (time, sequence) total order is untouched, so pop order —
        and therefore every simulation outcome — is exactly preserved.
        """
        cancelled = self._cancelled_in_heap
        if cancelled < COMPACT_MIN_CANCELLED or 2 * cancelled < len(self._heap):
            return
        heap = self._heap
        live = []
        for entry in heap:
            if entry[3] is None and entry[2].cancelled:
                entry[2]._sim = None
            else:
                live.append(entry)
        heap[:] = live
        heapq.heapify(heap)
        self._cancelled_in_heap = 0
        self._compactions += 1

    def drain(self) -> None:
        """Run until the queue is completely empty."""
        self.run()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in timestamp order.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  Events scheduled
            exactly at ``until`` are executed.  The clock is advanced to
            ``until`` when nothing is left to run by then (the queue
            drained, or its next event lies past ``until``), so repeated
            ``run(until=...)`` calls tile time contiguously; a run that
            ``max_events`` cut short leaves the clock at its last event.
        max_events:
            Safety valve for tests; stop after this many callbacks.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        processed = self._events_processed
        batched = self._batched_events
        limit = until if until is not None else float("inf")
        # ``processed`` never reaches -1, so no max_events means no stop;
        # a max_events below 1 still runs one event.
        stop_at = processed + max(max_events, 1) if max_events is not None else -1
        try:
            while heap:
                if self._cancelled_in_heap >= COMPACT_MIN_CANCELLED:
                    self._maybe_compact()
                    if not heap:
                        break
                time, _seq, fn, args = heap[0]
                if time > limit:
                    break
                pop(heap)
                if args is None:  # a cancellable Event
                    if fn.cancelled:
                        self._cancelled_in_heap -= 1
                        fn._sim = None
                        continue
                    fn._sim = None
                    self._now = time
                    fn.callback()
                else:
                    self._now = time
                    fn(*args)
                processed += 1
                if processed == stop_at:
                    break
                # Same-timestamp batch: ties are within any until-bound
                # by construction, so drain them without re-checking it
                # or rewriting the clock.  Ties scheduled *by* a batched
                # callback carry a later sequence number and are reached
                # by this same loop, preserving insertion order.
                while heap and heap[0][0] == time:
                    _time, _seq, fn, args = pop(heap)
                    if args is None:
                        if fn.cancelled:
                            self._cancelled_in_heap -= 1
                            fn._sim = None
                            continue
                        fn._sim = None
                        fn.callback()
                    else:
                        fn(*args)
                    processed += 1
                    batched += 1
                    if processed == stop_at:
                        break
                else:
                    continue
                break  # max_events hit inside the batch loop
        finally:
            self._events_processed = processed
            self._batched_events = batched
            self._running = False
        if until is not None and self._now < until and (not heap or heap[0][0] > until):
            self._now = until
