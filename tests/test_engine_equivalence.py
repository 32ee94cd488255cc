"""Event-order oracle and logged-delivery bit-identity.

The determinism contract of the event core, pinned at two levels:

* **trace level** — a Hypothesis property interprets random programs
  mixing fire-and-forget and cancellable entries (with in-callback
  scheduling of both and cancellation, bounded and ``max_events`` runs,
  and cancel bursts that force compactions) against the engine and
  against :class:`SortedListOracle`, the contract stated the slow way,
  and demands identical traces, clocks and engine counters;
* **experiment level** — client deliveries are logged and completed in
  stable arrival order instead of being simulator events; every
  deterministic output must be bit-identical to one event per delivery
  (``tests/per_delivery_oracle.py``) under any fault plan, and a tracer
  must observe without changing the schedule.

Engine edge cases (ties, cancellation, compaction) live in
``tests/test_sim.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from functools import partial
from operator import attrgetter

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import CellSpec, run_spec
from repro.obs import recorder as obs
from repro.pubsub.network import PubSubNetwork
from repro.pubsub.tracing import MessageTracer
from repro.sim.engine import COMPACT_MIN_CANCELLED, SimulationError, Simulator
from repro.sim.faults import FaultPlan
from repro.workloads.scenarios import cluster_homogeneous

from per_delivery_oracle import (
    PerDeliveryNetwork,
    networks_built,
    small_churn_online,
)
from test_parallel_equivalence import comparable, tiny_homo


# ----------------------------------------------------------------------
# Trace-level property: random programs execute in (time, seq) order
# ----------------------------------------------------------------------


class _OracleEntry:
    def __init__(self, oracle, time, seq, fn, args):
        self.key = (time, seq)
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.queued = True
        self._oracle = oracle

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        if self.queued:
            self._oracle.cancelled_pending += 1


class SortedListOracle:
    """Every queued entry in one list; take the smallest (time, seq).

    The engine's contract stated the slow way, bookkeeping included: an
    entry run at the same time as the one before it in the same ``run``
    call is *batched*; a cancelled entry stays queued (and counted)
    until it comes up or a compaction drops it; a compaction happens
    just before an entry at a new time is taken, once at least
    ``COMPACT_MIN_CANCELLED`` cancelled entries are queued and they are
    half the queue or more.
    """

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.batched_events = 0
        self.heap_compactions = 0
        self.cancelled_pending = 0
        self._seq = itertools.count()
        self._queue = []

    @property
    def pending(self):
        return len(self._queue)

    def _push(self, time, fn, args):
        entry = _OracleEntry(self, time, next(self._seq), fn, args)
        self._queue.append(entry)
        return entry

    def schedule(self, delay, callback):
        return self._push(self.now + delay, callback, ())

    def call_at(self, time, fn, *args):
        self._push(time, fn, args)

    def _head(self):
        return min(self._queue, key=attrgetter("key"))

    def run(self, until=None, max_events=None):
        executed = 0
        last = None  # time of the last entry run by this call
        while self._queue:
            head = self._head()
            if head.key[0] != last:
                cancelled = self.cancelled_pending
                if (cancelled >= COMPACT_MIN_CANCELLED
                        and 2 * cancelled >= len(self._queue)):
                    for entry in self._queue:
                        entry.queued = not entry.cancelled
                    self._queue = [e for e in self._queue if not e.cancelled]
                    self.cancelled_pending = 0
                    self.heap_compactions += 1
                    continue
                if until is not None and head.key[0] > until:
                    break
            self._queue.remove(head)
            head.queued = False
            if head.cancelled:
                self.cancelled_pending -= 1
                continue
            if head.key[0] == last:
                self.batched_events += 1
            self.now = last = head.key[0]
            head.fn(*head.args)
            self.events_processed += 1
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        if (until is not None and self.now < until
                and (not self._queue or self._head().key[0] > until)):
            self.now = until


#: A burst queues far-future entries and cancels this many of them
#: (bursts of 80 and 140 straddle the half-the-queue compaction bound).
_BURST_CANCELS = 70


def run_program(sim, program):
    """Interpret a schedule/call/cancel/run program, returning its trace.

    Callback behavior is a pure function of the entry's tag, so engine
    and oracle see the same in-callback scheduling of both forms
    (including zero-delay ties landing inside the batch being drained)
    and the same in-callback cancellations, of events queued or already
    run.
    """
    trace = []
    events = []  # every cancellable handle, fired or not

    def fire(tag):
        trace.append((repr(sim.now), tag))
        if tag % 3 == 0:
            delay = (tag % 4) * 0.25
            if tag % 2:
                events.append(sim.schedule(delay, partial(fire, tag + 1000)))
            else:
                sim.call_at(sim.now + delay, fire, tag + 1000)
        if tag % 5 == 0 and events:
            events[tag % len(events)].cancel()

    tag = 1
    for offsets, cancels, run_for, max_events, burst in program:
        for offset, cancellable in offsets:
            if cancellable:
                events.append(sim.schedule(offset, partial(fire, tag)))
            else:
                sim.call_at(sim.now + offset, fire, tag)
            tag += 1
        for index in range(burst):
            event = sim.schedule(40.0 + index, partial(fire, tag))
            tag += 1
            if index < _BURST_CANCELS:
                event.cancel()
        for index in cancels:
            if events:
                events[index % len(events)].cancel()
        sim.run(until=sim.now + run_for, max_events=max_events)
    sim.run()
    counters = (sim.events_processed, sim.batched_events, sim.heap_compactions,
                sim.cancelled_pending, sim.pending)
    return trace, repr(sim.now), counters


#: Coarse time grid with duplicates so tie groups are common, plus a
#: far-future value well past every bounded run.
_OFFSETS = st.sampled_from(
    [0.0, 0.0, 0.1, 0.25, 0.25, 0.5, 1.0, 1.0, 1.75, 3.0, 40.0]
)

_SEGMENTS = st.lists(
    st.tuples(
        st.lists(st.tuples(_OFFSETS, st.booleans()), min_size=1, max_size=8),
        st.lists(st.integers(0, 63), max_size=3),
        st.sampled_from([0.25, 0.5, 1.0, 2.5]),
        st.sampled_from([None, None, None, 1, 3]),
        st.sampled_from([0, 0, 0, 80, 140]),
    ),
    min_size=1,
    max_size=6,
)

#: Every feature at once: ties of both forms, a burst that compacts, a
#: max_events stop inside a tie group, cancels of run and queued events.
_EVERYTHING = [
    ([(0.0, True), (0.0, False), (0.25, True), (0.25, False), (1.0, True)],
     [0, 2], 0.5, None, 80),
    ([(0.0, False), (0.0, True), (0.0, True)], [1, 5, 7], 1.0, 2, 0),
    ([(0.1, True), (3.0, False)], [], 2.5, None, 140),
    ([(0.5, False)], [3], 1.0, None, 0),
]


@settings(max_examples=80)
@example(program=_EVERYTHING)
@given(program=_SEGMENTS)
def test_prop_engine_matches_sorted_list_oracle(program):
    sim = Simulator()
    result = run_program(sim, program)
    assert result == run_program(SortedListOracle(), program)
    assert sim.pending == 0
    assert sim.cancelled_pending == 0
    if program is _EVERYTHING:
        assert sim.heap_compactions and sim.batched_events
    # The fire-and-forget form refuses the past like the cancellable one.
    with pytest.raises(SimulationError):
        sim.call_at(sim.now - 0.25, print)
    assert sim.pending == 0


# ----------------------------------------------------------------------
# Experiment-level bit-identity of logged delivery
# ----------------------------------------------------------------------


def _assert_same_run(logged, oracle):
    """Two networks that ran the same program ended in the same state.

    Delay sums are compared with ``==``: completing the log in stable
    arrival order must add the delays in the order the heap would have.
    """
    assert logged.sim.now == oracle.sim.now
    assert logged.metrics._delay_sum == oracle.metrics._delay_sum
    for client_id, subscriber in logged.subscribers.items():
        assert subscriber.history == oracle.subscribers[client_id].history, client_id
    if logged.faults is not None:
        assert logged.faults.drops == oracle.faults.drops
        assert (logged.faults._transit_rng.random()
                == oracle.faults._transit_rng.random())
    # One event fewer per completed or still-travelling delivery.
    delivered = sum(s.delivered for s in logged.subscribers.values())
    assert (oracle.sim.events_processed + oracle.sim.pending
            - logged.sim.events_processed - logged.sim.pending
            == delivered + logged.deliveries_in_flight)
    for network in (logged, oracle):
        assert network.watch.checked, "conservation never checked"


#: Eight 30 kB/s brokers, 160 subscriptions: enough load that fan-outs
#: of different brokers interleave and output queues build up; on the
#: tiny cell of the other suites a log completed in append order passes
#: by accident.
LOADED = cluster_homogeneous(40, scale=0.1, broker_bandwidth_kbps=30,
                             profile_capacity=96, measurement_time=6.0)


def _cell(network_class, approach, seed=11, scenario=LOADED, **kwargs):
    with networks_built(network_class, keep_history=True) as built:
        result = run_spec(CellSpec(scenario=scenario, approach=approach,
                                   seed=seed, **kwargs))
    return result, built[0]


@settings(max_examples=15)
@given(
    loss_rate=st.sampled_from([0.0, 0.01, 0.05]),
    # 0.05 s of jitter exceeds one 0.5 kB serialization (about 17 ms at
    # 30 kB/s), so arrivals cross between consecutive fan-outs of one
    # broker: draining per fan-out gets those wrong, a global stable
    # sort gets them right.
    jitter=st.sampled_from([0.0, 0.001, 0.05]),
    crash_fraction=st.sampled_from([0.0, 0.25]),
    approach=st.sampled_from(["manual", "binpacking", "cram-ios"]),
    seed=st.integers(0, 999),
)
def test_prop_logged_delivery_equals_one_event_per_delivery(
        loss_rate, jitter, crash_fraction, approach, seed):
    plan = FaultPlan(crash_fraction=crash_fraction, crash_start=4.0, downtime=5.0,
                     loss_rate=loss_rate, jitter=jitter, seed=5)
    result, logged = _cell(PubSubNetwork, approach, seed, fault_plan=plan)
    expected, oracle = _cell(PerDeliveryNetwork, approach, seed, fault_plan=plan)
    assert result.summary == expected.summary  # field by field, floats by ==
    assert result.baseline_summary == expected.baseline_summary
    assert comparable(result) == comparable(expected)
    _assert_same_run(logged, oracle)


#: ``LOADED`` / ``cram-ios`` under one fault at a time: plan -> seed ->
#: digest of everything :func:`comparable` covers bar ``CramStats``'
#: ``kernel_*`` diagnostics.  Recorded at ``c92a17e``; ``loss_rate``
#: seed 2 and ``jitter`` seed 1 were re-pinned once, on top of
#: ``cbcaf9b``, when each gather became one alignment.  Those two gathers
#: had vectors ahead of their publisher's report (and, under loss, a
#: publisher in no report), so their profiles, plan and rows moved.  The
#: other four gathered nothing stale and hold their values.
#: ``CramStats.returned_iteration`` and ``merges_past_best`` came later
#: and are left out of the digest, so every recorded digest holds
#: (tests/test_cram_path_pins.py pins both on its own pools).  All six
#: were re-pinned once more when ``CramStats`` lost the two always-zero
#: counters of the deleted shard allocator; putting them back as zeros
#: reproduces every previous digest.
FAULT_PLAN_ROWS = {
    "loss_rate": (0.05, {1: "8804e8f81924e77c", 2: "354c28da79a044d5"}),
    "jitter": (0.05, {1: "1709ff7d9f88ca41", 2: "8bbb01b9ecbc70d1"}),
    "crash_fraction": (0.25, {1: "1ad4eca344ba38eb", 2: "a4a4aeab3592a61c"}),
}


@pytest.mark.parametrize("fault", sorted(FAULT_PLAN_ROWS))
def test_fault_plan_rows_are_pinned(fault):
    """Under loss, jitter or crashes every gathered pool packs, and the
    rows are the pinned ones."""
    level, pinned = FAULT_PLAN_ROWS[fault]
    for seed, digest in pinned.items():
        plan = FaultPlan(crash_start=4.0, downtime=5.0, seed=5, **{fault: level})
        with obs.attached(obs.Recorder()) as recorder:
            result = run_spec(CellSpec(scenario=LOADED, approach="cram-ios",
                                       seed=seed, fault_plan=plan))
        record = comparable(result)
        record["cram_stats"] = {
            name: value
            for name, value in dataclasses.asdict(result.cram_stats).items()
            if not name.startswith("kernel_")
            and name not in ("returned_iteration", "merges_past_best")
        }
        text = json.dumps(record, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, seed
        assert recorder.counters["cram.closeness_evaluations"] > 0, seed


def test_continuous_churn_equals_one_event_per_delivery():
    reports, logged, _ = small_churn_online(PubSubNetwork)
    expected, oracle, _ = small_churn_online(PerDeliveryNetwork)
    assert [r.summary for r in reports] == [r.summary for r in expected]
    assert [r.as_row() for r in reports] == [r.as_row() for r in expected]
    assert sum(r.summary.delivery_count for r in reports) > 1000
    _assert_same_run(logged, oracle)


class TestTracerIsAPureObserver:
    def _traced(self, network_class, tracer):
        with networks_built(network_class, tracer=tracer) as built:
            result = run_spec(CellSpec(scenario=tiny_homo()[0],
                                       approach="cram-ios", seed=11))
        return result, built[0]

    def test_tracer_changes_no_event_and_no_row(self):
        bare, bare_network = self._traced(PubSubNetwork, None)
        tracer = MessageTracer()
        traced, traced_network = self._traced(PubSubNetwork, tracer)
        assert (traced_network.sim.events_processed
                == bare_network.sim.events_processed)
        assert comparable(traced) == comparable(bare)
        assert tracer.dropped == 0

    def test_routes_equal_the_per_delivery_schedule(self):
        tracer, expected = MessageTracer(), MessageTracer()
        self._traced(PubSubNetwork, tracer)
        self._traced(PerDeliveryNetwork, expected)
        publications = sorted({(e.adv_id, e.message_id) for e in expected.events})
        assert len(publications) > 100
        assert sum(expected.delivery_count(*key) for key in publications) > 100
        # The same events, recorded in a different order (deliveries
        # when they complete) ...
        by_time = attrgetter("time", "kind", "where", "adv_id", "message_id")
        assert tracer.events != expected.events
        assert sorted(tracer.events, key=by_time) == sorted(expected.events, key=by_time)
        # ... so the queries, which scan every event, agree.
        for key in publications[::7]:
            assert tracer.route(*key) == expected.route(*key), key
            assert tracer.delivery_count(*key) == expected.delivery_count(*key)
