"""Event-order oracle and batched-delivery bit-identity.

The determinism contract of the event core, pinned at two levels:

* **trace level** — a Hypothesis property interprets random
  schedule/cancel/run programs (with in-callback scheduling and
  cancellation) against the engine and against
  :class:`SortedListOracle`, the contract stated the slow way, and
  demands identical traces, clocks and executed-event counts;
* **experiment level** — batched client delivery must leave every
  deterministic output bit-identical to the per-destination schedule.
  The network picks between the two from what it can observe; a
  tracer is one of the observables that switches batching off, so
  attaching one that stores nothing runs the per-destination side.

Engine edge cases (ties, cancellation, compaction) live in
``tests/test_sim.py``.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import CellSpec, run_spec
from repro.experiments.runner import ExperimentRunner
from repro.pubsub.network import PubSubNetwork
from repro.pubsub.tracing import MessageTracer
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan

from test_parallel_equivalence import comparable, tiny_homo


# ----------------------------------------------------------------------
# Trace-level property: random programs execute in (time, seq) order
# ----------------------------------------------------------------------


class _OracleEvent:
    def __init__(self, time, seq, callback):
        self.key = (time, seq)
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class SortedListOracle:
    """Every pending event in one list; run the smallest (time, seq)."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._seq = itertools.count()
        self._queue = []

    def schedule(self, delay, callback):
        event = _OracleEvent(self.now + delay, next(self._seq), callback)
        self._queue.append(event)
        return event

    def run(self, until=None):
        while True:
            live = sorted((e for e in self._queue if not e.cancelled),
                          key=lambda e: e.key)
            if not live or (until is not None and live[0].key[0] > until):
                break
            self._queue.remove(live[0])
            self.now = live[0].key[0]
            live[0].callback()
            self.events_processed += 1
        if until is not None and self.now < until:
            self.now = until


def run_program(sim, program):
    """Interpret a schedule/cancel/run program, returning its trace.

    Callback behavior is a pure function of the event's tag, so engine
    and oracle see the same in-callback scheduling (including
    zero-delay ties landing inside the batch being drained) and the
    same in-callback cancellations.
    """
    trace = []
    events = []

    def make_cb(tag):
        def cb():
            trace.append((repr(sim.now), tag))
            if tag % 3 == 0:
                events.append(sim.schedule((tag % 4) * 0.25, make_cb(tag + 1000)))
            if tag % 5 == 0 and events:
                events[tag % len(events)].cancel()

        return cb

    tag = 1
    for offsets, cancels, run_for in program:
        for offset in offsets:
            events.append(sim.schedule(offset, make_cb(tag)))
            tag += 1
        for index in cancels:
            events[index % len(events)].cancel()
        sim.run(until=sim.now + run_for)
    sim.run()
    return trace, repr(sim.now), sim.events_processed


#: Coarse time grid with duplicates so tie groups are common, plus a
#: far-future value well past every bounded run.
_OFFSETS = st.sampled_from(
    [0.0, 0.0, 0.1, 0.25, 0.25, 0.5, 1.0, 1.0, 1.75, 3.0, 40.0]
)

_SEGMENTS = st.lists(
    st.tuples(
        st.lists(_OFFSETS, min_size=1, max_size=8),
        st.lists(st.integers(0, 63), max_size=3),
        st.sampled_from([0.25, 0.5, 1.0, 2.5]),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=80)
@given(program=_SEGMENTS)
def test_prop_engine_matches_sorted_list_oracle(program):
    sim = Simulator()
    assert run_program(sim, program) == run_program(SortedListOracle(), program)
    assert sim.pending == 0
    assert sim.cancelled_pending == 0


# ----------------------------------------------------------------------
# Experiment-level bit-identity of batched delivery
# ----------------------------------------------------------------------

FAULT_PLAN = FaultPlan(
    crash_fraction=0.25, crash_start=4.0, downtime=5.0,
    loss_rate=0.01, jitter=0.001, seed=5,
)


def _cell(approach, **kwargs):
    return run_spec(
        CellSpec(scenario=tiny_homo()[0], approach=approach, seed=11, **kwargs)
    )


class TestDeliveryBatchingEquivalence:
    def _per_destination(self, monkeypatch, approach):
        """The cell with a store-nothing tracer on its network."""
        build = ExperimentRunner._build_network

        def traced(runner):
            network = build(runner)
            network.tracer = MessageTracer(limit=0)
            return network

        with monkeypatch.context() as patch:
            patch.setattr(ExperimentRunner, "_build_network", traced)
            return _cell(approach)

    def test_batched_rows_identical_to_per_destination(self, monkeypatch):
        for approach in ("manual", "cram-ios"):
            off = self._per_destination(monkeypatch, approach)
            on = _cell(approach)
            assert comparable(off) == comparable(on), approach

    def test_tracer_disables_batching(self, monkeypatch):
        called = []
        monkeypatch.setattr(
            PubSubNetwork, "deliver_fanout",
            lambda self, *args: called.append(args),
        )
        self._per_destination(monkeypatch, "manual")
        assert not called

    def test_batching_actually_engages(self, monkeypatch):
        fanouts = []
        original = PubSubNetwork.deliver_fanout

        def spy(self, sender_broker, message, sends):
            fanouts.append(len(sends))
            return original(self, sender_broker, message, sends)

        monkeypatch.setattr(PubSubNetwork, "deliver_fanout", spy)
        _cell("cram-ios")
        assert fanouts, "batched path never taken"
        assert max(fanouts) > 1, "no multi-destination batch exercised"

    def test_lossy_fault_plan_disables_batching(self, monkeypatch):
        """Loss/jitter must flow through the per-destination fault path
        so the injector's RNG stream is consumed per delivery."""
        called = []
        original = PubSubNetwork.deliver_fanout
        monkeypatch.setattr(
            PubSubNetwork, "deliver_fanout",
            lambda self, *args: called.append(args) or original(self, *args),
        )
        result = _cell("manual", fault_plan=FAULT_PLAN)
        assert not called
        assert result.summary.publications_lost >= 0
