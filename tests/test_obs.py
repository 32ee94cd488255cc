"""Unit + property tests for the observability primitives.

Property obligations (ISSUE 5): spans nest and never close out of
order, counter deltas are non-negative and sum across workers, JSONL
round-trips losslessly, and timeline samples are monotone in virtual
time.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.obs.export import (
    SCHEMA_VERSION,
    dumps_jsonl,
    loads_jsonl,
    merge_observations,
    merged_counters,
    validate_records,
)
from repro.obs.recorder import ObsError, Recorder
from repro.obs.timeline import TimelineSampler
from repro.pubsub.network import PubSubNetwork
from repro.sim.engine import Simulator

from conftest import make_spec
from per_delivery_oracle import PerDeliveryNetwork
from test_broker_routing import make_publisher, make_subscriber


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class TestSpans:
    def test_nesting_depth_and_parents(self):
        recorder = Recorder()
        with recorder.span("outer") as outer:
            with recorder.span("mid") as mid:
                with recorder.span("inner") as inner:
                    pass
            with recorder.span("sibling") as sibling:
                pass
        assert outer.record.depth == 0 and outer.record.parent is None
        assert mid.record.depth == 1 and mid.record.parent == outer.record.index
        assert inner.record.depth == 2 and inner.record.parent == mid.record.index
        assert sibling.record.depth == 1 and sibling.record.parent == outer.record.index
        assert recorder.open_spans == 0

    def test_out_of_order_close_raises(self):
        recorder = Recorder()
        outer = recorder.span("outer")
        recorder.span("inner")
        with pytest.raises(ObsError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_span_closes_on_exception(self):
        recorder = Recorder()
        with pytest.raises(RuntimeError):
            with recorder.span("failing"):
                raise RuntimeError("boom")
        assert recorder.open_spans == 0
        assert recorder.spans[0].t_end is not None

    def test_virtual_times_from_clock(self):
        clock = [1.5]
        recorder = Recorder(clock=lambda: clock[0])
        with recorder.span("phase"):
            clock[0] = 4.0
        record = recorder.spans[0]
        assert record.t_start == 1.5 and record.t_end == 4.0
        assert record.wall_s is not None and record.wall_s >= 0.0

    def test_snapshot_with_open_span_raises(self):
        recorder = Recorder()
        recorder.span("open")
        with pytest.raises(ObsError, match="open spans"):
            recorder.snapshot()

    def test_snapshot_excludes_wall_when_asked(self):
        recorder = Recorder()
        with recorder.span("phase", tag="x"):
            pass
        with_wall = recorder.snapshot()["spans"][0]
        without = recorder.snapshot(include_wall=False)["spans"][0]
        assert "wall_s" in with_wall and "wall_s" not in without
        assert without["attrs"] == {"tag": "x"}

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=30))
    def test_property_nesting_invariants(self, pops):
        """Random open/close interleavings: depth always equals the
        number of open ancestors, parents precede children, and spans
        never overlap partially (close order is LIFO)."""
        recorder = Recorder()
        stack = []
        for index, extra_pops in enumerate(pops):
            for _ in range(min(extra_pops, len(stack))):
                stack.pop().__exit__(None, None, None)
            span = recorder.span(f"s{index}")
            assert span.record.depth == len(stack)
            parent = stack[-1].record.index if stack else None
            assert span.record.parent == parent
            stack.append(span)
        while stack:
            stack.pop().__exit__(None, None, None)
        for record in recorder.spans:
            if record.parent is not None:
                assert record.parent < record.index
                parent = recorder.spans[record.parent]
                assert parent.depth == record.depth - 1
        assert recorder.open_spans == 0

    def test_module_level_span_noop_when_detached(self):
        assert obs.active() is None
        span = obs.span("anything", key="value")
        assert span is obs.NULL_SPAN
        with span:
            span.set(more=1)
        obs.add("counter.never", 3)  # no-op, must not raise

    def test_attach_detach_cycle(self):
        recorder = Recorder()
        obs.attach(recorder)
        try:
            with pytest.raises(ObsError, match="already attached"):
                obs.attach(Recorder())
            assert obs.active() is recorder
            obs.add("hits", 2)
        finally:
            assert obs.detach() is recorder
        assert obs.active() is None
        with pytest.raises(ObsError, match="no recorder"):
            obs.detach()
        assert recorder.counters == {"hits": 2}


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------

class TestCounters:
    def test_negative_delta_rejected(self):
        recorder = Recorder()
        with pytest.raises(ObsError, match="negative delta"):
            recorder.add("bad", -1)

    @given(st.lists(
        st.tuples(st.sampled_from(("a.x", "a.y", "b.z")),
                  st.integers(min_value=0, max_value=10_000)),
        max_size=50,
    ))
    def test_property_counters_accumulate_non_negative(self, deltas):
        recorder = Recorder()
        expected: dict = {}
        for name, delta in deltas:
            recorder.add(name, delta)
            expected[name] = expected.get(name, 0) + delta
        assert recorder.counters == expected
        assert all(value >= 0 for value in recorder.counters.values())

    @given(st.lists(
        st.dictionaries(st.sampled_from(("a.x", "a.y", "b.z")),
                        st.integers(min_value=0, max_value=10_000)),
        min_size=1, max_size=6,
    ))
    def test_property_worker_counters_sum_across_cells(self, worker_counters):
        """Merging N per-worker snapshots sums every counter linearly."""
        cells = []
        for index, counters in enumerate(worker_counters):
            recorder = Recorder()
            for name, value in counters.items():
                recorder.add(name, value)
            cells.append((f"w{index}", recorder.snapshot()))
        totals = merged_counters(merge_observations(cells))
        expected: dict = {}
        for counters in worker_counters:
            for name, value in counters.items():
                expected[name] = expected.get(name, 0) + value
        assert totals == dict(sorted(expected.items()))


# ----------------------------------------------------------------------
# Timeline samples
# ----------------------------------------------------------------------

class TestTimeline:
    def test_sample_regression_raises(self):
        recorder = Recorder()
        recorder.sample(2.0, queue_depth=1)
        recorder.sample(2.0, queue_depth=2)  # equal time is fine
        with pytest.raises(ObsError, match="behind"):
            recorder.sample(1.0, queue_depth=3)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), max_size=40))
    def test_property_samples_monotone_in_virtual_time(self, times):
        recorder = Recorder()
        for t in sorted(times):
            recorder.sample(t)
        recorded = [sample["t"] for sample in recorder.samples]
        assert recorded == sorted(times)
        assert all(b >= a for a, b in zip(recorded, recorded[1:]))

    def test_sampler_chunks_are_order_preserving(self):
        """A sampled engine executes the exact same callback sequence as
        an unsampled one (chunked run(until=...) tiles time)."""
        def build(sampled: bool):
            network = PubSubNetwork(sim=Simulator())
            order = []
            for index in range(10):
                network.sim.schedule_at(0.3 * index, lambda i=index: order.append(i))
                network.sim.schedule_at(0.3 * index, lambda i=index: order.append(-i))
            recorder = Recorder(clock=lambda: network.sim.now)
            if sampled:
                network.obs_sampler = TimelineSampler(network, recorder, interval=0.5)
            network.run(4.0)
            return order, recorder

        plain_order, _ = build(sampled=False)
        sampled_order, recorder = build(sampled=True)
        assert sampled_order == plain_order
        times = [sample["t"] for sample in recorder.samples]
        assert times[0] == 0.0
        assert times[-1] == 4.0
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_sampler_catches_up_after_external_advance(self):
        network = PubSubNetwork(sim=Simulator())
        recorder = Recorder(clock=lambda: network.sim.now)
        sampler = TimelineSampler(network, recorder, interval=1.0)
        network.sim.run(until=5.25)  # driven outside the sampler
        sampler.run(6.0)
        times = [sample["t"] for sample in recorder.samples]
        assert times == [0.0, 5.25, 6.0]

    def test_in_flight_counts_logged_deliveries_like_delivery_events(self):
        """``in_flight`` means messages not yet completed: the logged
        deliveries still travelling count as the heap events they used
        to be, and taking the sample settles the ones that arrived."""
        def samples(network_class):
            network = network_class(profile_capacity=64)
            network.add_broker(make_spec("b0", bandwidth=20.0))
            for index in range(6):
                network.attach_subscriber(make_subscriber(f"s{index}"), "b0")
            network.attach_publisher(make_publisher(rate=10.0), "b0")
            recorder = Recorder(clock=lambda: network.sim.now)
            sampler = TimelineSampler(network, recorder, interval=0.13)
            sampler.run(1.0)  # not network.run: nothing else settles
            return recorder.samples, network

        logged, network = samples(PubSubNetwork)
        expected, oracle = samples(PerDeliveryNetwork)
        # Nothing is cancelled in this run, so with one event per delivery
        # the messages not yet completed are exactly the pending events.
        in_flight = [sample["in_flight"] for sample in logged]
        assert in_flight == [sample["queue_depth"] for sample in expected]
        assert in_flight != [sample["queue_depth"] for sample in logged]
        assert network.metrics.delivery_count == oracle.metrics.delivery_count > 20

    def test_sampler_rejects_bad_interval(self):
        network = PubSubNetwork(sim=Simulator())
        recorder = Recorder()
        with pytest.raises(ValueError, match="positive"):
            TimelineSampler(network, recorder, interval=0.0)


# ----------------------------------------------------------------------
# JSONL export round-trip
# ----------------------------------------------------------------------

#: JSON-representable scalars whose repr survives a dump/load cycle.
_scalars = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
)


class TestExportRoundTrip:
    @given(st.lists(
        st.dictionaries(
            st.sampled_from(("queue_depth", "in_flight", "rate", "note")),
            _scalars, max_size=4,
        ),
        max_size=15,
    ))
    def test_property_jsonl_round_trips_losslessly(self, payloads):
        recorder = Recorder()
        for t, fields in enumerate(payloads):
            recorder.sample(float(t), **fields)
        recorder.add("events", 3)
        with recorder.span("phase"):
            pass
        records = merge_observations([("cell", recorder.snapshot())])
        text = dumps_jsonl(records)
        assert loads_jsonl(text) == records
        # And a second encode of the decoded records is byte-identical.
        assert dumps_jsonl(loads_jsonl(text)) == text

    def test_merge_preserves_submission_order(self):
        first, second = Recorder(), Recorder()
        first.add("n", 1)
        second.add("n", 2)
        records = merge_observations(
            [("b-cell", second.snapshot()), ("a-cell", first.snapshot())]
        )
        assert records[0] == {
            "record": "header", "schema": SCHEMA_VERSION,
            "cells": ["b-cell", "a-cell"],
        }
        cells = [record["cell"] for record in records[1:]]
        assert cells == ["b-cell", "a-cell"]
        assert merged_counters(records) == {"n": 3}

    def test_json_float_repr_is_exact(self):
        value = 0.1 + 0.2  # classic non-representable sum
        assert json.loads(json.dumps(value)) == value

    def test_validate_accepts_real_export(self):
        recorder = Recorder()
        with recorder.span("phase"):
            recorder.add("k", 1)
        recorder.sample(0.0, queue_depth=0)
        records = merge_observations([("cell", recorder.snapshot())])
        assert validate_records(records) == []

    def test_validate_rejects_malformed_records(self):
        good = merge_observations([("cell", Recorder().snapshot())])
        assert validate_records([]) != []
        assert validate_records([{"record": "counter"}]) != []  # no header
        bad_schema = [{"record": "header", "schema": "bogus/9", "cells": []}]
        assert any("schema" in error for error in validate_records(bad_schema))
        negative = good + [
            {"record": "counter", "cell": "c", "name": "n", "value": -3},
        ]
        assert any("below" in error for error in validate_records(negative))
        backwards = good + [
            {"record": "sample", "cell": "c", "t": 5.0},
            {"record": "sample", "cell": "c", "t": 1.0},
        ]
        assert any("behind" in error for error in validate_records(backwards))
        inverted_span = good + [{
            "record": "span", "cell": "c", "name": "s", "index": 0,
            "depth": 0, "parent": None, "t_start": 2.0, "t_end": 1.0,
        }]
        assert any("ends" in error for error in validate_records(inverted_span))
        assert any(
            "unknown record kind" in error
            for error in validate_records(good + [{"record": "mystery"}])
        )
        assert any(
            "duplicate header" in error
            for error in validate_records(good + good)
        )
