"""Tests for the discrete-event engine and seeded RNG."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import SeededRng, derive_seed


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, lambda tag=tag: fired.append(tag))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run(until=20.0)
        assert fired == [1, 10]

    def test_event_at_until_boundary_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=5.0)
        assert fired == [5]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(sim.now)
            sim.schedule(1.0, lambda: fired.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [1.0, 2.0]

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("no"))
        event.cancel()
        sim.run()
        assert fired == []
        assert sim.events_processed == 0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for index in range(5):
            sim.schedule(float(index + 1), lambda i=index: fired.append(i))
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_not_reentrant(self):
        sim = Simulator()
        error = {}

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                error["raised"] = exc

        sim.schedule(1.0, reenter)
        sim.run()
        assert "raised" in error


def _noop():
    return None


class TestEngineEdgeCases:
    def test_cancel_inside_same_timestamp_batch(self):
        """A tie-group member cancelled by an earlier member is skipped
        mid-drain, with the cancellation count settled by the pop."""
        sim = Simulator()
        fired = []
        victims = []

        def killer():
            fired.append("killer")
            victims[0].cancel()

        sim.schedule_at(1.0, killer)
        victims.append(sim.schedule_at(1.0, lambda: fired.append("victim")))
        sim.schedule_at(1.0, lambda: fired.append("survivor"))
        sim.run()
        assert fired == ["killer", "survivor"]
        assert sim.events_processed == 2
        assert sim.cancelled_pending == 0

    def test_tie_spawned_during_batch_drains_in_order(self):
        """A zero-delay event scheduled by a batched callback joins the
        tail of the tie group being drained (later sequence number)."""
        sim = Simulator()
        fired = []

        def spawner():
            fired.append("spawner")
            sim.schedule(0.0, lambda: fired.append("spawned"))

        sim.schedule_at(2.0, spawner)
        sim.schedule_at(2.0, lambda: fired.append("peer"))
        sim.run()
        assert fired == ["spawner", "peer", "spawned"]

    def test_schedule_into_past_raises(self):
        sim = Simulator()
        sim.schedule_at(5.0, _noop)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, _noop)
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, _noop)

    def test_max_events_stops_inside_tie_group(self):
        sim = Simulator()
        fired = []
        for index in range(6):
            sim.schedule_at(1.0, lambda i=index: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]
        assert sim.pending == 3
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_max_events_stop_does_not_advance_clock_to_until(self):
        """A run cut short by ``max_events`` leaves earlier events queued;
        jumping the clock to ``until`` would run them in the past."""
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(sim.now))
        sim.schedule_at(2.0, lambda: fired.append(sim.now))
        sim.run(until=10.0, max_events=1)
        assert (sim.now, sim.pending) == (1.0, 1)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]
        assert sim.now == 10.0

    def test_max_events_stop_advances_clock_when_rest_is_past_until(self):
        sim = Simulator()
        sim.schedule_at(1.0, _noop)
        sim.schedule_at(20.0, _noop)
        sim.run(until=10.0, max_events=1)
        assert (sim.now, sim.pending) == (10.0, 1)


class TestCompactionAccounting:
    """Cancelled-event compaction drops corpses from the queue; their
    ``Event._sim`` back-reference must be cleared so nothing a caller
    does with a stale handle can skew the cancellation count."""

    def _compact_once(self, sim):
        doomed = [sim.schedule_at(1000.0 + i, _noop) for i in range(80)]
        keep = [sim.schedule_at(2000.0 + i, _noop) for i in range(20)]
        for event in doomed:
            event.cancel()
        assert sim.cancelled_pending == 80
        sim.schedule_at(0.5, _noop)
        sim.run(until=1.0)  # loop head triggers the compaction
        return doomed, keep

    def test_compaction_clears_sim_backref(self):
        sim = Simulator()
        doomed, keep = self._compact_once(sim)
        assert sim.heap_compactions == 1
        assert sim.cancelled_pending == 0
        assert all(event._sim is None for event in doomed)
        assert all(event._sim is sim for event in keep)
        assert sim.pending == len(keep)

    def test_cancel_after_compaction_does_not_skew_count(self):
        sim = Simulator()
        doomed, keep = self._compact_once(sim)
        for event in doomed:
            event.cancel()  # stale handles: idempotent, no recount
        assert sim.cancelled_pending == 0
        keep[0].cancel()  # live handles still count normally
        assert sim.cancelled_pending == 1
        sim.run()
        assert sim.cancelled_pending == 0
        assert sim.pending == 0

    def test_cancel_after_execution_does_not_skew_count(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, _noop)
        sim.run()
        assert event._sim is None
        event.cancel()
        assert sim.cancelled_pending == 0


class TestSeededRng:
    def test_derive_seed_is_stable(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_derive_seed_differs_per_path(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_streams_reproducible(self):
        a = SeededRng(7, "x")
        b = SeededRng(7, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_children_are_independent(self):
        parent = SeededRng(7)
        left = parent.child("left")
        right = parent.child("right")
        assert [left.random() for _ in range(3)] != [right.random() for _ in range(3)]

    def test_child_path_composes(self):
        direct = SeededRng(7, "a", "b")
        nested = SeededRng(7, "a").child("b")
        assert direct.random() == nested.random()

    def test_shuffled_does_not_mutate(self):
        rng = SeededRng(1)
        items = [1, 2, 3, 4]
        shuffled = rng.shuffled(items)
        assert items == [1, 2, 3, 4]
        assert sorted(shuffled) == items

    def test_sample_and_choice(self):
        rng = SeededRng(1)
        population = list(range(10))
        sample = rng.sample(population, 3)
        assert len(sample) == 3
        assert rng.choice(population) in population


@given(seed=st.integers(0, 2**31), names=st.lists(st.text(max_size=8), max_size=3))
def test_prop_derive_seed_in_64bit_range(seed, names):
    value = derive_seed(seed, *names)
    assert 0 <= value < 2**64
