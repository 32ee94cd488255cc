"""Periodic run-timeline sampling against the virtual clock.

A :class:`TimelineSampler` splits ``network.run`` into sample-interval
chunks: ``sim.run(until=...)`` tiles virtual time contiguously and
executes events with timestamps up to and including the boundary, so
chunking preserves the exact event execution order — no sampler event
ever enters the heap, which would shift sequence numbers and change
``sim.pending`` (the gather loop in :mod:`repro.core.croc` conditions
on it).  That is what keeps sampled runs bit-identical to unsampled
ones.

Each sample captures queue depth (pending events), what is in flight
(pending minus cancelled corpses, plus logged client deliveries that
have not arrived — reading that count settles the delivery log to the
sample time), cumulative events processed, and per-broker message rates
over the elapsed interval.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.recorder import Recorder

#: Default virtual seconds between samples.
DEFAULT_INTERVAL = 1.0


class TimelineSampler:
    """Samples one network's run state into a recorder's timeline."""

    def __init__(self, network, recorder: Recorder,
                 interval: float = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval!r}")
        self._network = network
        self._sim = network.sim
        self._recorder = recorder
        self.interval = interval
        self._origin = self._sim.now
        self._ticks = 0  # samples taken; next boundary = origin + (ticks+1)*interval
        self._last_totals: Dict[str, int] = {}
        self._last_t = self._sim.now
        self.sample_now()

    def _next_boundary(self) -> float:
        # Multiplicative stepping avoids cumulative float drift in the
        # boundary sequence (t0 + k*dt, not repeated += dt).
        return self._origin + (self._ticks + 1) * self.interval

    def sample_now(self) -> Dict[str, object]:
        """Record one sample at the current virtual time."""
        sim = self._sim
        network = self._network
        now = sim.now
        elapsed = now - self._last_t
        totals: Dict[str, int] = {}
        rates: Dict[str, float] = {}
        for broker_id in sorted(network.brokers):
            total = network.metrics.messages_total(broker_id)
            totals[broker_id] = total
            delta = total - self._last_totals.get(broker_id, 0)
            rates[broker_id] = delta / elapsed if elapsed > 0 else 0.0
        self._last_totals = totals
        self._last_t = now
        pending = sim.pending
        cancelled = sim.cancelled_pending
        return self._recorder.sample(
            now,
            queue_depth=pending,
            in_flight=pending - cancelled + network.deliveries_in_flight,
            events_processed=sim.events_processed,
            broker_rates=rates,
        )

    def run(self, until: float) -> None:
        """Advance the simulator to ``until``, sampling on the way.

        Drop-in replacement for ``sim.run(until=until)``: the engine is
        driven in chunks ending at each sample boundary, and a sample is
        taken whenever the clock reaches one.
        """
        sim = self._sim
        # Catch up on boundaries the clock already passed (e.g. the
        # coordinator drove the engine directly during a gather): one
        # sample covers the whole gap.
        missed = False
        while self._next_boundary() <= sim.now:
            self._ticks += 1
            missed = True
        if missed:
            self.sample_now()
        while True:
            boundary = self._next_boundary()
            target = until if boundary > until else boundary
            sim.run(until=target)
            if boundary <= until:
                self._ticks += 1
                self.sample_now()
            if target >= until:
                break
