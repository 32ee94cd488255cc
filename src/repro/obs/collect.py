"""Pull existing hot-path counters into one namespaced registry.

The simulation already counts the things the paper's claims hang on —
closeness evaluations, heap compactions, matching probe-cache hits,
fault drops — but each lives on its own object with its own spelling.  The helpers here read those counters (they are all
plain deterministic ints, incremented identically with or without a
recorder) and accumulate them into the active recorder under stable
``namespace.name`` keys.

Every helper is a cheap no-op when no recorder is attached, so call
sites can stay unconditional.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs import recorder as _recorder
from repro.obs.recorder import Recorder


def engine_counters(sim) -> Dict[str, float]:
    """Event-loop counters from a :class:`repro.sim.engine.Simulator`."""
    return {
        "engine.events_processed": sim.events_processed,
        "engine.batched_events": sim.batched_events,
        "engine.heap_compactions": sim.heap_compactions,
    }


def network_counters(network) -> Dict[str, float]:
    """Engine, matching, fault, and metrics counters for one network."""
    counters = engine_counters(network.sim)
    probe_hits = 0
    probe_misses = 0
    for broker_id in sorted(network.brokers):
        broker = network.brokers[broker_id]
        probe_hits += broker.probe_cache_hits
        probe_misses += broker.probe_cache_misses
    counters["matching.probe_cache_hits"] = probe_hits
    counters["matching.probe_cache_misses"] = probe_misses
    if network.faults is not None:
        counters["faults.crashes"] = network.faults.crashes
        counters["faults.recoveries"] = network.faults.recoveries
        counters["faults.drops"] = network.faults.drops
    metrics = network.metrics
    counters.update({
        "metrics.deliveries": metrics.delivery_count,
        "metrics.messages_lost": metrics.messages_lost,
        "metrics.publications_lost": metrics.publications_lost,
        "metrics.gather_retries": metrics.gather_retries,
        "metrics.degraded_plans": metrics.degraded_plans,
        "metrics.rollbacks": metrics.rollbacks,
        "metrics.subscriptions_migrated": metrics.subscriptions_migrated,
        "metrics.migration_gap_s": metrics.migration_gap_s,
        "metrics.broker_downtime_s": metrics.broker_downtime_s,
    })
    return counters


def allocator_counters(allocator) -> Dict[str, float]:
    """CRAM clustering counters for one finished ``allocate``.

    Non-CRAM allocators (no ``last_stats``) contribute nothing — their
    work is visible through their phase spans instead.
    """
    stats = getattr(allocator, "last_stats", None)
    if stats is None:
        return {}
    return {
        "cram.iterations": stats.iterations,
        "cram.merges": stats.merges,
        "cram.failures": stats.failures,
        "cram.returned_iteration": stats.returned_iteration,
        "cram.merges_past_best": stats.merges_past_best,
        "cram.binpack_runs": stats.binpack_runs,
        "cram.cut_passes": getattr(allocator, "last_cut_passes", 0),
        "cram.settled_passes": getattr(allocator, "last_settled_passes", 0),
        "cram.closeness_evaluations": stats.closeness_evaluations,
        "cram.initial_search_evaluations": stats.initial_search_evaluations,
    }


def _accumulate(recorder: Optional[Recorder], counters: Dict[str, float]) -> None:
    if recorder is None:
        return
    for name in sorted(counters):
        recorder.add(name, counters[name])


def add_network(network, recorder: Optional[Recorder] = None) -> None:
    """Accumulate :func:`network_counters` into the (active) recorder."""
    recorder = recorder if recorder is not None else _recorder.active()
    if recorder is None:
        return
    _accumulate(recorder, network_counters(network))


def add_allocator(allocator, recorder: Optional[Recorder] = None) -> None:
    """Accumulate :func:`allocator_counters` into the (active) recorder."""
    recorder = recorder if recorder is not None else _recorder.active()
    if recorder is None:
        return
    _accumulate(recorder, allocator_counters(allocator))
