"""Pinned answers of the publication hop path.

Every digest below was recorded at ``3447b9d``, before message hops
became closure-free engine entries and a publication's fan-out
bookkeeping (counters, output kB, CBC profiles, fault draws, delivery
sums) was done once per publication instead of once per copy.  That
change claims to move no answer, so each digest must hold unchanged:

* the four ``bench_e2e`` workloads at ``smoke`` size (row, answers,
  event and delivery counts, mean delay);
* a ``cram-ios`` cell under a loss + jitter plan and one under a crash
  plan, with an observation recorder attached: the two
  ``MetricsSummary`` reprs, every broker's ``BrokerCounters`` in table
  order (floats as ``float.hex``), ``FaultInjector.drops``, the CBC bit
  vectors CROC gathered and those the brokers hold at the end, the
  engine counters, and the recorder's timeline samples and counters.

``loss_jitter`` was re-pinned once, on top of ``cbcaf9b``, when each
gather became one alignment: its publishers' last message IDs are
raised to the newest ID a gathered vector reached, so the gathered
vectors, the plan and every answer after it moved.  The smoke rows and
the ``crash`` cell gather no vector ahead of its report and hold the
values recorded at ``3447b9d``.

``churn_online`` was re-pinned twice, each time because ``CycleReport``
rows lost two keys that were 0 in every row: first ``autoscale_target``
and ``autoscale_delta``, then ``joules`` and ``joules_per_delivery``
(energy became the ``CycleReport.energy()`` reading).  Each new digest
is the digest of the rows recorded before, with those two keys removed
and every other value unchanged.

The allocator's obs counters later gained ``cram.returned_iteration``,
``cram.merges_past_best``, ``cram.cut_passes`` and
``cram.settled_passes``.  They are pinned on their own
(``cram_counters``) and left out of the ``obs`` digest, which keeps its
recorded value.

The ``obs`` digest of both fault cells was re-pinned once, when the
kernel stopped memoizing pair counts and the recorder lost
``kernel.fused_evaluations`` and ``kernel.memo_hits``.  Each new digest
is the digest of the snapshot recorded before, with those two counters
removed; every other field holds its recorded value.

Print the current values (to re-pin after a change that is *meant* to
move answers) with::

    PYTHONPATH=src python tests/test_hop_path_pins.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Any, Dict, List
from unittest import mock

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.obs import recorder as obs
from repro.pubsub.metrics import MetricsCollector
from repro.sim.faults import FaultPlan
from repro.workloads.scenarios import cluster_homogeneous

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Seed of every pinned run (the one ``scripts/hashseed_rows.py`` uses).
SEED = 2011

#: Twelve 30 kB/s brokers, 240 subscriptions, two allocated: output
#: queues build up, so fan-outs of different brokers interleave, and
#: publications cross broker links in both windows.
FAULT_CELL = cluster_homogeneous(40, scale=0.15, broker_bandwidth_kbps=30,
                                 profile_capacity=96, measurement_time=6.0)

FAULT_PLANS = {
    "loss_jitter": FaultPlan(loss_rate=0.02, jitter=0.01, seed=5),
    "crash": FaultPlan(crash_fraction=0.25, crash_start=4.0, downtime=5.0,
                       seed=5),
}

#: Obs counters added after the ``obs`` digests were recorded.
ADDED_COUNTERS = ("cram.cut_passes", "cram.merges_past_best", "cram.returned_iteration",
                  "cram.settled_passes")

SMOKE_PINS = {
    "cell_cram": "cf45ff560e716eba",
    "churn_online": "9acce26f955f956e",
    "forward_wide": "318e148a5513f9c4",
    "plan_offline": "c21b5f69aa29ad6a",
}

FAULT_PINS: Dict[str, Dict[str, Any]] = {
    "crash": {
        "batched_events": 2129,
        "cbc": "eada0bd9b5f47a23",
        "counters": "71231758023f449c",
        "cram_counters": {"cram.cut_passes": 0, "cram.merges_past_best": 0,
                          "cram.returned_iteration": 32, "cram.settled_passes": 39},
        "drops": 0,
        "events_processed": 11132,
        "heap_compactions": 0,
        "obs": "a1733e07e5e0a934",
        "summary": "8653ef13327be9f1",
    },
    "loss_jitter": {
        "batched_events": 620,
        "cbc": "5c829f1145bae44b",
        "counters": "af9845f381f2d9ae",
        "cram_counters": {"cram.cut_passes": 0, "cram.merges_past_best": 0,
                          "cram.returned_iteration": 103, "cram.settled_passes": 109},
        "drops": 556,
        "events_processed": 17937,
        "heap_compactions": 0,
        "obs": "b1e3e168b51dd543",
        "summary": "fc8538d6a092a580",
    },
}


def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _vectors(profile) -> list:
    return [[adv_id, vector.first_id, hex(vector.raw_bits())]
            for adv_id, vector in profile.items()]


def smoke_digests() -> Dict[str, str]:
    """One digest per ``bench_e2e`` smoke workload."""
    sys.path.insert(0, str(ROOT))
    try:
        from bench_e2e import workloads
    finally:
        sys.path.remove(str(ROOT))
    digests = {}
    for name in sorted(workloads.SIZES["smoke"]):
        workload = workloads.build(name, "smoke")
        workload.prepare(SEED)
        workload.run()
        outcome = workload.outcome()
        digests[name] = _digest({"row": outcome.row, "answers": outcome.answers,
                                 "work": outcome.work, "facts": outcome.facts})
    return digests


def _counter_table(metrics: MetricsCollector) -> list:
    # Not metrics.counters(): that creates entries the summary reads.
    return [
        [broker_id, c.messages_in, c.messages_out, c.bytes_out_kb.hex(),
         c.publications_in, c.publications_out, c.deliveries]
        for broker_id, c in metrics._counters.items()
    ]


def fault_cell(plan_name: str) -> Dict[str, Any]:
    """The pinned facts of one ``cram-ios`` cell under a fault plan."""
    runner = ExperimentRunner(FAULT_CELL, seed=SEED,
                              fault_plan=FAULT_PLANS[plan_name])
    # Each window's table as it closes, then the last window's at the end.
    tables: List[list] = []
    reset_window = MetricsCollector.reset_window

    def closing(metrics):
        tables.append(_counter_table(metrics))
        reset_window(metrics)

    with obs.attached(obs.Recorder()) as recorder, \
            mock.patch.object(MetricsCollector, "reset_window", closing):
        result = runner.run("cram-ios")
    network = runner.network
    sim = network.sim
    tables.append(_counter_table(network.metrics))
    gathered = [[record.sub_id, _vectors(record.profile)]
                for record in runner.last_gather.records]
    held = []
    for broker_id in sorted(network.brokers):
        broker = network.brokers[broker_id]
        report = broker.cbc.report(broker.spec, sim.now)
        held.append([broker_id,
                     [[p.adv_id, p.publication_rate.hex(), p.last_message_id]
                      for p in report.publishers],
                     [[r.sub_id, _vectors(r.profile)]
                      for r in report.subscriptions]])
    snapshot = recorder.snapshot(include_wall=False)
    counters = dict(snapshot["counters"])
    added = {name: counters.pop(name) for name in ADDED_COUNTERS}
    return {
        "summary": _digest([repr(result.summary), repr(result.baseline_summary)]),
        "counters": _digest(tables),
        "drops": network.faults.drops,
        "cbc": _digest([gathered, held]),
        "events_processed": sim.events_processed,
        "batched_events": sim.batched_events,
        "heap_compactions": sim.heap_compactions,
        "obs": _digest([snapshot["samples"], counters]),
        "cram_counters": added,
    }


def test_smoke_workload_rows_are_pinned():
    assert smoke_digests() == SMOKE_PINS


@pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
def test_fault_cell_is_pinned(plan_name):
    assert fault_cell(plan_name) == FAULT_PINS[plan_name]


if __name__ == "__main__":
    print("SMOKE_PINS =", json.dumps(smoke_digests(), indent=4, sort_keys=True))
    for name in sorted(FAULT_PLANS):
        print(f"{name!r}:", json.dumps(fault_cell(name), indent=4, sort_keys=True))
