"""Reference schedule for client deliveries: one simulator event each.

Production logs a client delivery with its final arrival time and
completes the log in stable arrival order
(:meth:`repro.pubsub.network.PubSubNetwork.settle_deliveries`).  That
is claimed equal to the schedule this repository used before delivery
batching: ``sim.schedule_at(arrival, …)`` per destination, fired by the
heap in ``(time, sequence)`` order.  :class:`PerDeliveryNetwork` *is*
that schedule, kept here as the oracle: it turns every logged entry
into an event straight after the broker's fan-out loop — where the old
per-destination path scheduled it, before the broker-to-broker forwards
— and never sorts anything.

:func:`networks_built` makes :class:`ExperimentRunner` build either
network class, so whole cells and continuous runs
(:func:`small_churn_online`) can be compared.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List
from unittest import mock

from repro.core.config import RunConfig
from repro.core.online import OnlineSpec
from repro.experiments import runner as runner_module
from repro.experiments.continuous import SubscriberChurn
from repro.pubsub.network import PubSubNetwork
from repro.sim.faults import FaultPlan
from repro.sim.rng import SeededRng
from repro.workloads.scenarios import cluster_homogeneous

from conftest import ConservationWatch


class PerDeliveryNetwork(PubSubNetwork):
    """A network whose client deliveries are heap events again."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Zero makes every broker fan-out end in ``settle_deliveries``.
        self.settle_at = 0
        self._scheduled = 0

    def settle_deliveries(self) -> None:
        for entry in self.delivery_log:
            self._scheduled += 1
            self.sim.schedule_at(entry[0], lambda entry=entry: self._fire(entry))
        self.delivery_log.clear()

    def _fire(self, entry) -> None:
        self._scheduled -= 1
        self._complete((entry,))

    @property
    def deliveries_in_flight(self) -> int:
        return self._scheduled


@contextlib.contextmanager
def networks_built(network_class=PubSubNetwork, keep_history: bool = False,
                   tracer=None) -> Iterator[List[PubSubNetwork]]:
    """Inside the block, experiment runners build ``network_class``.

    Yields the list of networks built so far.  Each has a
    :class:`~conftest.ConservationWatch` on it (``network.watch``), every
    subscriber keeps its delivery history when ``keep_history`` is set,
    and ``tracer`` (if given) is attached before the first message.
    """
    built: List[PubSubNetwork] = []
    original = runner_module.ExperimentRunner._build_network

    def build(runner):
        network = original(runner)
        network.watch = ConservationWatch(network)
        network.tracer = tracer
        for subscriber in network.subscribers.values():
            subscriber.keep_history = keep_history
        built.append(network)
        return network

    with mock.patch.object(runner_module, "PubSubNetwork", network_class), \
            mock.patch.object(runner_module.ExperimentRunner, "_build_network", build):
        yield built


def small_churn_online(network_class=PubSubNetwork, cycles: int = 3, seed: int = 3):
    """``bench_e2e``'s ``churn_online`` in small: the continuous loop with
    online steps, subscriber churn and jitter wider than a serialization.

    Returns ``(reports, network, backlog)``; ``backlog[i]`` is
    ``deliveries_in_flight`` when cycle *i* ended.
    """
    runner = runner_module.ExperimentRunner(
        cluster_homogeneous(40, scale=0.15, broker_bandwidth_kbps=30,
                            profile_capacity=96, measurement_time=10.0),
        seed=seed, fault_plan=FaultPlan(jitter=0.05),
        config=RunConfig(online=OnlineSpec(
            "fij_trade", steps=2, drift_threshold=0.05, gap=0.02)),
    )
    backlog: List[int] = []

    def make_driver(network):
        churn = SubscriberChurn(network, SeededRng(seed, "churn"),
                                leave_fraction=0.3, rejoin_fraction=0.7)

        def on_cycle_start(cycle):
            if cycle:
                backlog.append(network.deliveries_in_flight)
            churn(cycle)

        return on_cycle_start

    with networks_built(network_class, keep_history=True) as built:
        reports = runner.run_continuous(
            "fij-trade", cycles=cycles, profiling_time=20.0,
            measurement_time=10.0, make_driver=make_driver,
        )
    backlog.append(built[0].deliveries_in_flight)
    return reports, built[0], backlog
