"""End-to-end experiment execution (paper §VI).

Every experiment follows the paper's shape:

1. deploy the scenario on the MANUAL baseline topology (the initial
   overlay for *all* evaluations);
2. run a profiling period so the CBCs fill their bit vectors;
3. measure the MANUAL steady state (the comparison baseline);
4. apply the approach under test — a no-op for MANUAL, a random
   redeployment for AUTOMATIC, cluster-then-place for the PAIRWISE
   derivatives, or the full CROC pipeline for FBF / BIN PACKING /
   CRAM-*;
5. measure the steady state of the reconfigured system.

The ten approaches of the paper's evaluation are exposed under the
names in :data:`APPROACHES`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import allocators
from repro.core.baselines import automatic_deployment, manual_deployment
from repro.core.binpacking import BinPackingAllocator
from repro.core.capacity import BrokerSpec
from repro.core.config import RunConfig
from repro.core.cram import CramAllocator, CramStats
from repro.core.croc import Croc, GatherResult
from repro.core.deployment import Deployment
from repro.core.energy import EnergyReport, EnergySpec, account_window
from repro.core.grape import GrapeRelocator
from repro.core.overlay_builder import OverlayBuilder
from repro.core.pairwise import PairwiseKAllocator, PairwiseNAllocator
from repro.core.units import units_from_records
from repro.experiments.continuous import ContinuousReconfigurator, CycleReport
from repro.obs import collect as obs_collect
from repro.obs import recorder as obs
from repro.obs.timeline import TimelineSampler
from repro.pubsub.client import PublisherClient, SubscriberClient
from repro.pubsub.metrics import MetricsSummary
from repro.pubsub.network import PubSubNetwork
from repro.sim.faults import FaultPlan
from repro.sim.rng import SeededRng
from repro.workloads.scenarios import Scenario
from repro.workloads.stocks import StockQuoteFeed, stock_advertisement
from repro.workloads.subscriptions import subscription_workload

#: Approaches that bypass CROC's Phase-2 allocators: the paper's two
#: baselines and the two related-work PAIRWISE derivatives.
BASE_APPROACHES: Tuple[str, ...] = (
    "manual",
    "automatic",
    "pairwise-k",
    "pairwise-n",
)

#: Every runnable approach: the paper's ten (two baselines, two
#: related derivatives, two sorting allocators, four CRAM closeness
#: metrics), then ``fij-trade``, CRAM-IOS with online migrations.
APPROACHES: Tuple[str, ...] = BASE_APPROACHES + allocators.NAMES

#: Virtual seconds allowed for control traffic to quiesce after a
#: reconfiguration, before the measurement window opens.
SETTLE_TIME = 3.0


@dataclass
class ExperimentResult:
    """One (scenario, approach) measurement."""

    approach: str
    scenario: str
    pool_size: int
    allocated_brokers: int
    summary: MetricsSummary
    baseline_summary: MetricsSummary
    computation_seconds: float
    total_subscriptions: int
    cram_stats: Optional[CramStats] = None
    extra: Dict[str, float] = field(default_factory=dict)
    #: ``Recorder.snapshot()`` of the run, when observability was on.
    #: Deliberately excluded from :meth:`as_row` — span wall times are
    #: wall-clock measurements, and the bit-identity contract compares
    #: rows.
    obs: Optional[Dict[str, object]] = None

    @property
    def message_rate_reduction(self) -> float:
        """Fractional reduction of avg broker message rate vs MANUAL."""
        base = self.baseline_summary.avg_broker_message_rate
        if base <= 0:
            return 0.0
        return 1.0 - self.summary.avg_broker_message_rate / base

    @property
    def broker_reduction(self) -> float:
        """Fractional reduction of allocated brokers vs the full pool."""
        if self.pool_size == 0:
            return 0.0
        return 1.0 - self.allocated_brokers / self.pool_size

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "approach": self.approach,
            "subscriptions": self.total_subscriptions,
            "allocated_brokers": self.allocated_brokers,
            "msg_rate_reduction_pct": round(100.0 * self.message_rate_reduction, 1),
            "broker_reduction_pct": round(100.0 * self.broker_reduction, 1),
            "computation_s": round(self.computation_seconds, 4),
        }
        row.update(self.summary.as_row())
        return row

    def energy(self, spec: EnergySpec = EnergySpec()) -> EnergyReport:
        """The measurement window priced under ``spec``."""
        return account_window(spec, self.summary.energy_usage())

    def energy_row(self) -> Dict[str, object]:
        """Flat energy dict under the default :class:`EnergySpec`.

        Kept apart from :meth:`as_row`, whose columns are the paper's.
        """
        energy = self.energy()
        row: Dict[str, object] = {
            "approach": self.approach,
            "subscriptions": self.total_subscriptions,
        }
        row.update(energy.as_row())
        row["mean_delivery_delay_ms"] = round(energy.mean_delay_s * 1000.0, 4)
        row["delivery_rate"] = round(energy.delivery_rate, 4)
        return row


class ExperimentRunner:
    """Builds, profiles, reconfigures, and measures one scenario.

    Parameters
    ----------
    scenario:
        A :class:`~repro.workloads.scenarios.Scenario`.
    seed:
        Master seed; every random decision in the experiment derives
        from it.
    cram_failure_budget:
        Cap on failed CRAM clustering attempts.  The paper runs CRAM to
        exhaustion; the cap only matters for CRAM-XOR, whose
        non-prunable metric otherwise probes every disjoint GIF pair.
        ``None`` reproduces the paper exactly.
    fault_plan:
        Optional :class:`~repro.sim.faults.FaultPlan` installed on the
        network before the workload starts.  ``None`` (and an empty
        plan) leaves every run bit-identical to the fault-free code
        path.
    config:
        A :class:`~repro.core.config.RunConfig` with the
        online-reallocation spec.  The default (``online=None``) keeps
        the full-cycle-only schedule.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int = 0,
        cram_failure_budget: Optional[int] = 400,
        grape: Optional[GrapeRelocator] = None,
        fault_plan: Optional[FaultPlan] = None,
        config: Optional[RunConfig] = None,
    ):
        self.scenario = scenario
        self.seed = seed
        self.cram_failure_budget = cram_failure_budget
        self.grape = grape if grape is not None else GrapeRelocator(objective="load")
        self.fault_plan = fault_plan
        self.config = config if config is not None else RunConfig()
        self._rng = SeededRng(seed, "experiment", scenario.name)
        self.network: Optional[PubSubNetwork] = None
        self.last_gather: Optional[GatherResult] = None
        self.last_continuous: Optional[ContinuousReconfigurator] = None

    # ------------------------------------------------------------------
    # Scenario deployment
    # ------------------------------------------------------------------
    def _build_network(self) -> PubSubNetwork:
        scenario = self.scenario
        network = PubSubNetwork(
            profile_capacity=scenario.profile_capacity,
            enable_covering=scenario.enable_covering,
        )
        specs = scenario.broker_specs()
        for spec in specs:
            network.add_broker(spec)
        if self.fault_plan is not None:
            network.install_faults(self.fault_plan, seed=self.seed)
        feeds = {
            symbol: StockQuoteFeed(symbol, self._rng)
            for symbol in scenario.symbols
        }
        price_hints = {symbol: feed.price for symbol, feed in feeds.items()}
        workload = subscription_workload(
            scenario.symbols,
            scenario.subscription_counts,
            self._rng,
            price_hints=price_hints,
            threshold_buckets=scenario.threshold_buckets,
        )
        for symbol in scenario.symbols:
            advertisement = stock_advertisement(symbol)
            publisher = PublisherClient(
                client_id=f"pub-{symbol}",
                advertisement=advertisement,
                feed=feeds[symbol],
                rate=scenario.publication_rate,
                size_kb=scenario.message_kb,
            )
            network.register_publisher(publisher)
            for subscription in workload[symbol]:
                subscriber = SubscriberClient(
                    client_id=subscription.subscriber_id,
                    subscriptions=[subscription],
                )
                network.register_subscriber(subscriber)
        return network

    def _all_subscription_ids(self, network: PubSubNetwork) -> List[str]:
        return [
            subscription.sub_id
            for subscriber in network.subscribers.values()
            for subscription in subscriber.subscriptions
        ]

    def _all_adv_ids(self, network: PubSubNetwork) -> List[str]:
        return [publisher.adv_id for publisher in network.publishers.values()]

    def _deploy_manual(self, network: PubSubNetwork) -> Deployment:
        deployment = manual_deployment(
            network.broker_pool(),
            self._all_subscription_ids(network),
            self._all_adv_ids(network),
            self._rng.child("manual"),
            heterogeneous=self.scenario.heterogeneous,
        )
        network.apply_deployment(deployment)
        return deployment

    # ------------------------------------------------------------------
    # Approach factories
    # ------------------------------------------------------------------
    def _allocator_factory(self, approach: str):
        """Resolve an allocator with this experiment's knobs.

        The derived RNG child is keyed by the approach name so streams
        stay independent per allocator.
        """
        return allocators.get(
            approach,
            rng=self._rng.child(approach),
            failure_budget=self.cram_failure_budget,
        )

    def croc_for(self, approach: str, overlay_builder: Optional[OverlayBuilder] = None) -> Croc:
        factory = self._allocator_factory(approach)
        return Croc(
            allocator_factory=factory,
            grape=self.grape,
            overlay_builder=overlay_builder,
            approach=approach,
        )

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def run(self, approach: str,
            overlay_builder: Optional[OverlayBuilder] = None) -> ExperimentResult:
        """Execute the full pipeline for one approach."""
        if approach not in APPROACHES:
            raise ValueError(f"unknown approach {approach!r}; pick from {APPROACHES}")
        scenario = self.scenario
        network = self._build_network()
        self.network = network
        recorder = obs.active()
        if recorder is not None:
            # Virtual timestamps come from this network's engine; the
            # sampler chunks ``network.run`` so timelines get sampled
            # without touching the event order.
            recorder.use_clock(lambda: network.sim.now)
            network.obs_sampler = TimelineSampler(network, recorder)
        self._deploy_manual(network)
        network.run(scenario.derived_profiling_time())
        network.metrics.reset_window()
        network.run(scenario.measurement_time)
        pool = network.broker_pool()
        bandwidths = {spec.broker_id: spec.total_output_bandwidth for spec in pool}
        baseline = network.metrics.summary(len(pool), network.active_brokers, bandwidths)

        cram_stats: Optional[CramStats] = None
        computation = 0.0
        extra: Dict[str, float] = {}
        if approach == "manual":
            summary = baseline
            allocated = len(pool)
        elif approach == "automatic":
            deployment = automatic_deployment(
                pool,
                self._all_subscription_ids(network),
                self._all_adv_ids(network),
                self._rng.child("automatic"),
            )
            network.apply_deployment(deployment)
            summary = self._measure(network, pool, bandwidths)
            allocated = len(pool)
        elif approach in ("pairwise-k", "pairwise-n"):
            summary, allocated, computation = self._run_pairwise(
                approach, network, pool, bandwidths
            )
        else:
            croc = self.croc_for(approach, overlay_builder)
            report = croc.reconfigure(network, settle_time=SETTLE_TIME)
            self.last_gather = report.gather
            computation = report.computation_seconds
            # A rolled-back reconfiguration leaves the previous overlay
            # running; count the brokers actually serving traffic.
            allocated = (
                report.allocated_brokers
                if report.applied
                else len(network.active_brokers)
            )
            summary = self._measure(network, pool, bandwidths)
            extra["phase2_brokers"] = report.allocation.broker_count
            # Every CRAM-backed allocator, the online ones included.
            stats = getattr(croc.last_allocator, "last_stats", None)
            if isinstance(stats, CramStats):
                cram_stats = stats

        obs_collect.add_network(network)
        return ExperimentResult(
            approach=approach,
            scenario=scenario.name,
            pool_size=len(pool),
            allocated_brokers=allocated,
            summary=summary,
            baseline_summary=baseline,
            computation_seconds=computation,
            total_subscriptions=scenario.total_subscriptions,
            cram_stats=cram_stats,
            extra=extra,
        )

    def _measure(
        self,
        network: PubSubNetwork,
        pool: List[BrokerSpec],
        bandwidths: Dict[str, float],
    ) -> MetricsSummary:
        network.run(SETTLE_TIME)
        network.metrics.reset_window()
        network.run(self.scenario.measurement_time)
        return network.metrics.summary(len(pool), network.active_brokers, bandwidths)

    # ------------------------------------------------------------------
    # Continuous operation (periodic / mixed schedule)
    # ------------------------------------------------------------------
    def run_continuous(
        self,
        approach: str,
        cycles: int,
        profiling_time: float = 60.0,
        measurement_time: float = 30.0,
        make_driver=None,
    ) -> List[CycleReport]:
        """Run the continuous control loop for one of :data:`allocators.NAMES`.

        Deploys the MANUAL baseline, then executes ``cycles`` cycles of
        :class:`~repro.experiments.continuous.ContinuousReconfigurator`.
        When ``self.config.online`` is set the loop runs the mixed
        schedule (``fij_trade`` migrations between full cycles) for any
        approach; without it every approach re-plans periodically.

        ``make_driver`` (optional) receives the freshly built network
        and returns the per-cycle drift hook — e.g.
        ``lambda net: SubscriberChurn(net, rng)``.
        """
        croc = self.croc_for(approach)  # rejects a non-allocator approach
        network = self._build_network()
        self.network = network
        recorder = obs.active()
        if recorder is not None:
            recorder.use_clock(lambda: network.sim.now)
            network.obs_sampler = TimelineSampler(network, recorder)
        self._deploy_manual(network)
        loop = ContinuousReconfigurator(
            croc,
            profiling_time=profiling_time,
            measurement_time=measurement_time,
            on_cycle_start=make_driver(network) if make_driver else None,
            online=self.config.online,
        )
        self.last_continuous = loop
        reports = loop.run(network, cycles)
        obs_collect.add_network(network)
        return reports

    # ------------------------------------------------------------------
    # PAIRWISE derivatives
    # ------------------------------------------------------------------
    def _run_pairwise(
        self,
        approach: str,
        network: PubSubNetwork,
        pool: List[BrokerSpec],
        bandwidths: Dict[str, float],
    ) -> Tuple[MetricsSummary, int, float]:
        gather_croc = Croc(allocator_factory=BinPackingAllocator, approach="gather")
        gathered = gather_croc.gather(network)
        self.last_gather = gathered
        units = units_from_records(gathered.records, gathered.directory)
        started = time.perf_counter()
        if approach == "pairwise-k":
            # K = the cluster count of the allocation CRAM-XOR returns.
            cram = CramAllocator(metric="xor", failure_budget=self.cram_failure_budget)
            cram_result = cram.allocate(units, gathered.broker_pool, gathered.directory)
            k = (
                max(1, sum(len(bin_.units) for bin_ in cram_result.bins))
                if cram_result.success
                else len(pool)
            )
            allocator = PairwiseKAllocator(
                cluster_count=k, rng=self._rng.child("pairwise-k")
            )
        else:
            allocator = PairwiseNAllocator(rng=self._rng.child("pairwise-n"))
        allocation = allocator.allocate(units, gathered.broker_pool, gathered.directory)
        computation = time.perf_counter() - started
        deployment = automatic_deployment(
            pool,
            [],  # subscription placement comes from the clustering below
            self._all_adv_ids(network),
            self._rng.child(approach),
        )
        deployment.subscription_placement = allocation.subscription_placement()
        deployment.approach = approach
        network.apply_deployment(deployment)
        summary = self._measure(network, pool, bandwidths)
        return summary, len(pool), computation
