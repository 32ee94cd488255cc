"""CROC — Coordinator for Reconfiguring the Overlay and Clients.

CROC is an external publish/subscribe client (paper §III).  It connects
to any broker of the running overlay, floods a Broker Information
Request, and collects the aggregated Broker Information Answers from
every broker (Phase 1).  With the reported capacities and profiles it
runs the subscription allocation algorithm (Phase 2), the recursive
overlay construction (Phase 3), and GRAPE publisher placement, then
orchestrates the reconfiguration by handing the resulting deployment to
the network.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.core.capacity import AllocationResult, BrokerSpec
from repro.core.deployment import Deployment
from repro.core.grape import GrapeRelocator
from repro.core.overlay_builder import OverlayBuilder
from repro.core.profiles import PublisherProfile
from repro.core.units import SubscriptionRecord, units_from_records
from repro.core.protocol import (
    BrokerInformationAnswer,
    BrokerInformationRequest,
    BrokerReport,
    CONTROL_MESSAGE_KB,
)
from repro.obs import collect as obs_collect
from repro.obs import recorder as obs

_croc_ids = itertools.count()


class ReconfigurationError(Exception):
    """Raised when CROC cannot produce a valid deployment."""


@dataclass
class GatherResult:
    """Everything Phase 1 learned about the running system.

    ``silent_brokers`` are active brokers that answered no BIR this
    round (crashed, or unreachable behind a crashed broker) — their
    specs are excluded from the plannable pool.  ``cached_brokers`` is
    the subset of silent brokers whose last-known reports were
    substituted from the coordinator's cache, so their subscriptions
    can be re-homed onto live brokers (a *degraded* plan).
    """

    broker_pool: List[BrokerSpec]
    records: List[SubscriptionRecord]
    directory: Dict[str, PublisherProfile]
    reports: Dict[str, BrokerReport] = field(default_factory=dict)
    silent_brokers: List[str] = field(default_factory=list)
    cached_brokers: List[str] = field(default_factory=list)
    attempts: int = 1

    @property
    def subscription_count(self) -> int:
        return len(self.records)

    @property
    def degraded(self) -> bool:
        """True when the plan is built from incomplete information."""
        return bool(self.silent_brokers)


@dataclass
class ReconfigurationReport:
    """Outcome and cost accounting of one CROC run.

    ``applied`` is False when the reconfiguration was aborted or rolled
    back because a target broker died around the apply;
    ``rollback_reason`` then says why.
    """

    approach: str
    deployment: Deployment
    allocation: AllocationResult
    gather: GatherResult
    computation_seconds: float
    applied: bool = True
    rollback_reason: str = ""

    @property
    def allocated_brokers(self) -> int:
        return len(self.deployment.tree)


class Croc:
    """The coordinator client.

    Parameters
    ----------
    allocator_factory:
        Zero-argument callable producing a fresh Phase-2 allocator
        (FBF, BIN PACKING, or CRAM).  The same factory drives Phase 3,
        keeping the allocation scheme consistent across both phases.
    grape:
        Publisher relocation policy applied to the finished tree.
    overlay_builder:
        Optional pre-configured Phase-3 builder (ablation studies);
        built from ``allocator_factory`` with all optimizations on when
        omitted.
    """

    def __init__(
        self,
        allocator_factory: Callable[[], object],
        grape: Optional[GrapeRelocator] = None,
        overlay_builder: Optional[OverlayBuilder] = None,
        approach: Optional[str] = None,
        gather_timeout: float = 30.0,
        gather_retries: int = 2,
        gather_backoff: float = 2.0,
    ):
        self._allocator_factory = allocator_factory
        self.grape = grape if grape is not None else GrapeRelocator(objective="load")
        self.overlay_builder = (
            overlay_builder
            if overlay_builder is not None
            else OverlayBuilder(allocator_factory)
        )
        self.approach = approach or getattr(allocator_factory(), "name", "croc")
        self.last_allocator = None
        self.gather_timeout = gather_timeout
        self.gather_retries = gather_retries
        self.gather_backoff = gather_backoff
        #: Last-known report per broker, feeding partial-gather plans.
        self._report_cache: Dict[str, BrokerReport] = {}

    # ------------------------------------------------------------------
    # Phase 1: information gathering over the live overlay
    # ------------------------------------------------------------------
    def gather(self, network, via_broker: Optional[str] = None,
               timeout: Optional[float] = None, include_standby: bool = True,
               retries: Optional[int] = None, backoff: Optional[float] = None,
               use_cache: bool = True) -> GatherResult:
        """Flood a BIR from one broker and await the aggregated BIA
        (observability wrapper; see :meth:`_gather` for the protocol).
        """
        with obs.span("phase1.gather") as gather_span:
            gathered = self._gather(
                network, via_broker=via_broker, timeout=timeout,
                include_standby=include_standby, retries=retries,
                backoff=backoff, use_cache=use_cache,
            )
            gather_span.set(
                attempts=gathered.attempts,
                silent_brokers=len(gathered.silent_brokers),
                records=len(gathered.records),
            )
            return gathered

    def _gather(self, network, via_broker: Optional[str] = None,
                timeout: Optional[float] = None, include_standby: bool = True,
                retries: Optional[int] = None, backoff: Optional[float] = None,
                use_cache: bool = True) -> GatherResult:
        """Flood a BIR from one broker and await the aggregated BIA.

        ``include_standby`` adds the specs of brokers the coordinator
        knows about but that are not part of the current overlay (they
        were deallocated by an earlier reconfiguration and answer no
        BIR).  Without them, a consolidated system could never grow
        back when the workload rises — the data-center inventory stays
        in the pool even while powered down.

        Robustness (paper-external, see DESIGN.md):

        * Each attempt waits at most ``timeout`` virtual seconds; on
          silence the coordinator retries up to ``retries`` more times
          with the wait stretched by ``backoff`` per attempt, rotating
          the entry broker (the usual cause of total silence is a dead
          entry).  Total silence after all attempts raises
          :class:`ReconfigurationError`.
        * Active brokers missing from the aggregated answer are
          *silent*: their specs are excluded from the plannable pool,
          and when ``use_cache`` their last-known reports are
          substituted so their subscriptions re-home onto live brokers
          — a *degraded* plan.
        """
        brokers = network.active_brokers
        if not brokers:
            raise ReconfigurationError("no active brokers to gather from")
        timeout = self.gather_timeout if timeout is None else timeout
        retries = self.gather_retries if retries is None else retries
        backoff = self.gather_backoff if backoff is None else backoff
        answer: Optional[BrokerInformationAnswer] = None
        attempts = 0
        for attempt in range(retries + 1):
            attempts = attempt + 1
            entry = via_broker if via_broker is not None else brokers[attempt % len(brokers)]
            wait = timeout * backoff ** attempt
            answer = self._flood_bir(network, entry, wait)
            if answer is not None:
                break
            if attempt < retries:
                network.metrics.on_gather_retry()
        if answer is None:
            raise ReconfigurationError(
                f"no aggregated BIA from any entry broker after {attempts} attempt(s)"
            )
        reports = dict(answer.reports)
        silent = sorted(
            broker_id for broker_id in brokers if broker_id not in reports
        )
        cached: List[str] = []
        if use_cache:
            for broker_id in silent:
                cached_report = self._report_cache.get(broker_id)
                if cached_report is not None:
                    reports[broker_id] = cached_report
                    cached.append(broker_id)
        self._report_cache.update(answer.reports)
        gathered = self._assemble(reports)
        if silent:
            # Never plan onto a silent broker — keep its cached
            # subscription records (for re-homing) but drop its spec.
            silent_set = set(silent)
            gathered.broker_pool = [
                spec for spec in gathered.broker_pool
                if spec.broker_id not in silent_set
            ]
            network.metrics.on_degraded_plan()
        gathered.silent_brokers = silent
        gathered.cached_brokers = cached
        gathered.attempts = attempts
        if include_standby:
            reported = {spec.broker_id for spec in gathered.broker_pool}
            skip = set(silent)
            for broker_id in sorted(network.brokers):
                if broker_id not in reported and broker_id not in skip:
                    gathered.broker_pool.append(network.brokers[broker_id].spec)
        return gathered

    def _flood_bir(self, network, entry: str,
                   wait: float) -> Optional[BrokerInformationAnswer]:
        """One gather attempt: flood a BIR via ``entry``, await the BIA."""
        croc_id = f"croc-{next(_croc_ids)}"
        inbox: List[BrokerInformationAnswer] = []
        network.register_control_client(croc_id, inbox.append)
        network.brokers[entry].attach_client(croc_id)
        request = BrokerInformationRequest()
        network.client_send(croc_id, entry, request, CONTROL_MESSAGE_KB)
        deadline = network.sim.now + wait
        # Live while anything is still to happen: scheduled events, or
        # publications on their way to subscribers (logged, not events).
        while (not inbox and network.sim.now < deadline
               and (network.sim.pending or network.deliveries_in_flight)):
            network.sim.run(until=min(network.sim.now + 0.05, deadline))
        network.brokers[entry].detach_client(croc_id)
        network.unregister_control_client(croc_id)
        return inbox[0] if inbox else None

    @staticmethod
    def _assemble(reports: Dict[str, BrokerReport]) -> GatherResult:
        """Merge per-broker reports into one alignment per gather.

        Reports are snapshots taken at different virtual times, so a
        gathered vector can hold a message ID newer than its publisher's
        report, and a publisher whose home broker was silent is in no
        report at all.  Each publisher keeps its newest report, with
        ``last_message_id`` raised (on a copy: cached reports stay as
        they were) to the newest ID any gathered vector reached.  An
        unreported publisher's vectors slide to their newest ID, but it
        stays out of the directory, so its rate stays 0.  Synchronizing
        every profile to that alignment leaves all vectors of a
        publisher on one window, so the pool packs.
        """
        directory: Dict[str, PublisherProfile] = {}
        for report in reports.values():
            for profile in report.publishers:
                known = directory.get(profile.adv_id)
                if known is None or profile.last_message_id >= known.last_message_id:
                    directory[profile.adv_id] = profile
        records = [record for broker_id in sorted(reports)
                   for record in reports[broker_id].subscriptions]
        newest: Dict[str, int] = {}
        for record in records:
            for adv_id, vector in record.profile.items():
                newest[adv_id] = max(newest.get(adv_id, -1), vector.newest_id)
        alignment = dict(directory)
        for adv_id, last in newest.items():
            publisher = directory.get(adv_id)
            if publisher is None:
                alignment[adv_id] = PublisherProfile(adv_id, 0.0, 0.0, last)
            elif last > publisher.last_message_id:
                directory[adv_id] = alignment[adv_id] = replace(
                    publisher, last_message_id=last)
        for record in records:
            record.profile.synchronize(alignment)
        pool = [reports[broker_id].spec for broker_id in sorted(reports)]
        return GatherResult(
            broker_pool=pool, records=records, directory=directory, reports=dict(reports)
        )

    # ------------------------------------------------------------------
    # Phases 2 + 3 + GRAPE (pure computation, no messaging)
    # ------------------------------------------------------------------
    def plan(self, gathered: GatherResult) -> ReconfigurationReport:
        """Compute a new deployment from gathered information."""
        started = time.perf_counter()
        units = units_from_records(gathered.records, gathered.directory)
        allocator = self._allocator_factory()
        self.last_allocator = allocator
        with obs.span("phase2.allocate", allocator=self.approach,
                      units=len(units)) as allocate_span:
            allocation = allocator.allocate(
                units, gathered.broker_pool, gathered.directory
            )
            allocate_span.set(success=allocation.success)
            obs_collect.add_allocator(allocator)
        if not allocation.success:
            raise ReconfigurationError(
                f"{self.approach}: subscription pool does not fit the broker pool "
                f"(failed at unit {allocation.failed_unit!r})"
            )
        with obs.span("phase3.overlay"):
            tree = self.overlay_builder.build(
                allocation, gathered.broker_pool, gathered.directory
            )
        publisher_placement = self.grape.place_publishers(tree, gathered.directory)
        elapsed = time.perf_counter() - started
        deployment = Deployment(
            tree=tree,
            subscription_placement=tree.subscription_placement(),
            publisher_placement=publisher_placement,
            approach=self.approach,
        )
        return ReconfigurationReport(
            approach=self.approach,
            deployment=deployment,
            allocation=allocation,
            gather=gathered,
            computation_seconds=elapsed,
        )

    # ------------------------------------------------------------------
    # Full pipeline
    # ------------------------------------------------------------------
    def reconfigure(self, network, settle_time: float = 2.0) -> ReconfigurationReport:
        """Gather → plan → execute on the live network.

        If a broker the plan depends on dies before the apply, the plan
        is abandoned (the running deployment stays untouched).  If one
        dies *during* the apply/settle, the network is rolled back to
        the pre-plan deployment — a half-moved overlay is worse than a
        suboptimal one.  Either way ``report.applied`` is False and
        ``report.rollback_reason`` says what happened.
        """
        with obs.span("reconfigure", approach=self.approach) as outer_span:
            gathered = self.gather(network)
            report = self.plan(gathered)
            previous = network.last_deployment
            dead = self._dead_targets(network, report.deployment)
            if dead:
                report.applied = False
                report.rollback_reason = (
                    f"target broker(s) {dead} down before apply; plan abandoned"
                )
                network.metrics.on_rollback()
                outer_span.set(applied=False, abandoned=True)
                return report
            with obs.span("phase3.apply"):
                network.apply_deployment(report.deployment)
                network.run(settle_time)
            dead = self._dead_targets(network, report.deployment)
            if dead:
                report.applied = False
                report.rollback_reason = (
                    f"target broker(s) {dead} died during apply; rolled back"
                )
                network.metrics.on_rollback()
                with obs.span("phase3.rollback"):
                    if previous is not None:
                        network.apply_deployment(previous)
                        network.run(settle_time)
            outer_span.set(applied=report.applied)
            return report

    @staticmethod
    def _dead_targets(network, deployment: Deployment) -> List[str]:
        """Brokers of the planned tree currently held down by faults."""
        return sorted(
            broker_id
            for broker_id in deployment.tree.brokers
            if network.broker_is_down(broker_id)
        )
