"""repro — Green Resource Allocation Algorithms for Publish/Subscribe Systems.

A complete, simulator-hosted reproduction of Cheung & Jacobsen,
ICDCS 2011.  See DESIGN.md for the system inventory and EXPERIMENTS.md
for the paper-vs-measured record.

Quickstart::

    from repro import scenarios, ExperimentRunner

    scenario = scenarios.cluster_homogeneous(subscriptions_per_publisher=25)
    runner = ExperimentRunner(scenario, seed=7)
    result = runner.run("cram-ios")
    print(result.summary.as_row())
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro import core, obs, pubsub, sim, workloads
from repro.core import (
    BinPackingAllocator,
    BitVector,
    BrokerSpec,
    CramAllocator,
    Croc,
    Deployment,
    FbfAllocator,
    GrapeRelocator,
    MatchingDelayFunction,
    OverlayBuilder,
    PublisherProfile,
    ReconfigurationError,
    SubscriptionProfile,
)
from repro.core import allocators
from repro.core.config import RunConfig
from repro.core.energy import EnergyReport, EnergySpec
from repro.core.online import OnlineSpec
from repro.experiments.continuous import (
    ContinuousReconfigurator,
    CycleReport,
    OnlineScheduler,
)
from repro.experiments.runner import (
    APPROACHES,
    ExperimentResult,
    ExperimentRunner,
)
from repro.obs import Recorder, TimelineSampler
from repro.pubsub.faults import FaultInjector
from repro.sim.estimator import BrokerLoadEstimator
from repro.sim.faults import FaultEvent, FaultPlan
from repro.workloads import scenarios

#: The stable public surface.  Subpackages stay importable for
#: everything else (``repro.core.cram``, ``repro.pubsub.network``, …);
#: this list is the API we promise not to break between PRs.
__all__ = [
    # Subpackages
    "core",
    "obs",
    "pubsub",
    "sim",
    "workloads",
    "scenarios",
    # Allocation building blocks
    "BinPackingAllocator",
    "BitVector",
    "BrokerSpec",
    "CramAllocator",
    "Croc",
    "Deployment",
    "FbfAllocator",
    "GrapeRelocator",
    "MatchingDelayFunction",
    "OverlayBuilder",
    "PublisherProfile",
    "ReconfigurationError",
    "SubscriptionProfile",
    # Allocator table
    "allocators",
    # Run configuration and online reallocation
    "RunConfig",
    "OnlineSpec",
    "EnergyReport",
    "EnergySpec",
    "OnlineScheduler",
    "BrokerLoadEstimator",
    # Experiment drivers
    "APPROACHES",
    "ContinuousReconfigurator",
    "CycleReport",
    "ExperimentResult",
    "ExperimentRunner",
    # Fault injection
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    # Observability
    "Recorder",
    "TimelineSampler",
    "__version__",
]
