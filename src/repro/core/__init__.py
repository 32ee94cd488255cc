"""The paper's primary contribution: green resource allocation.

Phase 1 — :mod:`repro.core.bitvector`, :mod:`repro.core.profiles`,
:mod:`repro.core.croc` (information gathering).
Phase 2 — :mod:`repro.core.fbf`, :mod:`repro.core.binpacking`,
:mod:`repro.core.cram` plus the :mod:`repro.core.closeness` metrics,
:mod:`repro.core.gif` grouping and the :mod:`repro.core.poset`.
Phase 3 — :mod:`repro.core.overlay_builder`, followed by
:mod:`repro.core.grape` publisher relocation.
Related and baseline approaches — :mod:`repro.core.pairwise`,
:mod:`repro.core.baselines`.
"""

from __future__ import annotations

from repro.core import allocators
from repro.core.bitvector import DEFAULT_CAPACITY, BitVector
from repro.core.config import RunConfig
from repro.core.energy import (
    BrokerEnergy,
    EnergyReport,
    EnergySpec,
    WindowUsage,
    account_window,
)
from repro.core.online import (
    STRATEGIES,
    Migration,
    OnlineSpec,
)
from repro.core.binpacking import BinPackingAllocator
from repro.core.baselines import automatic_deployment, manual_deployment
from repro.core.capacity import (
    AllocationResult,
    BrokerBin,
    BrokerSpec,
    MatchingDelayFunction,
)
from repro.core.closeness import METRIC_NAMES, ClosenessMetric, make_metric
from repro.core.cram import CramAllocator, CramStats
from repro.core.croc import Croc, GatherResult, ReconfigurationError, ReconfigurationReport
from repro.core.deployment import BrokerTree, Deployment
from repro.core.fbf import FbfAllocator
from repro.core.gif import Gif, build_gifs, gif_reduction_ratio
from repro.core.grape import GrapeRelocator, PlacementDecision
from repro.core.overlay_builder import OverlayBuilder, OverlayBuildStats
from repro.core.pairwise import PairwiseKAllocator, PairwiseNAllocator, pairwise_cluster
from repro.core.poset import Poset, PosetNode
from repro.core.profiles import PublisherProfile, SubscriptionProfile, merge_profiles
from repro.core.relations import Relation
from repro.core.units import (
    EPSILON,
    AllocationUnit,
    SubscriptionRecord,
    approx_eq,
    approx_ge,
    approx_le,
    approx_zero,
    units_from_records,
)
from repro.core.plan_io import (
    deployment_from_dict,
    deployment_to_dict,
    load_deployment,
    save_deployment,
)
from repro.core.validation import (
    BrokerLoad,
    ValidationReport,
    Violation,
    validate_deployment,
)

__all__ = [
    "allocators",
    "RunConfig",
    "BrokerEnergy",
    "EnergyReport",
    "EnergySpec",
    "WindowUsage",
    "account_window",
    "STRATEGIES",
    "Migration",
    "OnlineSpec",
    "DEFAULT_CAPACITY",
    "BitVector",
    "BinPackingAllocator",
    "automatic_deployment",
    "manual_deployment",
    "AllocationResult",
    "BrokerBin",
    "BrokerSpec",
    "MatchingDelayFunction",
    "METRIC_NAMES",
    "ClosenessMetric",
    "make_metric",
    "CramAllocator",
    "CramStats",
    "Croc",
    "GatherResult",
    "ReconfigurationError",
    "ReconfigurationReport",
    "BrokerTree",
    "Deployment",
    "FbfAllocator",
    "Gif",
    "build_gifs",
    "gif_reduction_ratio",
    "GrapeRelocator",
    "PlacementDecision",
    "OverlayBuilder",
    "OverlayBuildStats",
    "PairwiseKAllocator",
    "PairwiseNAllocator",
    "pairwise_cluster",
    "Poset",
    "PosetNode",
    "PublisherProfile",
    "SubscriptionProfile",
    "merge_profiles",
    "Relation",
    "EPSILON",
    "approx_eq",
    "approx_ge",
    "approx_le",
    "approx_zero",
    "AllocationUnit",
    "SubscriptionRecord",
    "units_from_records",
    "BrokerLoad",
    "ValidationReport",
    "Violation",
    "validate_deployment",
    "deployment_from_dict",
    "deployment_to_dict",
    "load_deployment",
    "save_deployment",
]
