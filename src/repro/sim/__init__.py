"""Deterministic discrete-event simulation substrate.

The paper evaluates on a 21-node cluster and the SciNet HPC platform.
This package replaces the physical testbeds with a virtual-time
discrete-event engine: brokers, clients, and links are simulation
actors, message transmission and matching consume virtual time, and all
randomness flows through seeded generators so every experiment is
exactly reproducible.
"""

from __future__ import annotations

from repro.sim.engine import Event, Simulator
from repro.sim.estimator import BrokerLoadEstimator, LoadSample
from repro.sim.faults import FaultEvent, FaultPlan
from repro.sim.rng import SeededRng, derive_seed

__all__ = [
    "Event",
    "Simulator",
    "BrokerLoadEstimator",
    "LoadSample",
    "FaultEvent",
    "FaultPlan",
    "SeededRng",
    "derive_seed",
]
