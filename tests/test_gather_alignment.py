"""Every gather is one alignment, so every gathered pool packs.

Broker reports are snapshots taken at different virtual times.  Under
loss or jitter a vector gathered from one broker can hold a message ID
newer than its publisher's report, and a publisher whose home broker
was silent is in no report at all.  ``Croc._assemble`` raises each
publisher's last message ID to the newest ID any gathered vector
reached, and slides an unreported publisher's vectors to theirs, so
after ``synchronize`` all vectors of a publisher share one window.

The property runs the ``LOADED`` cell of
``tests/test_engine_equivalence.py`` under loss x jitter, optionally
with one publisher's home broker crashing for good mid-profiling, and
checks what CROC gathered.
"""

from __future__ import annotations

import functools
from typing import Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.croc import GatherResult
from repro.experiments.runner import ExperimentRunner
from repro.sim.faults import FaultPlan

from test_engine_equivalence import LOADED

#: Virtual time of the home-broker crash: inside the profiling window.
CRASH_AT = 30.0


def home_broker(seed: int, publisher: int) -> str:
    """The broker the ``LOADED`` cell's MANUAL deployment gives a publisher."""
    runner = ExperimentRunner(LOADED, seed=seed)
    placement = runner._deploy_manual(runner._build_network()).publisher_placement
    return placement[sorted(placement)[publisher]]


@functools.lru_cache(maxsize=None)
def gathered_under(loss: float, jitter: float, seed: int,
                   crashed_publisher: Optional[int] = None) -> GatherResult:
    """What CROC gathered in a ``cram-ios`` run of the ``LOADED`` cell.

    Gathers are read, never mutated, by their users, so one per plan
    and seed is kept.
    """
    plan = FaultPlan(loss_rate=loss, jitter=jitter, seed=5)
    if crashed_publisher is not None:
        plan.crash(CRASH_AT, home_broker(seed, crashed_publisher))
    runner = ExperimentRunner(LOADED, seed=seed, fault_plan=plan)
    runner.run("cram-ios")
    assert runner.last_gather is not None
    return runner.last_gather


def assert_one_alignment(gathered: GatherResult) -> None:
    """One window per publisher, and no vector ahead of the directory."""
    windows = {}
    for record in gathered.records:
        for adv_id, vector in record.profile.items():
            windows.setdefault(adv_id, set()).add((vector.first_id, vector.capacity))
            bits = vector.raw_bits()
            publisher = gathered.directory.get(adv_id)
            if bits and publisher is not None:
                newest_bit = vector.first_id + bits.bit_length() - 1
                assert publisher.last_message_id >= newest_bit, (adv_id, record.sub_id)
    assert {adv_id: seen for adv_id, seen in windows.items() if len(seen) > 1} == {}


@settings(max_examples=20)
@given(
    loss=st.sampled_from([0.0, 0.01, 0.05]),
    jitter=st.sampled_from([0.0, 0.001, 0.05]),
    seed=st.sampled_from([1, 2, 3, 2011]),
    crashed_publisher=st.none() | st.integers(0, len(LOADED.symbols) - 1),
)
# The gathers that left windows apart before each gather was aligned.
@example(loss=0.05, jitter=0.0, seed=2, crashed_publisher=None)
@example(loss=0.05, jitter=0.0, seed=3, crashed_publisher=None)
@example(loss=0.05, jitter=0.0, seed=2011, crashed_publisher=None)
@example(loss=0.0, jitter=0.05, seed=1, crashed_publisher=None)
def test_prop_every_gather_is_one_alignment(loss, jitter, seed, crashed_publisher):
    assert_one_alignment(gathered_under(loss, jitter, seed, crashed_publisher))
