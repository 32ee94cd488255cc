"""Property-based tests over the allocation algorithms.

Hypothesis generates random subscription pools (random per-publisher
bit patterns, random bandwidth spreads) and broker pools, and checks
the invariants every Phase-2 allocator must uphold:

* every subscription is placed exactly once (no loss, no duplication);
* no broker exceeds its output bandwidth;
* no broker's input union exceeds its maximum matching rate;
* CRAM never returns more brokers than BIN PACKING on the same input;
* failure is reported honestly (a failed result names the unit that
  did not fit).
"""

from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binpacking import BinPackingAllocator
from repro.core.capacity import BrokerSpec, MatchingDelayFunction
from repro.core.cram import CramAllocator
from repro.core.fbf import FbfAllocator
from repro.core.profiles import PublisherProfile
from repro.core.units import AllocationUnit, units_from_records
from repro.sim.rng import SeededRng

import profile_oracle
from conftest import make_kernel, make_record

WINDOW = 48

publishers = st.lists(
    st.sampled_from(["P0", "P1", "P2", "P3"]), min_size=1, max_size=2, unique=True
)

subscription_specs = st.lists(
    st.tuples(
        publishers,
        st.integers(min_value=1, max_value=WINDOW),   # bits per publisher
        st.integers(min_value=0, max_value=WINDOW - 1),  # offset
    ),
    min_size=1,
    max_size=24,
)

broker_specs = st.lists(
    st.floats(min_value=5.0, max_value=200.0),
    min_size=2,
    max_size=8,
)


def build_pool(spec_list):
    directory: Dict[str, PublisherProfile] = {
        adv: PublisherProfile(adv, publication_rate=10.0, bandwidth=10.0,
                              last_message_id=WINDOW - 1)
        for adv in ("P0", "P1", "P2", "P3")
    }
    records = []
    for advs, width, offset in spec_list:
        bits_by_adv = {}
        for adv in advs:
            start = offset % WINDOW
            bits_by_adv[adv] = [
                (start + index) % WINDOW for index in range(min(width, WINDOW))
            ]
        records.append(make_record(bits_by_adv, capacity=WINDOW))
    units = units_from_records(records, directory)
    return units, directory


def build_brokers(bandwidths) -> List[BrokerSpec]:
    return [
        BrokerSpec(
            broker_id=f"H{i:02d}",
            total_output_bandwidth=bandwidth,
            delay_function=MatchingDelayFunction(base=1e-3, per_subscription=1e-5),
        )
        for i, bandwidth in enumerate(bandwidths)
    ]


def check_invariants(result, units, pool):
    if not result.success:
        assert result.failed_unit is not None
        return
    placement = result.subscription_placement()
    expected = {record.sub_id for unit in units for record in unit.members}
    assert set(placement) == expected
    specs = {spec.broker_id: spec for spec in pool}
    for bin_ in result.bins:
        spec = specs[bin_.spec.broker_id]
        assert bin_.used_bandwidth <= spec.total_output_bandwidth + 1e-6
        max_rate = spec.delay_function.max_matching_rate(bin_.subscription_count)
        assert bin_.input_rate <= max_rate + 1e-6


@given(spec_list=subscription_specs, bandwidths=broker_specs)
@settings(max_examples=40)
def test_prop_binpacking_invariants(spec_list, bandwidths):
    units, directory = build_pool(spec_list)
    pool = build_brokers(bandwidths)
    result = BinPackingAllocator().allocate(units, pool, directory)
    check_invariants(result, units, pool)


@given(spec_list=subscription_specs, bandwidths=broker_specs,
       seed=st.integers(0, 5))
@settings(max_examples=30)
def test_prop_fbf_invariants(spec_list, bandwidths, seed):
    units, directory = build_pool(spec_list)
    pool = build_brokers(bandwidths)
    result = FbfAllocator(rng=SeededRng(seed, "prop")).allocate(
        units, pool, directory
    )
    check_invariants(result, units, pool)


@given(spec_list=subscription_specs, bandwidths=broker_specs)
@settings(max_examples=25)
def test_prop_cram_invariants_and_dominance(spec_list, bandwidths):
    units, directory = build_pool(spec_list)
    pool = build_brokers(bandwidths)
    binpack = BinPackingAllocator().allocate(units, pool, directory)
    cram = CramAllocator(metric="ios", failure_budget=30)
    result = cram.allocate(units, pool, directory)
    assert result.success == binpack.success
    check_invariants(result, units, pool)
    if result.success:
        assert result.broker_count <= binpack.broker_count


@given(spec_list=subscription_specs, bandwidths=broker_specs)
@settings(max_examples=15)
def test_prop_cram_xor_invariants(spec_list, bandwidths):
    units, directory = build_pool(spec_list)
    pool = build_brokers(bandwidths)
    cram = CramAllocator(metric="xor", failure_budget=15)
    result = cram.allocate(units, pool, directory)
    check_invariants(result, units, pool)


@given(spec_list=subscription_specs)
@settings(max_examples=25)
def test_prop_merged_unit_conserves_members(spec_list):
    units, directory = build_pool(spec_list)
    merged = AllocationUnit.merged(units, directory, make_kernel(directory, units))
    assert merged.subscription_count == sum(u.subscription_count for u in units)
    assert merged.delivery_bandwidth == pytest.approx(
        sum(u.delivery_bandwidth for u in units)
    )
    for unit in units:
        assert profile_oracle.covers(merged.profile, unit.profile)
