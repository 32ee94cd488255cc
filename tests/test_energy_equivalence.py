"""Bit-identity for energy accounting.

The energy model's core contract: attaching it is pure post-processing
of already-measured counters, so

* every non-energy output of an energy-attached run is bit-identical
  to the same run without energy accounting;
* energy totals are identical serial vs ``jobs=4`` (the spawn pool
  ships ``EnergySpec`` inside the pickled ``CellSpec``);
* energy totals are identical with and without an obs recorder;
* all of the above hold under a fault plan (crash downtime feeds the
  crashed-watts term without perturbing the simulation).
"""

from __future__ import annotations

import pickle

from repro.core.config import RunConfig
from repro.core.energy import EnergySpec
from repro.experiments.parallel import CellSpec, execute_cells
from repro.obs import recorder as obs
from repro.sim.faults import FaultPlan

from test_parallel_equivalence import comparable, tiny_homo

ENERGY = EnergySpec()

FAULTS = FaultPlan(
    crash_fraction=0.25, crash_start=4.0, downtime=5.0,
    loss_rate=0.01, jitter=0.001, seed=5,
)


def energy_cells(energy=ENERGY, observe=False, fault_plan=None):
    scenario = tiny_homo()[0]
    config = RunConfig(energy=energy) if energy is not None else None
    return [
        CellSpec(
            scenario=scenario, approach=approach, seed=11,
            observe=observe, fault_plan=fault_plan, config=config,
        )
        for approach in ("manual", "binpacking", "cram-ios")
    ]


def energy_comparable(result):
    """The energy outputs covered by the bit-identity contract."""
    return {
        "report": repr(result.energy),
        "row": {key: repr(value) for key, value in result.energy_row().items()},
    }


class TestAttachedEqualsDetached:
    def test_non_energy_outputs_are_bit_identical(self):
        detached = execute_cells(energy_cells(energy=None), jobs=1)
        attached = execute_cells(energy_cells(), jobs=1)
        for without, with_energy in zip(detached, attached):
            assert comparable(without) == comparable(with_energy)
            assert without.energy is None
            assert with_energy.energy is not None

    def test_under_faults_too(self):
        detached = execute_cells(
            energy_cells(energy=None, fault_plan=FAULTS), jobs=1
        )
        attached = execute_cells(energy_cells(fault_plan=FAULTS), jobs=1)
        crashed = False
        for without, with_energy in zip(detached, attached):
            assert comparable(without) == comparable(with_energy)
            crashed = crashed or with_energy.summary.broker_crashes > 0
        assert crashed  # the plan actually did something


class TestSerialEqualsParallel:
    def test_energy_identical_serial_vs_jobs4(self):
        cells = energy_cells()
        serial = execute_cells(cells, jobs=1)
        pooled = execute_cells(cells, jobs=4)
        for spec, one, many in zip(cells, serial, pooled):
            assert comparable(one) == comparable(many), spec.approach
            assert energy_comparable(one) == energy_comparable(many)

    def test_energy_identical_under_faults(self):
        cells = energy_cells(fault_plan=FAULTS)
        serial = execute_cells(cells, jobs=1)
        pooled = execute_cells(cells, jobs=2)
        for spec, one, many in zip(cells, serial, pooled):
            assert energy_comparable(one) == energy_comparable(many), (
                spec.approach
            )

    def test_energy_config_survives_pickling(self):
        spec = energy_cells()[0]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.config.energy == ENERGY


class TestObsNeutrality:
    def test_energy_identical_with_and_without_recorder(self):
        plain = execute_cells(energy_cells(), jobs=1)
        observed_cells = energy_cells(observe=True)
        with obs.attached(obs.Recorder()):
            observed = execute_cells(observed_cells, jobs=1)
        for without, with_obs in zip(plain, observed):
            assert energy_comparable(without) == energy_comparable(with_obs)
            assert comparable(without) == comparable(with_obs)
