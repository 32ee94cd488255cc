"""Bit-identity for online reallocation.

The online subsystem joins three existing equivalence contracts:

* the online approach ``fij-trade`` and the CRAM-IOS it allocates with
  produce identical results under ``execute_cells`` serial vs ``jobs=4``;
* an attached obs recorder never changes the deterministic outputs;
* the mixed schedule (online steps between full CROC cycles) is a pure
  function of ``(scenario, seed, OnlineSpec)`` — two invocations agree
  bit for bit, with or without observability.
"""

from __future__ import annotations

import pickle

from repro.core.config import RunConfig
from repro.core.online import OnlineSpec
from repro.experiments.parallel import CellSpec, execute_cells
from repro.experiments.runner import ExperimentRunner
from repro.obs import recorder as obs
from repro.workloads.scenarios import cluster_homogeneous

from test_parallel_equivalence import comparable, tiny_homo

ONLINE = OnlineSpec(strategy="fij_trade", steps=2, gap=0.02)


def online_cells(observe: bool = False):
    scenario = tiny_homo()[0]
    return [
        CellSpec(
            scenario=scenario,
            approach=approach,
            seed=11,
            observe=observe,
            config=RunConfig(online=ONLINE),
        )
        for approach in ("fij-trade", "cram-ios")
    ]


def continuous_rows(seed: int = 17, observe: bool = False):
    """Run the mixed schedule end to end; return the report rows."""
    scenario = cluster_homogeneous(
        subscriptions_per_publisher=10,
        scale=0.1,
        broker_bandwidth_kbps=25.0,
        profile_capacity=96,
    )
    runner = ExperimentRunner(
        scenario, seed=seed,
        config=RunConfig(online=OnlineSpec(strategy="fij_trade", steps=2)),
    )
    def go():
        return runner.run_continuous(
            "fij-trade", cycles=2,
            profiling_time=scenario.derived_profiling_time(),
            measurement_time=6.0,
        )
    if observe:
        with obs.attached(obs.Recorder()):
            reports = go()
    else:
        reports = go()
    return [
        {key: repr(value) for key, value in report.as_row().items()}
        for report in reports
    ]


class TestOneShotApproaches:
    def test_jobs4_equals_serial(self):
        cells = online_cells()
        serial = execute_cells(cells, jobs=1)
        pooled = execute_cells(cells, jobs=4)
        for spec, one, many in zip(cells, serial, pooled):
            assert comparable(one) == comparable(many), spec.approach

    def test_attached_equals_detached(self):
        for detached, attached in zip(
            execute_cells(online_cells(), jobs=1),
            execute_cells(online_cells(observe=True), jobs=1),
        ):
            assert comparable(detached) == comparable(attached)
            assert detached.obs is None
            assert attached.obs is not None

    def test_cell_config_survives_pickling(self):
        # The spawn pool ships each CellSpec to a fresh interpreter;
        # the online knobs must ride along unchanged.
        cell = online_cells()[0]
        clone = pickle.loads(pickle.dumps(cell))
        assert clone.config.online == ONLINE
        assert clone.config == cell.config


class TestMixedSchedule:
    def test_two_runs_agree_bit_for_bit(self):
        assert continuous_rows(seed=17) == continuous_rows(seed=17)

    def test_obs_attached_equals_detached(self):
        assert continuous_rows(observe=False) == continuous_rows(observe=True)

    def test_reports_carry_online_columns(self):
        rows = continuous_rows()
        assert len(rows) == 2
        for row in rows:
            assert row["online_steps"] == repr(2)
            assert "subscriptions_moved" in row
            assert "migration_gap_s" in row
            assert "drift" in row
