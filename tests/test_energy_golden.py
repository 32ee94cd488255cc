"""Golden-file pins for the energy export schema and `report pareto`.

Two fixtures live in ``tests/data/``:

* ``energy_export_golden.jsonl`` — a synthetic three-approach energy
  export (energy + pareto records), pinning the JSONL record shapes
  byte-for-byte.
* ``pareto_golden.txt`` — the ``report pareto`` terminal summary for
  that export (fully deterministic: no wall-clock columns exist).

Regenerate both after an intentional schema change with::

    PYTHONPATH=src python tests/test_energy_golden.py --regen
"""

from __future__ import annotations

import pathlib

from repro.core.energy import EnergySpec, WindowUsage, account_window
from repro.experiments.cli import main
from repro.experiments.report import summarize_pareto
from repro.experiments.sweeps import PARETO_OBJECTIVES, ParetoFront
from repro.obs.export import (
    dumps_jsonl,
    energy_export,
    loads_jsonl,
    read_export,
    validate_records,
    write_export,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"
GOLDEN_JSONL = DATA_DIR / "energy_export_golden.jsonl"
GOLDEN_SUMMARY = DATA_DIR / "pareto_golden.txt"

SPEC = EnergySpec(
    idle_watts=50.0,
    active_watts=100.0,
    matching_joules=0.1,
    transmission_joules_per_kb=0.05,
    crashed_watts=5.0,
)

#: Three hand-built windows over one scenario: manual burns brokers,
#: cram-ios consolidates, binpacking sits in between but pays worse
#: delay and delivery rate (so the front has a dominated point).
USAGES = {
    "manual": WindowUsage(
        duration_s=40.0,
        pool_size=8,
        active_brokers=("B1", "B2", "B3", "B4"),
        messages={f"B{i}": 100.0 for i in range(1, 5)},
        bytes_out_kb={f"B{i}": 50.0 for i in range(1, 5)},
        utilization={f"B{i}": 0.1 for i in range(1, 5)},
        downtime_s={},
        deliveries=400,
        mean_delay_s=0.08,
        delivery_rate=1.0,
    ),
    "cram-ios": WindowUsage(
        duration_s=40.0,
        pool_size=8,
        active_brokers=("B1",),
        messages={"B1": 400.0},
        bytes_out_kb={"B1": 200.0},
        utilization={"B1": 0.4},
        downtime_s={},
        deliveries=400,
        mean_delay_s=0.12,
        delivery_rate=1.0,
    ),
    "binpacking": WindowUsage(
        duration_s=40.0,
        pool_size=8,
        active_brokers=("B1", "B2"),
        messages={"B1": 200.0, "B2": 180.0},
        bytes_out_kb={"B1": 100.0, "B2": 90.0},
        utilization={"B1": 0.2, "B2": 0.18},
        downtime_s={"B2": 4.0},
        deliveries=380,
        mean_delay_s=0.15,
        delivery_rate=0.95,
    ),
}

SCENARIO = "homo-25"


def synthetic_export() -> list:
    """A deterministic three-cell energy export with pareto records."""
    labeled = []
    for approach in ("manual", "cram-ios", "binpacking"):
        report = account_window(SPEC, USAGES[approach])
        label = f"{SCENARIO}/{approach}"
        labeled.append(
            (label, report.export_record(label, SCENARIO, approach))
        )
    records = energy_export(labeled)
    front = ParetoFront.from_vectors([
        (
            str(record["cell"]),
            str(record["scenario"]),
            str(record["approach"]),
            {key: float(record[key]) for key, _max in PARETO_OBJECTIVES},
        )
        for _label, record in labeled
    ])
    for entry in front.entries:
        records.append({
            "record": "pareto",
            "cell": entry.cell,
            "scenario": entry.scenario,
            "approach": entry.approach,
            "rank": entry.rank,
            "front": entry.rank == 1,
        })
    return records


class TestGoldenFixtures:
    def test_jsonl_schema_is_pinned(self):
        assert dumps_jsonl(synthetic_export()) == GOLDEN_JSONL.read_text()

    def test_golden_export_validates(self):
        records = loads_jsonl(GOLDEN_JSONL.read_text())
        assert validate_records(records) == []

    def test_report_summary_is_pinned(self):
        records = loads_jsonl(GOLDEN_JSONL.read_text())
        assert summarize_pareto(records) == GOLDEN_SUMMARY.read_text()

    def test_front_shape(self):
        """cram-ios and manual are non-dominated; binpacking is not."""
        records = loads_jsonl(GOLDEN_JSONL.read_text())
        ranks = {
            record["approach"]: record["rank"]
            for record in records
            if record["record"] == "pareto"
        }
        assert ranks == {"manual": 1, "cram-ios": 1, "binpacking": 2}

    def test_summary_survives_a_file_round_trip(self, tmp_path):
        records = synthetic_export()
        for name in ("export.jsonl", "export.json"):
            path = tmp_path / name
            write_export(str(path), records)
            assert read_export(str(path)) == records
            assert summarize_pareto(
                read_export(str(path))
            ) == GOLDEN_SUMMARY.read_text()


class TestValidatorRejectsBadEnergyRecords:
    def broken(self, **overrides):
        records = synthetic_export()
        for record in records:
            if record["record"] == "energy":
                record.update(overrides)
                break
        return records

    def test_negative_joules_rejected(self):
        errors = validate_records(self.broken(joules=-1.0))
        assert any("joules below 0.0" in error for error in errors)

    def test_non_numeric_energy_field_rejected(self):
        errors = validate_records(self.broken(idle_joules="lots"))
        assert any("idle_joules is not a number" in error for error in errors)

    def test_delivery_rate_above_one_rejected(self):
        errors = validate_records(self.broken(delivery_rate=1.5))
        assert any("delivery_rate above 1.0" in error for error in errors)

    def test_missing_scenario_rejected(self):
        errors = validate_records(self.broken(scenario=None))
        assert any("without a scenario" in error for error in errors)

    def test_pareto_rank_zero_rejected(self):
        records = synthetic_export()
        for record in records:
            if record["record"] == "pareto":
                record["rank"] = 0
                break
        errors = validate_records(records)
        assert any("rank below 1.0" in error for error in errors)

    def test_pareto_fractional_rank_rejected(self):
        records = synthetic_export()
        for record in records:
            if record["record"] == "pareto":
                record["rank"] = 1.5
                break
        errors = validate_records(records)
        assert any("rank is not an integer" in error for error in errors)

    def test_report_refuses_invalid_export(self):
        import pytest

        with pytest.raises(ValueError, match="invalid observation export"):
            summarize_pareto(self.broken(joules=-1.0))

    def test_report_refuses_export_without_energy(self):
        import pytest

        records = [record for record in synthetic_export()
                   if record["record"] == "header"]
        with pytest.raises(ValueError, match="no energy records"):
            summarize_pareto(records)


class TestCliPareto:
    def test_run_pareto_then_report(self, tmp_path, capsys):
        """End-to-end: --pareto writes a valid export, `report pareto`
        reads it back and recomputes the same front."""
        out_path = tmp_path / "energy.jsonl"
        code = main([
            "run", "--scenario", "homo", "--subs", "8", "--scale", "0.1",
            "--approach", "manual", "--approach", "binpacking",
            "--approach", "cram-ios", "--measurement-time", "10",
            "--pareto", "--energy-out", str(out_path),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "energy:" in captured.out
        assert "pareto ranking" in captured.out
        assert f"wrote {out_path}" in captured.err
        records = read_export(str(out_path))
        assert validate_records(records) == []
        kinds = {record["record"] for record in records}
        assert kinds == {"header", "energy", "pareto"}
        assert len([r for r in records if r["record"] == "energy"]) == 3

        assert main(["report", "pareto", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "pareto front — schema repro-obs/1, 3 cell(s)" in out
        assert "energy detail:" in out

    def test_pareto_front_is_deterministic_across_runs(self, tmp_path,
                                                       capsys):
        args = [
            "run", "--scenario", "homo", "--subs", "8", "--scale", "0.1",
            "--approach", "manual", "--approach", "cram-ios",
            "--measurement-time", "10", "--pareto",
        ]
        outputs = []
        for path in (tmp_path / "a.jsonl", tmp_path / "b.jsonl"):
            assert main(args + ["--energy-out", str(path)]) == 0
            capsys.readouterr()
            outputs.append(path.read_text())
        assert outputs[0] == outputs[1]

    def test_energy_flag_without_pareto_prints_table_only(self, tmp_path,
                                                          capsys):
        """``--energy-out`` without ``--pareto`` prints the energy table
        and no ranking."""
        code = main([
            "run", "--scenario", "homo", "--subs", "8", "--scale", "0.1",
            "--approach", "binpacking", "--measurement-time", "10",
            "--energy-out", str(tmp_path / "energy.jsonl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy:" in out
        assert "pareto" not in out

    def test_lone_energy_out_writes_the_energy_records(self, tmp_path,
                                                       capsys):
        """``--energy-out`` alone writes one ``energy`` record per
        approach and no ``pareto`` record."""
        out_path = tmp_path / "energy.jsonl"
        code = main([
            "run", "--scenario", "homo", "--subs", "8", "--scale", "0.1",
            "--approach", "manual", "--approach", "cram-ios",
            "--measurement-time", "10", "--energy-out", str(out_path),
        ])
        assert code == 0
        assert f"wrote {out_path}" in capsys.readouterr().err
        records = read_export(str(out_path))
        assert validate_records(records) == []
        energy = [r["approach"] for r in records if r["record"] == "energy"]
        assert energy == ["manual", "cram-ios"]
        assert not [r for r in records if r["record"] == "pareto"]


def _regen() -> None:
    records = synthetic_export()
    GOLDEN_JSONL.write_text(dumps_jsonl(records))
    GOLDEN_SUMMARY.write_text(summarize_pareto(records))
    print(f"regenerated {GOLDEN_JSONL} and {GOLDEN_SUMMARY}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
