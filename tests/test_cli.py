"""Tests for the command-line interface."""

import csv
import json

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.runner import APPROACHES
from repro.sim.faults import FaultPlan


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "homo"
        assert args.scale == 0.25

    def test_figure_requires_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure"])

    def test_unknown_approach_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--approach", "magic"])

    def test_approach_choices_come_from_the_registry(self):
        for approach in APPROACHES:
            args = build_parser().parse_args(["run", "--approach", approach])
            assert args.approach == [approach]

    def test_faults_spec_parses_to_a_plan(self):
        args = build_parser().parse_args(
            ["run", "--faults", "crash=0.1,downtime=30,loss=0.01,seed=7"]
        )
        assert isinstance(args.faults, FaultPlan)
        assert args.faults.crash_fraction == pytest.approx(0.1)
        assert args.faults.downtime == pytest.approx(30.0)
        assert args.faults.loss_rate == pytest.approx(0.01)
        assert args.faults.seed == 7

    def test_faults_defaults_to_no_plan(self):
        assert build_parser().parse_args(["run"]).faults is None
        assert build_parser().parse_args(["run", "--faults", "none"]).faults.is_empty

    def test_bad_faults_spec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--faults", "crash=lots"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--faults", "meteor=1"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cram-ios" in out
        assert "  fij-trade  [incremental]\n" in out
        assert "inc-trade" not in out
        assert "  cram-ios\n" in out
        assert "message-rate" in out
        assert "scinet" in out

    def test_run_prints_table_and_exports(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        code = main([
            "run", "--scenario", "homo", "--subs", "8", "--scale", "0.1",
            "--approach", "manual",
            "--measurement-time", "10",
            "--csv", str(csv_path), "--json", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "manual" in out
        with open(csv_path) as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["approach"] == "manual"
        with open(json_path) as handle:
            data = json.load(handle)
        assert data[0]["approach"] == "manual"

    def test_figure_command(self, capsys):
        code = main([
            "figure", "--figure", "brokers", "--scenario", "homo",
            "--subs", "8", "--scale", "0.1",
            "--approach", "manual", "--approach", "binpacking",
            "--measurement-time", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "figure: brokers" in out
        assert "binpacking" in out

    def test_run_continues_past_failing_cells_and_exits_nonzero(
        self, monkeypatch, capsys
    ):
        import repro.experiments.cli as cli_module
        from repro.experiments.parallel import run_spec

        def flaky_execute_cells(specs, jobs=1, progress=None,
                                return_exceptions=False, profile_dir=None):
            results = []
            for spec in specs:
                if progress is not None:
                    progress(spec.label)
                if spec.approach == "binpacking":
                    results.append(RuntimeError("injected cell failure"))
                else:
                    results.append(run_spec(spec))
            return results

        monkeypatch.setattr(cli_module, "execute_cells", flaky_execute_cells)
        code = main([
            "run", "--scenario", "homo", "--subs", "8", "--scale", "0.1",
            "--approach", "binpacking", "--approach", "manual",
            "--measurement-time", "10",
        ])
        assert code == 2
        captured = capsys.readouterr()
        # The surviving cell still ran and printed its row...
        assert "manual" in captured.out
        # ...and the failure is reported on stderr.
        assert "1 cell(s) failed" in captured.err
        assert "injected cell failure" in captured.err

    def test_run_with_faults_reaches_the_runner(self, capsys):
        code = main([
            "run", "--scenario", "homo", "--subs", "8", "--scale", "0.1",
            "--approach", "manual", "--measurement-time", "10",
            "--faults", "none",
        ])
        assert code == 0
        assert "manual" in capsys.readouterr().out

    def test_run_profile_dumps_pstats_per_cell(self, tmp_path, capsys):
        import pstats

        profile_dir = tmp_path / "profiles"
        code = main([
            "run", "--scenario", "homo", "--subs", "8", "--scale", "0.1",
            "--approach", "manual", "--approach", "binpacking",
            "--measurement-time", "10",
            "--profile", str(profile_dir),
        ])
        assert code == 0
        dumps = sorted(path.name for path in profile_dir.glob("*.pstats"))
        assert len(dumps) == 2
        assert any("manual" in name for name in dumps)
        assert any("binpacking" in name for name in dumps)
        # Each dump is a loadable profile that saw the simulation run.
        stats = pstats.Stats(str(profile_dir / dumps[0]))
        assert stats.total_calls > 0

    def test_profile_forces_serial_and_stays_bit_identical(
        self, tmp_path, capsys
    ):
        args = [
            "run", "--scenario", "homo", "--subs", "8", "--scale", "0.1",
            "--approach", "manual", "--measurement-time", "10",
            "--json",
        ]
        bare_json = tmp_path / "bare.json"
        assert main(args + [str(bare_json)]) == 0
        profiled_json = tmp_path / "profiled.json"
        assert main(
            args + [str(profiled_json), "--jobs", "4",
                    "--profile", str(tmp_path / "prof")]
        ) == 0
        err = capsys.readouterr().err
        assert "profiling forces serial execution" in err
        with open(bare_json) as handle:
            bare = json.load(handle)
        with open(profiled_json) as handle:
            profiled = json.load(handle)
        for row in (*bare, *profiled):
            row.pop("computation_s")  # wall-clock, not simulation output
        assert bare == profiled

    def test_figure_profile_dumps_pstats(self, tmp_path, capsys):
        profile_dir = tmp_path / "profiles"
        code = main([
            "figure", "--figure", "brokers", "--scenario", "homo",
            "--subs", "8", "--scale", "0.1", "--approach", "manual",
            "--measurement-time", "10", "--profile", str(profile_dir),
        ])
        assert code == 0
        assert list(profile_dir.glob("*.pstats"))
