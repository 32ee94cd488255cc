"""Command-line interface: run experiments and regenerate figures.

Usage (after installing the package)::

    python -m repro run --scenario homo --subs 25 --scale 0.25 \
        --approach manual --approach cram-ios
    python -m repro figure --figure brokers --scenario het \
        --subs 12 --subs 25 --scale 0.15 --jobs 4
    python -m repro list

``--jobs N`` fans independent (scenario, approach) cells out to N
worker processes (``0`` = one per CPU) with results bit-identical to
the serial default.

Results print as aligned text tables; ``--csv PATH`` / ``--json PATH``
additionally export machine-readable copies.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import List, Optional, Sequence

from repro.core import allocators
from repro.core.croc import ReconfigurationError
from repro.experiments.parallel import CellSpec, execute_cells
from repro.experiments.report import format_rows, summarize_pareto
from repro.experiments.runner import APPROACHES
from repro.obs import export as obs_export
from repro.obs import report as obs_report
from repro.experiments.sweeps import (
    FIGURES,
    figure_rows,
    heterogeneous_scenarios,
    homogeneous_scenarios,
    pareto_front,
    scinet_scenarios,
    sweep,
)
from repro.sim.faults import FaultPlan

SCENARIO_FAMILIES = ("homo", "het", "scinet")


def _build_scenarios(args) -> list:
    if args.scenario == "homo":
        return homogeneous_scenarios(
            subs_sweep=args.subs, scale=args.scale,
            measurement_time=args.measurement_time,
        )
    if args.scenario == "het":
        return heterogeneous_scenarios(
            ns_sweep=args.subs, scale=args.scale,
            measurement_time=args.measurement_time,
        )
    return scinet_scenarios(scale=args.scale,
                            measurement_time=args.measurement_time)


def _export(rows: List[dict], args) -> None:
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(rows, handle, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", choices=SCENARIO_FAMILIES, default="homo",
                        help="scenario family (default: homo)")
    parser.add_argument("--subs", type=int, action="append",
                        help="subscriptions per publisher (repeatable; "
                             "default 25; Ns for the heterogeneous family)")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="scenario scale factor, 1.0 = paper size")
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--measurement-time", type=float, default=40.0,
                        help="virtual seconds per measurement window")
    parser.add_argument("--csv", help="also write rows to this CSV file")
    parser.add_argument("--json", help="also write rows to this JSON file")
    parser.add_argument("--faults", type=FaultPlan.from_spec, default=None,
                        metavar="SPEC",
                        help="fault plan, e.g. "
                             "'crash=0.1,start=5,downtime=30,loss=0.01,"
                             "jitter=0.002,seed=7' ('none' disables)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for independent cells "
                             "(default 1 = serial; 0 = one per CPU); "
                             "results are bit-identical to serial")
    parser.add_argument("--profile", metavar="DIR", default=None,
                        help="profile each cell with cProfile and write "
                             "DIR/<scenario>__<approach>.pstats (forces "
                             "serial execution; results stay bit-identical)")
    parser.add_argument("--obs", metavar="PATH", default=None,
                        help="record phase spans / counters / timelines "
                             "and write them to PATH (JSONL, or JSON "
                             "with a .json suffix); outputs stay "
                             "bit-identical to an unobserved run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Green resource allocation for publish/subscribe "
                    "(ICDCS 2011) — experiment driver",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # No abbreviations: a retired option such as ``--energy`` must fail
    # instead of silently meaning ``--energy-out``.
    run_cmd = commands.add_parser(
        "run", help="run one or more approaches on one scenario family",
        allow_abbrev=False,
    )
    _add_common(run_cmd)
    run_cmd.add_argument("--approach", action="append", choices=APPROACHES,
                         help="repeatable; default: manual + cram-ios")
    run_cmd.add_argument("--pareto", action="store_true",
                         help="rank the approaches by non-dominated "
                              "{brokers, joules, delay, delivery_rate} "
                              "vectors; prints the energy table too")
    run_cmd.add_argument("--energy-out", metavar="PATH", default=None,
                         help="print the energy table and write the "
                              "energy (and, with --pareto, pareto) records "
                              "to PATH (JSONL, or JSON with a .json suffix) "
                              "for 'repro report pareto'")

    figure_cmd = commands.add_parser(
        "figure", help="regenerate one of the paper's figures",
        allow_abbrev=False,
    )
    _add_common(figure_cmd)
    figure_cmd.add_argument("--figure", choices=sorted(FIGURES), required=True)
    figure_cmd.add_argument("--approach", action="append", choices=APPROACHES,
                            help="repeatable; default: all")

    report_cmd = commands.add_parser(
        "report", help="summarize a recorded artifact"
    )
    report_cmd.add_argument("kind", choices=["obs", "pareto"],
                            help="artifact type (obs = observation "
                                 "export, pareto = energy export)")
    report_cmd.add_argument("path",
                            help="export written by --obs / --energy-out")
    report_cmd.add_argument("--no-wall", action="store_true",
                            help="omit wall-clock columns (the remaining "
                                 "summary is deterministic)")

    commands.add_parser("list", help="list approaches, figures, scenarios")
    return parser


def _write_obs(path: str, labeled_results) -> None:
    """Merge per-cell snapshots (submission order) and write the export."""
    observations = [
        (label, result.obs)
        for label, result in labeled_results
        if result.obs is not None
    ]
    records = obs_export.merge_observations(observations)
    obs_export.write_export(path, records)
    print(f"wrote {path}", file=sys.stderr)


def _print_energy(args, finished) -> None:
    """Energy table, optional Pareto ranking, optional export file.

    ``finished`` is the list of ``(CellSpec, ExperimentResult)`` pairs
    that completed; failed cells are already reported by the caller.
    Joules are read from each result under the default
    :class:`~repro.core.energy.EnergySpec`.
    """
    if not finished:
        return
    energy_rows = [cell.energy_row() for _spec, cell in finished]
    print()
    print("energy:")
    print(format_rows(energy_rows))
    front = None
    if args.pareto:
        results = {
            (spec.scenario.name, spec.approach): cell
            for spec, cell in finished
        }
        front = pareto_front(results)
        objectives = " ".join(
            f"{key}{'↑' if maximize else '↓'}"
            for key, maximize in front.objectives
        )
        print()
        print(f"pareto ranking ({objectives}; * = non-dominated):")
        print(format_rows(front.rows()))
    if args.energy_out:
        labeled = []
        for spec, cell in finished:
            scenario_name = spec.scenario.name
            label = f"{scenario_name}/{spec.approach}"
            labeled.append((label, cell.energy().export_record(
                label, scenario_name, spec.approach)))
        records = obs_export.energy_export(labeled)
        if front is not None:
            for entry in front.entries:
                records.append({
                    "record": "pareto",
                    "cell": entry.cell,
                    "scenario": entry.scenario,
                    "approach": entry.approach,
                    "rank": entry.rank,
                    "front": entry.rank == 1,
                })
        obs_export.write_export(args.energy_out, records)
        print(f"wrote {args.energy_out}", file=sys.stderr)


def cmd_run(args) -> int:
    approaches = args.approach or ["manual", "cram-ios"]
    scenarios = _build_scenarios(args)
    specs = [
        CellSpec(scenario=scenario, approach=approach, seed=args.seed,
                 fault_plan=args.faults, observe=bool(args.obs))
        for scenario in scenarios
        for approach in approaches
    ]
    cells = execute_cells(
        specs, jobs=args.jobs,
        progress=lambda label: print(f"running {label} ...", file=sys.stderr),
        return_exceptions=True,
        profile_dir=args.profile,
    )
    rows = []
    failures = []
    for spec, cell in zip(specs, cells):
        if isinstance(cell, BaseException):  # keep the remaining cells
            print(f"error: {spec.label}: {cell}", file=sys.stderr)
            failures.append((spec.scenario.name, spec.approach, cell))
            continue
        rows.append(cell.as_row())
    if rows:
        print(format_rows(rows))
        _export(rows, args)
    if args.pareto or args.energy_out:
        finished = [
            (spec, cell) for spec, cell in zip(specs, cells)
            if not isinstance(cell, BaseException)
        ]
        _print_energy(args, finished)
    if args.obs:
        _write_obs(args.obs, [
            (f"{spec.scenario.name}/{spec.approach}", cell)
            for spec, cell in zip(specs, cells)
            if not isinstance(cell, BaseException)
        ])
    if failures:
        print(f"{len(failures)} cell(s) failed:", file=sys.stderr)
        for scenario_name, approach, exc in failures:
            print(f"  {scenario_name} / {approach}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_figure(args) -> int:
    approaches = tuple(args.approach or APPROACHES)
    scenarios = _build_scenarios(args)
    try:
        results = sweep(
            scenarios, approaches, seed=args.seed,
            progress=lambda label: print(f"running {label} ...", file=sys.stderr),
            fault_plan=args.faults,
            jobs=args.jobs,
            observe=bool(args.obs),
            profile_dir=args.profile,
        )
    except ReconfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = figure_rows(results, scenarios, approaches, FIGURES[args.figure])
    print(f"figure: {args.figure} ({FIGURES[args.figure]})")
    print(format_rows(rows))
    if rows:
        _export(rows, args)
    if args.obs:
        _write_obs(args.obs, [
            (f"{scenario_name}/{approach}", result)
            for (scenario_name, approach), result in results.items()
        ])
    return 0


def cmd_report(args) -> int:
    try:
        records = obs_export.read_export(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.kind == "pareto":
            summary = summarize_pareto(records)
        else:
            summary = obs_report.summarize(
                records, include_wall=not args.no_wall)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary, end="")
    return 0


def cmd_list(_args) -> int:
    print("approaches:")
    for approach in APPROACHES:
        tag = "  [incremental]" if approach in allocators.INCREMENTAL else ""
        print(f"  {approach}{tag}")
    print("figures:")
    for name, metric in sorted(FIGURES.items()):
        print(f"  {name:20s} -> {metric}")
    print("scenario families:")
    for family in SCENARIO_FAMILIES:
        print(f"  {family}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("run", "figure") and not args.subs:
        args.subs = [25]
    if args.command == "run":
        return cmd_run(args)
    if args.command == "figure":
        return cmd_figure(args)
    if args.command == "report":
        return cmd_report(args)
    return cmd_list(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
