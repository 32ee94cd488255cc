"""``python -m repro.tools lint`` — the *reprolint* command line.

Usage::

    python -m repro.tools lint [PATH ...]
        [--select RULE[,RULE...]] [--passes PASS[,PASS...]|none]
        [--usage PATH ...] [--list-rules] [--list-passes]

One pipeline: parse the project, run the per-file rules, run the
whole-program passes, print the findings as text.

Exit codes: 0 — clean; 1 — findings reported; 2 — usage error, I/O
error, or one or more files failed to parse.  Parse failures never
silently skip a file: every unparsable file is reported and forces
exit 2 even when there are no findings, so a syntax error cannot
masquerade as a clean run.  Default target is ``src`` when run from
the repo root.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.tools.engine import (
    Finding,
    LintError,
    all_rules,
    resolve_rules,
    run_rules,
)
from repro.tools.project import (
    ParseFailure,
    Project,
    all_passes,
    resolve_passes,
    run_passes,
)

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools lint",
        description=(
            "reprolint — per-file invariants plus whole-program layering, "
            "determinism-taint, and API-contract analysis"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src, else the cwd)",
    )
    parser.add_argument(
        "--select",
        metavar="RULE[,RULE...]",
        help="run only the named per-file rules",
    )
    parser.add_argument(
        "--passes",
        metavar="PASS[,PASS...]",
        help="run only the named whole-program passes ('none' disables them)",
    )
    parser.add_argument(
        "--usage",
        metavar="PATH",
        action="append",
        default=[],
        help=(
            "extra trees (tests, benchmarks) indexed for the dead-export "
            "scan but not linted; may repeat"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered per-file rules and exit",
    )
    parser.add_argument(
        "--list-passes",
        action="store_true",
        help="print the registered whole-program passes and exit",
    )
    return parser


def _default_paths() -> List[str]:
    return ["src"] if Path("src").is_dir() else ["."]


@dataclass
class LintRun:
    """Everything one invocation produced (the programmatic API)."""

    findings: List[Finding] = field(default_factory=list)
    parse_failures: List[ParseFailure] = field(default_factory=list)
    checked: int = 0
    rule_names: List[str] = field(default_factory=list)
    pass_names: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.parse_failures:
            return EXIT_ERROR
        if self.findings:
            return EXIT_FINDINGS
        return EXIT_CLEAN

    def render_text(self) -> str:
        """One line per parse failure and finding, then the summary line."""
        lines = [f"{failure} [parse-error]" for failure in self.parse_failures]
        lines += [str(finding) for finding in self.findings]
        if self.findings or self.parse_failures:
            status = f"{len(self.findings)} finding(s)"
            if self.parse_failures:
                status += f", {len(self.parse_failures)} parse failure(s)"
        else:
            status = "clean"
        lines.append(f"reprolint: {self.checked} file(s) checked, {status}")
        return "\n".join(lines)


def run_lint(
    paths: Sequence[str],
    *,
    select: Optional[Sequence[str]] = None,
    passes: Optional[Sequence[str]] = None,
    usage_paths: Sequence[str] = (),
) -> LintRun:
    """The full pipeline: parse, per-file rules, whole-program passes."""
    selected_rules = resolve_rules(select)
    selected_passes = resolve_passes(passes)

    project, parse_failures = Project.load(paths, usage_paths)
    findings: List[Finding] = []
    for name in sorted(project.modules):
        findings.extend(run_rules(project.modules[name].module, selected_rules))
    findings.extend(run_passes(project, selected_passes))

    return LintRun(
        findings=sorted(findings, key=lambda finding: finding.sort_key),
        parse_failures=parse_failures,
        checked=len(project.modules),
        rule_names=[rule_.name for rule_ in selected_rules],
        pass_names=[pass_.name for pass_ in selected_passes],
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = build_parser().parse_args(argv)

    if options.list_rules:
        for rule_ in all_rules():
            print(f"{rule_.name:22s} {rule_.summary}")
        return EXIT_CLEAN
    if options.list_passes:
        for pass_ in all_passes():
            print(f"{pass_.name:22s} {pass_.summary}")
        return EXIT_CLEAN

    pass_names: Optional[Sequence[str]]
    if options.passes is None:
        pass_names = None
    elif options.passes == "none":
        pass_names = []
    else:
        pass_names = options.passes.split(",")

    try:
        run = run_lint(
            options.paths or _default_paths(),
            select=options.select.split(",") if options.select else None,
            passes=pass_names,
            usage_paths=options.usage,
        )
    except LintError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    print(run.render_text())
    return run.exit_code
