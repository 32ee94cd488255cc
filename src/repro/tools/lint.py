"""``python -m repro.tools lint`` — the *reprolint* command line.

Usage::

    python -m repro.tools lint [PATH ...] [--usage PATH ...]

One pipeline: parse the project, run every check in :data:`CHECKS`,
print the findings as text.

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
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.tools import rules
from repro.tools.contracts import check_api_contract
from repro.tools.engine import Finding, LintError, Module
from repro.tools.layering import check_layering
from repro.tools.project import ModuleInfo, ParseFailure, Project, module_name_for
from repro.tools.taint import check_determinism_taint

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

Check = Callable[[Project], Iterable[Finding]]


def _per_module(rule: Callable[[Module], Iterator[Finding]]) -> Check:
    """A check that looks at one module at a time."""

    def check(project: Project) -> Iterator[Finding]:
        for info in project.modules.values():
            yield from rule(info.module)

    return check


#: Every check, by the name its findings carry.  Each guards one hazard
#: no other in-container gate catches (see EXPERIMENTS.md "lint-corpus").
CHECKS: Dict[str, Check] = {
    "allocator-signature": _per_module(rules.check_allocator_signature),
    "api-contract": check_api_contract,
    "bare-except": _per_module(rules.check_bare_except),
    "clock": _per_module(rules.check_clock),
    "determinism-taint": check_determinism_taint,
    "float-equality": _per_module(rules.check_float_equality),
    "future-annotations": _per_module(rules.check_future_annotations),
    "layering": check_layering,
    "mutable-default": _per_module(rules.check_mutable_default),
    "return-annotation": _per_module(rules.check_return_annotation),
    "unmanaged-random": _per_module(rules.check_unmanaged_random),
    "unpicklable-worker": _per_module(rules.check_unpicklable_worker),
    "unused-import": _per_module(rules.check_unused_import),
}


def run_checks(project: Project) -> List[Finding]:
    """Every check over the project, honouring suppression comments."""
    owners = {info.path: info.module for info in project.modules.values()}
    findings: List[Finding] = []
    for check in CHECKS.values():
        for finding in check(project):
            owner = owners.get(finding.path)
            if owner is None or not owner.suppressed(finding):
                findings.append(finding)
    return sorted(findings, key=lambda finding: finding.sort_key)


def lint_source(text: str, path: str = "<fixture>") -> List[Finding]:
    """Lint one in-memory source as a one-module project (the test entry
    point); ``path`` places it in the package layout."""
    module = Module(text, path)
    return run_checks(Project([ModuleInfo(module_name_for(path), path, module)]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools lint",
        description="reprolint — the repo's determinism, layering and API checks",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src, else the cwd)",
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
    return parser


def _default_paths() -> List[str]:
    return ["src"] if Path("src").is_dir() else ["."]


@dataclass
class LintRun:
    """Everything one invocation produced (the programmatic API)."""

    findings: List[Finding] = field(default_factory=list)
    parse_failures: List[ParseFailure] = field(default_factory=list)
    checked: int = 0

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


def run_lint(paths: Sequence[str], usage_paths: Sequence[str] = ()) -> LintRun:
    """The full pipeline: parse, then every check."""
    project, parse_failures = Project.load(paths, usage_paths)
    return LintRun(run_checks(project), parse_failures, len(project.modules))


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = build_parser().parse_args(argv)
    try:
        run = run_lint(options.paths or _default_paths(), options.usage)
    except LintError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(run.render_text())
    return run.exit_code
