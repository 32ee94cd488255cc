"""The *reprolint* rule framework.

The engine is deliberately small: a :class:`Module` wraps one parsed
source file, a :class:`Rule` is a named check producing
:class:`Finding` objects, and a module-level registry maps rule names
to implementations (populated by the :func:`rule` decorator in
:mod:`repro.tools.rules`).

Suppressions
------------
Two comment forms silence findings, mirroring the familiar
``# noqa`` / ``# type: ignore`` convention:

* ``# reprolint: disable=RULE[,RULE...]`` on the flagged line silences
  those rules for that line only (``disable=all`` silences every rule);
* ``# reprolint: disable-file=RULE[,RULE...]`` anywhere in the file
  silences those rules for the whole file.

Suppressions attach to the *reported* line, which for multi-line
statements is the line carrying the flagged expression.  They are the
only suppression mechanism — there is no baseline file — so every
excused finding sits beside the code it excuses, with its reason in
the same comment.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

#: The audited wall-time allowlist: path prefixes below ``repro`` whose
#: modules may read a host timer.  The per-file ``wall-clock-output``
#: rule and the ``determinism-taint`` pass both read this one table, so
#: a module cannot be excused from one and not the other.  Every entry
#: cites the mechanism that keeps the reading out of deterministic
#: outputs.
WALL_TIME_ALLOWLIST: Tuple[Tuple[str, ...], ...] = (
    # The obs recorder segregates wall readings behind include_wall;
    # bit-identity attached vs. detached is pinned by
    # tests/test_obs_equivalence.py.
    ("obs",),
    # croc.py and runner.py feed only the excluded-by-contract
    # computation_s measurement.
    ("core", "croc.py"),
    ("experiments", "runner.py"),
)

#: Matches one suppression pragma; a line may carry several.
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)

#: Directory names never descended into when scanning a tree.
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "build", "dist"}


class LintError(Exception):
    """A file could not be linted (unreadable or unparsable)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


class Module:
    """One parsed source file plus its suppression table."""

    def __init__(self, text: str, path: str):
        self.text = text
        self.path = path
        try:
            self.tree = ast.parse(text, filename=path)
        except SyntaxError as exc:  # pragma: no cover - exercised via CLI
            raise LintError(f"{path}: {exc.msg} (line {exc.lineno})") from exc
        self.line_suppressions: Dict[int, Set[str]] = {}
        self.file_suppressions: Set[str] = set()
        for lineno, line in enumerate(text.splitlines(), start=1):
            for match in _SUPPRESS_RE.finditer(line):
                scope, names = match.groups()
                rules = {name.strip() for name in names.split(",") if name.strip()}
                if scope == "disable-file":
                    self.file_suppressions |= rules
                else:
                    self.line_suppressions.setdefault(lineno, set()).update(rules)

    # ------------------------------------------------------------------
    # Location helpers used by rules
    # ------------------------------------------------------------------
    @property
    def package_parts(self) -> Tuple[str, ...]:
        """Path segments below the ``repro`` package, e.g. ``('core', 'poset.py')``.

        Falls back to the bare filename when the path does not pass
        through a ``repro`` directory (fixture files in tests).
        """
        parts = Path(self.path).parts
        for index, part in enumerate(parts):
            if part == "repro":
                return parts[index + 1:]
        return parts[-1:] if parts else ()

    def in_package(self, *packages: str) -> bool:
        """Whether this module lives under one of the given subpackages."""
        parts = self.package_parts
        return bool(parts) and parts[0] in packages

    def is_module(self, *relative: str) -> bool:
        """Exact match against a path below ``repro``, e.g. ``('sim', 'rng.py')``."""
        return self.package_parts == relative

    @property
    def wall_time_exempt(self) -> bool:
        """Whether this module is on :data:`WALL_TIME_ALLOWLIST`."""
        parts = self.package_parts
        return any(parts[: len(entry)] == entry for entry in WALL_TIME_ALLOWLIST)

    def finding(self, node: Union[ast.AST, int], rule_name: str, message: str) -> Finding:
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(self.path, line, col, rule_name, message)

    def suppressed(self, finding: Finding) -> bool:
        names = self.line_suppressions.get(finding.line, set()) | self.file_suppressions
        return finding.rule in names or "all" in names


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
RuleCheck = Callable[[Module], Iterator[Finding]]


@dataclass(frozen=True)
class Rule:
    """A named check over one module."""

    name: str
    summary: str
    check: RuleCheck


_REGISTRY: Dict[str, Rule] = {}


def rule(name: str, summary: str) -> Callable[[RuleCheck], RuleCheck]:
    """Register a rule implementation under ``name``."""

    def decorate(check: RuleCheck) -> RuleCheck:
        if name in _REGISTRY:
            raise ValueError(f"duplicate rule name {name!r}")
        _REGISTRY[name] = Rule(name, summary, check)
        return check

    return decorate


def _load_builtin_rules() -> None:
    # Imported lazily: rules.py needs the decorator above, so a
    # module-level import here would be circular.
    from repro.tools import rules as _rules  # noqa: F401  # reprolint: disable=unused-import (registration side effect)


def all_rules() -> List[Rule]:
    """Every registered rule, in stable name order."""
    _load_builtin_rules()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def resolve_rules(names: Optional[Iterable[str]] = None) -> List[Rule]:
    """Map a ``--select`` list to rules; ``None`` means all of them."""
    available = {rule_.name: rule_ for rule_ in all_rules()}
    if names is None:
        return list(available.values())
    selected: List[Rule] = []
    for name in names:
        if name not in available:
            known = ", ".join(sorted(available))
            raise LintError(f"unknown rule {name!r} (known rules: {known})")
        selected.append(available[name])
    return selected


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_rules(module: Module, rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Apply rules to one module, honouring suppression comments."""
    findings: List[Finding] = []
    for rule_ in rules if rules is not None else all_rules():
        for finding in rule_.check(module):
            if not module.suppressed(finding):
                findings.append(finding)
    return sorted(findings, key=lambda finding: finding.sort_key)


def lint_source(
    text: str,
    path: str = "<fixture>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint an in-memory source string (the test-suite entry point)."""
    return run_rules(Module(text, path), rules)


def iter_python_files(paths: Iterable[Union[str, Path]]) -> Iterator[Path]:
    """Expand files and directory trees into a sorted list of ``.py`` files."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if not (_SKIP_DIRS & set(candidate.parts))
                and not any(part.endswith(".egg-info") for part in candidate.parts)
            )
        elif path.suffix == ".py" and path.exists():
            candidates = [path]
        elif not path.exists():
            raise LintError(f"{path}: no such file or directory")
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate
