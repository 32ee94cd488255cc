"""Repo-specific correctness tooling.

:mod:`repro.tools.lint` (``python -m repro.tools lint``) is *reprolint*,
an AST-based static analyzer with two planes run as one pipeline —
parse the project, run the per-file rules, run the whole-program
passes, print the findings as text, exit 0/1/2:

**Per-file rules** enforce the invariants the reproduction's headline
numbers depend on:

* **determinism** — all randomness flows through
  :class:`repro.core.rng.SeededRng`, and no wall-clock reads leak into
  the allocator, simulator, or workload paths;
* **unit-safety** — float-typed capacity/bandwidth/rate quantities are
  never compared with ``==``/``!=``; the tolerance helpers in
  :mod:`repro.core.units` are mandatory;
* **hygiene** — future annotations everywhere, no unused imports.

**Whole-program passes** (:mod:`repro.tools.project` and friends) see
the project import graph at once:

* **layering** — the package DAG ``core → sim → pubsub → workloads →
  experiments`` (with ``obs``/``tools`` as leaves) has no cycles and no
  upward imports;
* **determinism-taint** — set-iteration order, ``os.environ``,
  wall-clock reads, and unmanaged randomness are tracked through
  assignments and cross-module calls until they reach allocation
  decisions or exported output;
* **api-contract** — ``__all__`` lists name only bound names and no
  dead exports.

See the "Static analysis & invariants" section of the README for the
rule list, pass descriptions, and suppression syntax.
"""

from __future__ import annotations

from repro.tools.engine import (
    Finding,
    LintError,
    Module,
    Rule,
    all_rules,
    lint_source,
    rule,
)
from repro.tools.lint import LintRun, run_lint
from repro.tools.project import (
    ImportEdge,
    ModuleInfo,
    ParseFailure,
    Project,
    ProjectPass,
    all_passes,
    project_pass,
    run_passes,
)

__all__ = [
    "Finding",
    "ImportEdge",
    "LintError",
    "LintRun",
    "Module",
    "ModuleInfo",
    "ParseFailure",
    "Project",
    "ProjectPass",
    "Rule",
    "all_passes",
    "all_rules",
    "lint_source",
    "project_pass",
    "rule",
    "run_lint",
    "run_passes",
]
