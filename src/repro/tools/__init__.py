"""Repo-specific correctness tooling.

:mod:`repro.tools.lint` (``python -m repro.tools lint``) is *reprolint*,
an AST-based static analyzer: parse the project, run one list of checks
(:data:`repro.tools.lint.CHECKS`), print the findings as text, exit
0/1/2.  Each check guards one hazard that no other in-container gate
catches; ``tests/lint_corpus.py`` seeds one defect per check and per
hazard and records which gates catch it.

* **determinism** — ``unmanaged-random`` (randomness flows through
  :class:`repro.core.rng.SeededRng`), ``clock`` (host clocks only in
  the audited wall-time allowlist) and ``determinism-taint`` (set
  iteration order does not reach allocation decisions, metrics rows or
  exports);
* **structure** — ``layering`` (the package DAG ``core → sim → pubsub
  → workloads → experiments``, ``obs``/``tools`` leaves, no import-time
  cycle), ``api-contract`` (honest ``__all__``),
  ``allocator-signature`` and ``unpicklable-worker``;
* **unit-safety and hygiene** — ``float-equality``,
  ``mutable-default``, ``bare-except``, ``future-annotations``,
  ``return-annotation``, ``unused-import``.

See the "Static analysis & invariants" section of the README for the
check list and suppression syntax.
"""

from __future__ import annotations

from repro.tools.engine import Finding, LintError, Module
from repro.tools.lint import CHECKS, LintRun, lint_source, run_checks, run_lint
from repro.tools.project import ImportEdge, ModuleInfo, ParseFailure, Project

__all__ = [
    "CHECKS",
    "Finding",
    "ImportEdge",
    "LintError",
    "LintRun",
    "Module",
    "ModuleInfo",
    "ParseFailure",
    "Project",
    "lint_source",
    "run_checks",
    "run_lint",
]
