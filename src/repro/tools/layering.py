"""The ``layering`` pass: the declared package DAG, enforced.

The repo's packages form a strict layering, declared here once and
gated on every run::

    core → sim → pubsub → workloads → experiments      (bottom → top)

A layer may import strictly lower layers, itself, and the utility
leaves.  ``obs`` and ``tools`` are *leaves*: they import nothing from
any other ``repro`` package (``obs`` is the instrumentation seam every
layer may call into; ``tools`` is this analyzer and is importable by
nobody).  The root package (``repro/__init__.py``, ``__main__.py``) is
the public surface and may import everything except ``tools``.

Both eager and lazy (function-nested) imports count as layering edges:
a lazy upward import is still a dependency, just a deferred one — the
exact trick that used to hide ``obs → experiments``.  Import-time
*cycles*, by contrast, are only possible through eager imports, so the
cycle check runs on the eager subgraph.

A layering violation is fixed by moving code down the stack, not
grandfathered.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.tools.engine import Finding
from repro.tools.project import Project

#: The layered packages, bottom (index 0) to top.
LAYERS: Tuple[str, ...] = ("core", "sim", "pubsub", "workloads", "experiments")

#: Leaf packages: importable per the table below, importing nothing.
LEAVES: Tuple[str, ...] = ("obs", "tools")

#: Pseudo-package for repro/__init__.py and repro/__main__.py.
ROOT = "<root>"


def allowed_imports(package: str) -> Set[str]:
    """The set of packages ``package`` may import (besides itself).

    Unknown packages (a new directory nobody declared) get an empty
    allowance, which surfaces as an ``undeclared package`` finding on
    each of their project-internal imports.
    """
    if package == ROOT:
        return set(LAYERS) | {"obs"}
    if package in LEAVES:
        return set()
    if package in LAYERS:
        rank = LAYERS.index(package)
        return set(LAYERS[:rank]) | {"obs"}
    return set()


def check_layering(project: Project) -> List[Finding]:
    """Package imports follow the declared DAG; no import-time cycle."""
    findings: List[Finding] = []
    declared = set(LAYERS) | set(LEAVES) | {ROOT}

    for (source_pkg, target_pkg), edges in sorted(project.package_edges().items()):
        if target_pkg == "<external>":
            continue
        for edge in edges:
            info = project.modules[edge.source]
            if source_pkg not in declared:
                findings.append(
                    Finding(
                        info.path,
                        edge.lineno,
                        0,
                        "layering",
                        f"package {source_pkg!r} is not declared in the "
                        "layering DAG (repro.tools.layering.LAYERS/LEAVES); "
                        "declare its layer before importing "
                        f"{edge.target!r}",
                    )
                )
                continue
            if target_pkg == ROOT:
                findings.append(
                    Finding(
                        info.path,
                        edge.lineno,
                        0,
                        "layering",
                        f"{edge.source} imports the root package "
                        f"({edge.target}); subpackages must import concrete "
                        "modules, not the public facade (import cycle at "
                        "interpreter start-up)",
                    )
                )
                continue
            if target_pkg not in allowed_imports(source_pkg):
                lazy_note = " (lazy import — still a dependency)" if edge.lazy else ""
                findings.append(
                    Finding(
                        info.path,
                        edge.lineno,
                        0,
                        "layering",
                        f"{source_pkg} may not import {target_pkg} "
                        f"({edge.source} → {edge.target}){lazy_note}; allowed "
                        f"targets for {source_pkg}: "
                        f"{_fmt(allowed_imports(source_pkg)) or '(none)'}",
                    )
                )

    for cycle in project.import_cycles():
        info = project.modules[cycle[0]]
        findings.append(
            Finding(
                info.path,
                1,
                0,
                "layering",
                "import-time cycle: " + " → ".join(cycle + [cycle[0]]),
            )
        )
    return findings


def _fmt(packages: Set[str]) -> str:
    return ", ".join(sorted(packages))

