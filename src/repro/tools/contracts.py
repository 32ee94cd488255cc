"""The ``api-contract`` pass: honest ``__all__`` lists, whole-program.

Two families of checks:

* **``__all__`` consistency** — every name a module exports must be
  bound at module level (a typo in ``__all__`` breaks
  ``from m import *`` and silently lies to readers).

* **Dead exports** — a name in a non-``__init__`` module's ``__all__``
  that no other module (including the tests/benchmarks usage index)
  references is dead surface: either delete it or move it where its
  users live.  Package ``__init__`` files are exempt — their
  ``__all__`` is the public API for downstream users, not for this
  repo.  The reference scan is name-based (any load/attribute/import
  of the name anywhere counts), so it errs toward keeping exports.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.tools.engine import Finding
from repro.tools.project import ModuleInfo, Project, project_pass


# ----------------------------------------------------------------------
# __all__ handling
# ----------------------------------------------------------------------


def module_exports(info: ModuleInfo) -> Optional[Tuple[int, List[str]]]:
    """(lineno, names) of a module's literal ``__all__``, if present."""
    for node in info.module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        names = [
                            elt.value
                            for elt in node.value.elts
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                        ]
                        return node.lineno, names
    return None


def _module_level_bindings(info: ModuleInfo) -> Set[str]:
    """Names bound at module scope (including conditional branches)."""
    bound: Set[str] = set()

    def scan(body: List[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    _bind_target(target, bound)
            elif isinstance(node, ast.AnnAssign):
                _bind_target(node.target, bound)
            elif isinstance(node, ast.AugAssign):
                _bind_target(node.target, bound)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        bound.add("*")
                    else:
                        bound.add(alias.asname or alias.name)
            elif isinstance(node, (ast.If, ast.Try)):
                scan(node.body)
                scan(getattr(node, "orelse", []))
                for handler in getattr(node, "handlers", []):
                    scan(handler.body)
                scan(getattr(node, "finalbody", []))
            elif isinstance(node, (ast.For, ast.While, ast.With)):
                if isinstance(node, ast.For):
                    _bind_target(node.target, bound)
                elif isinstance(node, ast.With):
                    for item in node.items:
                        if item.optional_vars is not None:
                            _bind_target(item.optional_vars, bound)
                scan(node.body)
                scan(node.orelse if hasattr(node, "orelse") else [])

    scan(info.module.tree.body)
    return bound


def _bind_target(target: ast.AST, bound: Set[str]) -> None:
    if isinstance(target, ast.Name):
        bound.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _bind_target(elt, bound)
    elif isinstance(target, ast.Starred):
        _bind_target(target.value, bound)


def _referenced_names(info: ModuleInfo) -> Set[str]:
    """Every identifier a module loads, accesses, imports, or re-exports."""
    names: Set[str] = set()
    for node in ast.walk(info.module.tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # __all__ re-export lists in aggregating modules.
            if node.value.isidentifier():
                names.add(node.value)
    return names


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------


@project_pass(
    "api-contract",
    "__all__ must be consistent and free of dead exports",
)
def check_api_contract(project: Project) -> List[Finding]:
    findings: List[Finding] = []

    # Name-reference index for the dead-export scan: everything any
    # *other* module (or the usage index) references.
    references: Dict[str, Set[str]] = {}
    all_infos = list(project.modules.values()) + list(
        project.usage_modules.values()
    )
    for info in all_infos:
        references[info.name] = _referenced_names(info)

    for name in sorted(project.modules):
        info = project.modules[name]
        exports = module_exports(info)
        if exports is None:
            continue
        lineno, exported = exports
        bound = _module_level_bindings(info)
        star_imports = "*" in bound
        for export in exported:
            if export not in bound and not star_imports:
                findings.append(
                    Finding(
                        info.path,
                        lineno,
                        0,
                        "api-contract",
                        f"__all__ exports {export!r} which is not bound at "
                        "module level",
                    )
                )
        if info.path.endswith("__init__.py"):
            continue  # public API surface: exempt from dead-export
        for export in exported:
            used = any(
                export in refs
                for other, refs in references.items()
                if other != info.name
            )
            if not used:
                findings.append(
                    Finding(
                        info.path,
                        lineno,
                        0,
                        "api-contract",
                        f"dead export: __all__ lists {export!r} but no other "
                        "module (src, tests, or benchmarks) references it",
                    )
                )
    return findings
