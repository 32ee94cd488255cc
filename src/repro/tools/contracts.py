"""The ``api-contract`` pass: the pluggable-allocator surface, enforced.

Four families of checks, all whole-program:

* **Registered allocators** — every ``AllocatorSpec(...)`` record
  (the only way into :func:`repro.core.allocators.register_spec`) is
  located repo-wide, the registry module's own built-ins included; its
  *builder* argument must resolve, through the import graph, to a
  module-level function or class (or an instance of a module-level
  class), because process-pool workers replay registrations by
  pickling builders by reference.  This supersedes the per-file
  unpicklable-worker heuristic for builders: resolution follows
  ``from x import y`` chains instead of guessing from local syntax.
  (The ``allocate(self, units, pool, directory)`` signature itself is
  owned by the per-file ``allocator-signature`` rule, which sees every
  class in ``core/``, not only those a builder reaches.)

* **Capability vocabulary** — any *literal* capability collection on a
  spec may only use the known capability vocabulary.  A typo'd
  capability never errors at runtime — ``supports``/``names_with``
  gates just silently never select the allocator — so the pass catches
  it statically.

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
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.tools.engine import Finding
from repro.tools.project import ModuleInfo, Project, project_pass

#: The registry module, home of the spec class.
REGISTRY_MODULE = "repro.core.allocators"

#: The registry's record class, checked wherever it is constructed.
_SPEC_CLASS_NAME = "AllocatorSpec"

#: Mirror of ``repro.core.allocators.KNOWN_CAPABILITIES``.  The tools
#: layer is an import leaf (it may not import repro.core), so the
#: vocabulary is duplicated here; ``tests/test_reprolint.py`` pins the
#: two sets equal so they cannot drift apart.
KNOWN_CAPABILITIES = frozenset({"incremental", "energy_aware"})


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
# Registered-builder resolution
# ----------------------------------------------------------------------


def _builder_findings(
    project: Project, info: ModuleInfo, call: ast.Call, builder: ast.AST
) -> Iterator[Finding]:
    def finding(message: str) -> Finding:
        return Finding(
            info.path, call.lineno, call.col_offset, "api-contract", message
        )

    if isinstance(builder, ast.Lambda):
        yield finding(
            "allocator builder is a lambda; spawned pool workers replay "
            "registrations by pickling builders by reference — register a "
            "module-level function or class instance"
        )
    elif isinstance(builder, ast.Name):
        resolved = project.resolve_name(info.name, builder.id)
        if resolved is None:
            yield finding(
                f"allocator builder {builder.id!r} does not resolve to a "
                "module-level definition in the analyzed tree; builders "
                "must be statically resolvable for pickling by reference"
            )
        elif isinstance(resolved[1], ast.Lambda):
            yield finding(
                f"allocator builder {builder.id!r} is a lambda-valued name; "
                "pickling by reference needs a module-level def or class"
            )
    elif isinstance(builder, ast.Call) and isinstance(builder.func, ast.Name):
        resolved = project.resolve_name(info.name, builder.func.id)
        if resolved is None:
            yield finding(
                f"allocator builder {ast.dump(builder.func)} is not "
                "statically resolvable"
            )
        elif isinstance(resolved[1], (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield finding(
                f"allocator builder {builder.func.id}(...) is produced by a "
                "function call — the closure it returns cannot be pickled "
                "by reference; register an instance of a module-level "
                "class instead"
            )
    else:
        yield finding(
            "allocator builder expression is not statically resolvable "
            "(expected a module-level name, class instance, or def)"
        )


# ----------------------------------------------------------------------
# AllocatorSpec shapes
# ----------------------------------------------------------------------


def _dotted_suffix(func: ast.Attribute) -> Optional[str]:
    """``a.b.c`` rendered as a dotted string, when statically plain."""
    parts: List[str] = [func.attr]
    base = func.value
    while isinstance(base, ast.Attribute):
        parts.append(base.attr)
        base = base.value
    if isinstance(base, ast.Name):
        parts.append(base.id)
        return ".".join(reversed(parts))
    return None


def _is_spec_call(project: Project, info: ModuleInfo, node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        if func.id != _SPEC_CLASS_NAME:
            return False
        resolved = project.resolve_name(info.name, func.id)
        # Unresolved names keep the distinctive class name's intent.
        return resolved is None or resolved[0] == REGISTRY_MODULE
    if isinstance(func, ast.Attribute) and func.attr == _SPEC_CLASS_NAME:
        dotted = _dotted_suffix(func)
        if dotted is None:
            return False
        prefix = dotted[: -len(_SPEC_CLASS_NAME) - 1]
        return prefix.endswith("allocators") or prefix == REGISTRY_MODULE
    return False


def _iter_spec_calls(project: Project) -> Iterator[Tuple[ModuleInfo, ast.Call]]:
    for name in sorted(project.modules):
        info = project.modules[name]
        for node in ast.walk(info.module.tree):
            if isinstance(node, ast.Call) and _is_spec_call(project, info, node):
                yield info, node


def _call_argument(
    node: ast.Call, position: int, keyword: str
) -> Optional[ast.AST]:
    """Positional-or-keyword lookup."""
    if len(node.args) > position:
        return node.args[position]
    for item in node.keywords:
        if item.arg == keyword:
            return item.value
    return None


def _capability_literals(node: ast.AST) -> Optional[List[str]]:
    """The literal capability strings, or ``None`` when not static."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"frozenset", "set", "tuple", "list"}
        and len(node.args) == 1
        and not node.keywords
    ):
        return _capability_literals(node.args[0])
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        values: List[str] = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                values.append(elt.value)
            else:
                return None
        return values
    return None


def _capability_findings(
    info: ModuleInfo, call: ast.Call, capabilities: Optional[ast.AST]
) -> Iterator[Finding]:
    if capabilities is None:
        return
    literals = _capability_literals(capabilities)
    if literals is None:
        return
    for capability in literals:
        if capability not in KNOWN_CAPABILITIES:
            yield Finding(
                info.path,
                call.lineno,
                call.col_offset,
                "api-contract",
                f"allocator capability {capability!r} is not in the known "
                f"vocabulary {sorted(KNOWN_CAPABILITIES)}; capability gates "
                "(supports / names_with) would silently never select it",
            )


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------


@project_pass(
    "api-contract",
    "registered allocator builders must be picklable module-level "
    "callables using the known capability vocabulary; __all__ must be "
    "consistent and free of dead exports",
)
def check_api_contract(project: Project) -> List[Finding]:
    findings: List[Finding] = []

    for info, call in _iter_spec_calls(project):
        builder = _call_argument(call, 1, "builder")
        if builder is not None:
            findings.extend(_builder_findings(project, info, call, builder))
        findings.extend(
            _capability_findings(
                info, call, _call_argument(call, 2, "capabilities")
            )
        )

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
