"""Whole-program model for reprolint's multi-pass analyses.

A :class:`Project` parses every target file once, derives each file's
dotted module name from its path (``src/repro/core/croc.py`` →
``repro.core.croc``), and extracts the project-internal import edges —
the facts the per-file rule engine cannot see.  Project *passes*
(:data:`ProjectPass`) consume the model and report
:class:`~repro.tools.engine.Finding` objects through the same pipeline
as the per-file rules, so suppression comments apply uniformly.

The model is deterministic by construction: modules are keyed and
iterated in sorted dotted-name order and edges are sorted, so the
graph — and therefore every pass's findings — is identical no matter
in which order the files were visited (pinned by a Hypothesis property
in the test suite).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.tools.engine import (
    Finding,
    LintError,
    Module,
    iter_python_files,
)

#: The project root package every dotted name hangs off.
ROOT_PACKAGE = "repro"


@dataclass(frozen=True)
class ParseFailure:
    """A file the project could not parse (reported, never skipped silently)."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class ImportEdge:
    """One project-internal import, attributed to its source line.

    ``lazy`` marks imports nested inside a function or method body:
    they do not execute at interpreter start-up, so they cannot form
    import-time cycles — but they still create a dependency, so the
    layering pass counts them.
    """

    source: str
    target: str
    lineno: int
    lazy: bool
    names: Tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    """One parsed file plus its project-level identity."""

    name: str
    path: str
    module: Module
    imports: List[ImportEdge] = field(default_factory=list)

    @property
    def package(self) -> str:
        """Top-level subpackage below ``repro`` (``core``, ``sim``, …).

        Modules directly inside the root package (``repro/__init__.py``,
        ``repro/__main__.py``) report ``"<root>"``; files outside any
        ``repro`` tree report ``"<external>"``.
        """
        return _package_of(self.name) if self.name.startswith(ROOT_PACKAGE) \
            else "<external>"


def module_name_for(path: Union[str, Path]) -> str:
    """Dotted module name for a file path.

    The name is anchored at the last ``repro`` directory in the path,
    so both the real tree (``src/repro/core/croc.py``) and test
    fixtures (``tests/data/lint/layering/src/repro/core/bad.py``)
    resolve naturally.  Files outside a ``repro`` tree get a name
    derived from their trailing path (used for the usage index only).
    """
    parts = Path(path).parts
    anchor = None
    for index, part in enumerate(parts):
        if part == ROOT_PACKAGE:
            anchor = index
    if anchor is None:
        stem_parts = [p for p in parts[-2:] if p not in ("/",)]
        dotted = ".".join(stem_parts)
        return dotted[:-3] if dotted.endswith(".py") else dotted
    rel = parts[anchor:]
    if rel[-1] == "__init__.py":
        rel = rel[:-1]
    else:
        rel = rel[:-1] + (rel[-1][:-3] if rel[-1].endswith(".py") else rel[-1],)
    return ".".join(rel)


def _is_type_checking_guard(node: ast.AST) -> bool:
    """True for ``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _extract_imports(info: ModuleInfo) -> List[ImportEdge]:
    """Project-internal import edges of one module, in source order."""
    edges: List[ImportEdge] = []

    def visit(node: ast.AST, lazy: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_lazy = lazy or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ) or _is_type_checking_guard(child)
            if isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name == ROOT_PACKAGE or alias.name.startswith(
                        ROOT_PACKAGE + "."
                    ):
                        edges.append(
                            ImportEdge(info.name, alias.name, child.lineno, lazy)
                        )
            elif isinstance(child, ast.ImportFrom):
                target = child.module or ""
                if child.level:
                    base = info.name.split(".")
                    if Path(info.path).name != "__init__.py":
                        base = base[:-1]
                    base = base[: len(base) - (child.level - 1)]
                    target = ".".join(base + ([target] if target else []))
                if target == ROOT_PACKAGE or target.startswith(ROOT_PACKAGE + "."):
                    names = tuple(alias.name for alias in child.names)
                    edges.append(
                        ImportEdge(info.name, target, child.lineno, lazy, names)
                    )
            visit(child, child_lazy)

    visit(info.module.tree, False)
    return edges


class Project:
    """Every parsed module, keyed by dotted name, plus the import graph."""

    def __init__(self, modules: Sequence[ModuleInfo],
                 usage_modules: Sequence[ModuleInfo] = ()):
        self.modules: Dict[str, ModuleInfo] = {
            info.name: info for info in sorted(modules, key=lambda m: m.name)
        }
        self.usage_modules: Dict[str, ModuleInfo] = {
            info.name: info
            for info in sorted(usage_modules, key=lambda m: m.name)
        }
        for info in list(self.modules.values()) + list(self.usage_modules.values()):
            info.imports = _extract_imports(info)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        paths: Iterable[Union[str, Path]],
        usage_paths: Iterable[Union[str, Path]] = (),
    ) -> Tuple["Project", List[ParseFailure]]:
        """Parse all files under ``paths``; collect failures, never skip.

        ``usage_paths`` (tests, benchmarks, examples) are parsed into a
        separate usage index consulted by the dead-export check; they
        are not linted.
        """
        failures: List[ParseFailure] = []

        def load_tree(roots: Iterable[Union[str, Path]]) -> List[ModuleInfo]:
            infos: List[ModuleInfo] = []
            for file_path in iter_python_files(roots):
                try:
                    text = file_path.read_text(encoding="utf-8")
                except OSError as exc:
                    failures.append(ParseFailure(str(file_path), str(exc)))
                    continue
                try:
                    module = Module(text, str(file_path))
                except LintError as exc:
                    failures.append(ParseFailure(str(file_path), str(exc)))
                    continue
                infos.append(
                    ModuleInfo(
                        name=module_name_for(file_path),
                        path=str(file_path),
                        module=module,
                    )
                )
            return infos

        return cls(load_tree(paths), load_tree(usage_paths)), failures

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------
    def resolve_target(self, dotted: str) -> Optional[str]:
        """Map an imported dotted name to a project module, if present.

        ``repro.core.units`` resolves to that module; ``from
        repro.core import x`` targets the package, which resolves to
        ``repro.core`` (its ``__init__``) when loaded.  Unknown targets
        (not part of the analyzed tree) resolve to ``None``.
        """
        if dotted in self.modules:
            return dotted
        parent = dotted.rsplit(".", 1)[0] if "." in dotted else None
        if parent and parent in self.modules:
            return parent
        return None

    def resolve_edge_targets(self, edge: ImportEdge) -> List[str]:
        """Project modules one import edge actually reaches.

        ``from repro.obs import recorder`` targets the *submodule*
        ``repro.obs.recorder``, not the package — treating it as a
        package edge would manufacture a cycle with every package
        ``__init__`` that re-exports its own submodules.  Names that
        are plain attributes fall back to the package itself.
        """
        resolved: List[str] = []
        fallback = False
        for name in edge.names:
            submodule = f"{edge.target}.{name}"
            if submodule in self.modules:
                resolved.append(submodule)
            else:
                fallback = True
        if fallback or not edge.names:
            package = self.resolve_target(edge.target)
            if package is not None:
                resolved.append(package)
        return sorted(set(resolved))

    def module_edges(self, include_lazy: bool = True) -> List[Tuple[str, str]]:
        """Sorted, deduplicated module-level edges within the project."""
        edges: Set[Tuple[str, str]] = set()
        for info in self.modules.values():
            for edge in info.imports:
                if not include_lazy and edge.lazy:
                    continue
                for resolved in self.resolve_edge_targets(edge):
                    if resolved != info.name:
                        edges.add((info.name, resolved))
        return sorted(edges)

    def package_edges(self) -> Dict[Tuple[str, str], List[ImportEdge]]:
        """Package-level projection: (source pkg, target pkg) → edges."""
        projected: Dict[Tuple[str, str], List[ImportEdge]] = {}
        for name in sorted(self.modules):
            info = self.modules[name]
            for edge in info.imports:
                resolved_targets = self.resolve_edge_targets(edge) or [edge.target]
                source_pkg = info.package
                for resolved in resolved_targets:
                    target_pkg = _package_of(resolved)
                    if source_pkg == target_pkg:
                        continue
                    projected.setdefault((source_pkg, target_pkg), []).append(edge)
        return projected

    def import_cycles(self) -> List[List[str]]:
        """Import-time cycles: SCCs of the non-lazy module graph.

        Lazy (function-nested) imports are excluded — they cannot
        deadlock interpreter start-up — but they still count for
        layering.  Returned cycles are canonicalized (rotated to start
        at the smallest name) and sorted for deterministic output.
        """
        edges = self.module_edges(include_lazy=False)
        adjacency: Dict[str, List[str]] = {name: [] for name in self.modules}
        for source, target in edges:
            adjacency[source].append(target)

        # Tarjan's algorithm, iterative for deep graphs.
        index_of: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work = [(root, iter(adjacency[root]))]
            index_of[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if child not in index_of:
                        index_of[child] = low[child] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(adjacency[child])))
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index_of[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        sccs.append(component)
                    elif (component[0], component[0]) in edges:
                        sccs.append(component)

        for name in sorted(self.modules):
            if name not in index_of:
                strongconnect(name)

        canonical = []
        for component in sccs:
            pivot = component.index(min(component))
            canonical.append(component[pivot:] + component[:pivot])
        return sorted(canonical)

    # ------------------------------------------------------------------
    # Cross-module name resolution (used by the contract pass)
    # ------------------------------------------------------------------
    def resolve_name(
        self, module_name: str, name: str, _depth: int = 0
    ) -> Optional[Tuple[str, ast.AST]]:
        """Resolve ``name`` in ``module_name`` to its defining AST node.

        Follows ``from x import y`` chains through the project (bounded
        depth), returning ``(defining_module, node)`` where node is a
        FunctionDef / AsyncFunctionDef / ClassDef / Assign-value.
        Returns ``None`` for builtins, externals, and anything the
        static approximation cannot see.
        """
        if _depth > 8 or module_name not in self.modules:
            return None
        info = self.modules[module_name]
        for node in info.module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name == name:
                    return (module_name, node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        return (module_name, node.value)
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and node.target.id == name
                    and node.value is not None
                ):
                    return (module_name, node.value)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if bound != name or alias.name == "*":
                        continue
                    target = self.resolve_target(node.module or "")
                    if target is None:
                        return None
                    return self.resolve_name(target, alias.name, _depth + 1)
        return None


def _package_of(dotted: str) -> str:
    if not dotted.startswith(ROOT_PACKAGE):
        return "<external>"
    parts = dotted.split(".")
    if len(parts) == 1 or parts[1] == "__main__":
        return "<root>"
    return parts[1]


# ----------------------------------------------------------------------
# Pass registry (mirrors the per-file rule registry in engine.py)
# ----------------------------------------------------------------------
PassCheck = Callable[[Project], List[Finding]]


@dataclass(frozen=True)
class ProjectPass:
    """A named whole-program check."""

    name: str
    summary: str
    check: PassCheck


_PASS_REGISTRY: Dict[str, ProjectPass] = {}


def project_pass(name: str, summary: str) -> Callable[[PassCheck], PassCheck]:
    """Register a whole-program pass under ``name``."""

    def decorate(check: PassCheck) -> PassCheck:
        if name in _PASS_REGISTRY:
            raise ValueError(f"duplicate pass name {name!r}")
        _PASS_REGISTRY[name] = ProjectPass(name, summary, check)
        return check

    return decorate


def _load_builtin_passes() -> None:
    # Imported lazily — the pass modules need the decorator above.
    from repro.tools import contracts, layering, taint  # noqa: F401  # reprolint: disable=unused-import (registration side effect)


def all_passes() -> List[ProjectPass]:
    """Every registered pass, in stable name order."""
    _load_builtin_passes()
    return [_PASS_REGISTRY[name] for name in sorted(_PASS_REGISTRY)]


def resolve_passes(names: Optional[Iterable[str]] = None) -> List[ProjectPass]:
    """Map a ``--passes`` list to passes; ``None`` means all of them."""
    available = {pass_.name: pass_ for pass_ in all_passes()}
    if names is None:
        return list(available.values())
    selected: List[ProjectPass] = []
    for name in names:
        if name not in available:
            known = ", ".join(sorted(available))
            raise LintError(f"unknown pass {name!r} (known passes: {known})")
        selected.append(available[name])
    return selected


def run_passes(
    project: Project, passes: Optional[Sequence[ProjectPass]] = None
) -> List[Finding]:
    """Run whole-program passes, honouring per-line suppressions."""
    findings: List[Finding] = []
    by_path = {info.path: info for info in project.modules.values()}
    for pass_ in passes if passes is not None else all_passes():
        for finding in pass_.check(project):
            owner = by_path.get(finding.path)
            if owner is not None and owner.module.suppressed(finding):
                continue
            findings.append(finding)
    return sorted(findings, key=lambda finding: finding.sort_key)
