"""The built-in *reprolint* rules.

Each rule guards one invariant the reproduction's results depend on
(determinism, unit-safety, allocator interchangeability) or one Python
footgun that has historically produced irreproducible numbers
elsewhere (mutable defaults, bare excepts).  Rules are deliberately
repo-specific: they know the package layout (``core/``, ``sim/``,
``workloads/``) and the sanctioned escape hatches
(:mod:`repro.sim.rng`, the tolerance helpers in
:mod:`repro.core.units`).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.tools.engine import Finding, Module, rule

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _identifier_tokens(node: ast.AST) -> Set[str]:
    """Lower-cased underscore-split tokens of a Name/Attribute operand."""
    if isinstance(node, ast.Attribute):
        terminal = node.attr
    elif isinstance(node, ast.Name):
        terminal = node.id
    else:
        return set()
    return {token for token in terminal.lower().split("_") if token}


# ----------------------------------------------------------------------
# Rule 1 — determinism: all randomness flows through SeededRng
# ----------------------------------------------------------------------

#: The one module allowed to touch the stdlib RNG.
_RNG_HOME = ("core", "rng.py")


@rule(
    "unmanaged-random",
    "random / numpy.random may only be used inside core/rng.py; draw from SeededRng",
)
def check_unmanaged_random(module: Module) -> Iterator[Finding]:
    if module.is_module(*_RNG_HOME):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("numpy.random"):
                    yield module.finding(
                        node,
                        "unmanaged-random",
                        f"import of {alias.name!r} outside core/rng.py; "
                        "route randomness through repro.sim.rng.SeededRng",
                    )
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            imports_random = source in ("random", "numpy.random") or (
                source == "numpy"
                and any(alias.name == "random" for alias in node.names)
            )
            if imports_random:
                yield module.finding(
                    node,
                    "unmanaged-random",
                    f"import from {source!r} outside core/rng.py; "
                    "route randomness through repro.sim.rng.SeededRng",
                )
        elif isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in ("numpy", "np"):
                yield module.finding(
                    node,
                    "unmanaged-random",
                    "numpy.random accessed outside core/rng.py; "
                    "route randomness through repro.sim.rng.SeededRng",
                )


# ----------------------------------------------------------------------
# Rule 2 — determinism: no wall-clock reads in replayable paths
# ----------------------------------------------------------------------

#: Dotted call targets that read the wall clock.  Monotonic timers
#: (``time.perf_counter``) are handled separately by the
#: ``wall-clock-output`` rule below: they are legal only in the audited
#: modules that keep their readings out of deterministic outputs.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "date.today",
}

#: Subpackages whose behaviour must be a pure function of (config, seed).
_REPLAYABLE_PACKAGES = ("core", "sim", "workloads")


@rule(
    "wall-clock",
    "no time.time()/datetime.now() in core/, sim/, or workloads/ — wall clock breaks replay",
)
def check_wall_clock(module: Module) -> Iterator[Finding]:
    if not module.in_package(*_REPLAYABLE_PACKAGES):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted in _WALL_CLOCK_CALLS:
            yield module.finding(
                node,
                "wall-clock",
                f"{dotted}() reads the wall clock; replayable paths must derive "
                "time from the simulator clock or an explicit base date "
                "(see workloads/stocks.py)",
            )


# ----------------------------------------------------------------------
# Rule 3 — unit-safety: no exact equality on float-typed quantities
# ----------------------------------------------------------------------

#: Identifier tokens that mark a float-typed physical quantity.
_UNIT_TOKENS = {
    "bandwidth",
    "rate",
    "capacity",
    "utilization",
    "closeness",
    "tolerance",
    "epsilon",
}


def _is_unit_operand(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    return bool(_identifier_tokens(node) & _UNIT_TOKENS)


@rule(
    "float-equality",
    "no ==/!= on float capacity/bandwidth/rate expressions; use "
    "approx_eq/approx_zero from repro.core.units",
)
def check_float_equality(module: Module) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_unit_operand(left) or _is_unit_operand(right):
                yield module.finding(
                    node,
                    "float-equality",
                    "exact ==/!= on a float-typed quantity; use the tolerance "
                    "helpers in repro.core.units (approx_eq, approx_zero)",
                )
                break


# ----------------------------------------------------------------------
# Rule 4 — no mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}
_MUTABLE_ATTR_CALLS = {"defaultdict", "OrderedDict", "Counter", "deque"}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id in _MUTABLE_CALLS | _MUTABLE_ATTR_CALLS
        if isinstance(node.func, ast.Attribute):
            return node.func.attr in _MUTABLE_ATTR_CALLS
    return False


@rule("mutable-default", "no mutable default arguments (shared across calls)")
def check_mutable_default(module: Module) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                name = getattr(node, "name", "<lambda>")
                yield module.finding(
                    default,
                    "mutable-default",
                    f"mutable default argument in {name!r}; default to None "
                    "and construct inside the function",
                )


# ----------------------------------------------------------------------
# Rule 5 — postponed annotations everywhere
# ----------------------------------------------------------------------


@rule(
    "future-annotations",
    "every repro module must start with `from __future__ import annotations`",
)
def check_future_annotations(module: Module) -> Iterator[Finding]:
    if not module.tree.body:
        return
    for node in module.tree.body:
        if (
            isinstance(node, ast.ImportFrom)
            and node.module == "__future__"
            and any(alias.name == "annotations" for alias in node.names)
        ):
            return
    yield module.finding(
        1,
        "future-annotations",
        "missing `from __future__ import annotations` "
        "(keeps annotations lazy and forward-reference-safe)",
    )


# ----------------------------------------------------------------------
# Rule 6 — public core functions carry return annotations
# ----------------------------------------------------------------------


def _public_functions(
    module: Module,
) -> Iterator[Tuple[ast.AST, str]]:
    """Module-level and class-body functions with public names.

    Nested closures are an implementation detail and are skipped.
    """

    def from_body(body: list) -> Iterator[Tuple[ast.AST, str]]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    yield node, node.name
            elif isinstance(node, ast.ClassDef):
                yield from from_body(node.body)

    yield from from_body(module.tree.body)


@rule(
    "return-annotation",
    "public functions in core/ must declare a return type",
)
def check_return_annotation(module: Module) -> Iterator[Finding]:
    if not module.in_package("core"):
        return
    for node, name in _public_functions(module):
        if getattr(node, "returns", None) is None:
            yield module.finding(
                node,
                "return-annotation",
                f"public core function {name!r} has no return annotation",
            )


# ----------------------------------------------------------------------
# Rule 7 — no bare except
# ----------------------------------------------------------------------


@rule("bare-except", "no bare `except:` — it swallows KeyboardInterrupt and typos alike")
def check_bare_except(module: Module) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield module.finding(
                node,
                "bare-except",
                "bare `except:`; catch a specific exception "
                "(or `Exception` at the very least)",
            )


# ----------------------------------------------------------------------
# Rule 8 — allocators stay interchangeable
# ----------------------------------------------------------------------

#: The common allocator entry-point signature every scheme must keep so
#: experiments can swap allocators by name (see experiments.runner).
_ALLOCATE_PARAMS = ("self", "units", "pool", "directory")


@rule(
    "allocator-signature",
    "core allocator classes must keep allocate(self, units, pool, directory)",
)
def check_allocator_signature(module: Module) -> Iterator[Finding]:
    if not module.in_package("core"):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "allocate"
            ):
                args = item.args
                names = tuple(arg.arg for arg in args.posonlyargs + args.args)
                irregular = (
                    names != _ALLOCATE_PARAMS
                    or args.vararg is not None
                    or args.kwarg is not None
                    or args.kwonlyargs
                )
                if irregular:
                    yield module.finding(
                        item,
                        "allocator-signature",
                        f"{node.name}.allocate has signature {names}; the "
                        "interchangeable-scheme contract is "
                        "allocate(self, units, pool, directory)",
                    )


# ----------------------------------------------------------------------
# Rule 9 — process-pool workers must be spawn-picklable
# ----------------------------------------------------------------------

#: Pool methods whose first positional argument is the worker callable.
_POOL_SUBMIT_METHODS = {
    "submit",
    "apply_async",
    "map_async",
    "imap",
    "imap_unordered",
}

#: Pool/process constructors and the keyword that carries a callable
#: shipped to the child process.
_POOL_CALLABLE_KWARGS = {
    "ProcessPoolExecutor": ("initializer",),
    "Pool": ("initializer",),
    "Process": ("target",),
}


class _LocalCallableScan(ast.NodeVisitor):
    """Names in a module that name a callable pickle cannot ship.

    Spawned workers unpickle callables *by module reference*
    (``module.qualname``), so lambdas and functions defined inside
    another function fail at submit time with an opaque pool crash.
    """

    def __init__(self) -> None:
        self.depth = 0
        self.nested: Set[str] = set()
        self.lambda_names: Set[str] = set()

    def _visit_def(self, node: ast.AST) -> None:
        if self.depth:
            self.nested.add(node.name)  # type: ignore[attr-defined]
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.lambda_names.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.value, ast.Lambda) and isinstance(node.target, ast.Name):
            self.lambda_names.add(node.target.id)
        self.generic_visit(node)


def _unpicklable_reason(node: ast.AST, scan: _LocalCallableScan) -> Optional[str]:
    if isinstance(node, ast.Lambda):
        return "a lambda"
    if isinstance(node, ast.Name):
        if node.id in scan.nested:
            return f"locally defined function {node.id!r}"
        if node.id in scan.lambda_names:
            return f"lambda-valued name {node.id!r}"
    return None


@rule(
    "unpicklable-worker",
    "callables handed to a process pool must be module-level "
    "(spawn pickles workers by reference)",
)
def check_unpicklable_worker(module: Module) -> Iterator[Finding]:
    scan = _LocalCallableScan()
    scan.visit(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _POOL_SUBMIT_METHODS
            and node.args
        ):
            reason = _unpicklable_reason(node.args[0], scan)
            if reason:
                yield module.finding(
                    node,
                    "unpicklable-worker",
                    f"{reason} passed to .{func.attr}(); spawned pool workers "
                    "unpickle callables by module reference — pass a "
                    "module-level function",
                )
        if isinstance(func, ast.Attribute):
            callee = func.attr
        elif isinstance(func, ast.Name):
            callee = func.id
        else:
            continue
        callable_kwargs = _POOL_CALLABLE_KWARGS.get(callee)
        if not callable_kwargs:
            continue
        for keyword in node.keywords:
            if keyword.arg in callable_kwargs:
                reason = _unpicklable_reason(keyword.value, scan)
                if reason:
                    yield module.finding(
                        node,
                        "unpicklable-worker",
                        f"{reason} passed as {callee}({keyword.arg}=...); it "
                        "cannot be pickled into a spawned child process — "
                        "pass a module-level function",
                    )


# ----------------------------------------------------------------------
# Rule 10 — determinism: monotonic timers only in the wall-time allowlist
# ----------------------------------------------------------------------

#: Dotted call targets that read a monotonic host timer.  Harmless by
#: themselves, but the reading is wall time: the moment it lands in a
#: row, export, or simulation decision, runs stop being comparable.
_MONOTONIC_TIMER_CALLS = {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
}


@rule(
    "wall-clock-output",
    "time.perf_counter()/monotonic() only in the audited wall-time "
    "allowlist (repro.tools.engine.WALL_TIME_ALLOWLIST) — elsewhere "
    "the reading leaks into deterministic outputs",
)
def check_wall_clock_output(module: Module) -> Iterator[Finding]:
    if module.wall_time_exempt:
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted in _MONOTONIC_TIMER_CALLS:
            yield module.finding(
                node,
                "wall-clock-output",
                f"{dotted}() outside the wall-time allowlist; deterministic "
                "outputs must not carry host timings — record wall time "
                "through repro.obs spans (wall_s) or the computation_s "
                "pattern, in an allowlisted module",
            )


# ----------------------------------------------------------------------
# Rule 11 — no unused imports
# ----------------------------------------------------------------------


def _import_bound_name(alias: ast.alias) -> str:
    """The name an import statement binds in the module namespace."""
    if alias.asname:
        return alias.asname
    return alias.name.split(".")[0]


def _used_names(module: Module) -> Set[str]:
    """Identifiers the module can observably use.

    Counts Name loads/stores (a store means the import is shadowed, but
    flagging shadowed imports is rule-creep), ``__all__`` string
    entries, and names mentioned in string annotations.
    """
    used: Set[str] = set()
    annotation_roots: List[ast.expr] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotation_roots.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotation_roots.append(node.annotation)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.returns is not None:
            annotation_roots.append(node.returns)
    # Quoted forward references ("ClosenessKernel") hide their names in
    # string constants; parse every string found inside an annotation.
    pending = list(annotation_roots)
    while pending:
        root = pending.pop()
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    inner.id
                    for inner in ast.walk(parsed)
                    if isinstance(inner, ast.Name)
                )
    exports = set()
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        for elt in node.value.elts:
                            if isinstance(elt, ast.Constant) and isinstance(
                                elt.value, str
                            ):
                                exports.add(elt.value)
    return used | exports


def unused_import_aliases(
    module: Module,
) -> List[Tuple[ast.stmt, ast.alias]]:
    """(import statement, alias) pairs bound but never used.

    Skips ``__future__`` imports, star imports, explicit re-exports
    (``import x as x`` / ``from m import n as n``), and ``__init__.py``
    files without an ``__all__`` (their imports *are* the API).
    """
    is_init = module.path.endswith("__init__.py")
    has_all = any(
        isinstance(node, ast.Assign)
        and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        )
        for node in module.tree.body
    )
    if is_init and not has_all:
        return []
    used = _used_names(module)
    unused: List[Tuple[ast.stmt, ast.alias]] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = _import_bound_name(alias)
                if alias.asname == alias.name:
                    continue  # explicit re-export convention
                if bound not in used:
                    unused.append((node, alias))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                if alias.asname == alias.name:
                    continue  # explicit re-export convention
                bound = alias.asname or alias.name
                if bound not in used:
                    unused.append((node, alias))
    return unused


@rule(
    "unused-import",
    "imported names must be used, exported via __all__, or re-exported "
    "with the `as` convention",
)
def check_unused_import(module: Module) -> Iterator[Finding]:
    for node, alias in unused_import_aliases(module):
        bound = alias.asname or alias.name
        yield module.finding(
            node,
            "unused-import",
            f"unused import {bound!r}; remove it (or re-export it as "
            f"`{alias.name} as {alias.name}` / list it in __all__)",
        )
