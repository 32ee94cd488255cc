"""The ``determinism-taint`` pass: flow-sensitive nondeterminism tracking.

The bit-identity suites prove determinism *after* the fact; this pass
explains it statically.  Four taint kinds model the ways a value can
come to depend on something other than (config, seed):

* ``set-order`` — the value derives from the iteration order of a
  ``set``/``frozenset`` (hash-seed and insertion-history dependent);
* ``env`` — the value derives from ``os.environ``;
* ``wall-clock`` — the value derives from a host clock reading;
* ``randomness`` — the value derives from stdlib/numpy randomness that
  did not flow through :class:`repro.core.rng.SeededRng`.

The lattice per variable is the powerset of taint kinds plus an
``unordered`` bit marking set-typed values (a *clean* set exists; only
its iteration order is tainted).  Taint propagates flow-sensitively
through assignments, expressions, loops, branches, and function calls
(cross-module, via import-graph-resolved return summaries computed to
a small fixpoint).  ``sorted()`` — and the other order-insensitive
reductions ``len``/``min``/``max``/``any``/``all`` — sanitize
``set-order``; nothing sanitizes ``env``, ``wall-clock``, or
``randomness``.

A finding fires when a tainted value reaches a *sink*: an output or
export call (``print``, ``repr``, ``json.dump[s]``, ``.write*``,
``write_*(...)``), the return value of an ``allocate()`` method (an
allocation decision), or the return value of a metrics-row builder
(``as_row``/``*_row``/``rows``).  The audited wall-time allowlist
(:data:`repro.tools.engine.WALL_TIME_ALLOWLIST`, the same table the
per-file ``wall-clock-output`` rule reads) excuses ``wall-clock`` taint
in the modules the repo has proven safe by other means; everything
else is a defect or a ``# reprolint: disable=`` comment with its
reason.

Known approximations (all conservative in the safe direction for this
codebase, and documented in DESIGN.md): attribute stores are not
tracked, implicit flows (control dependence) are ignored, and unknown
calls propagate argument taint without generating any.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.tools.engine import Finding, Module
from repro.tools.project import ModuleInfo, Project, project_pass

# ----------------------------------------------------------------------
# Lattice
# ----------------------------------------------------------------------

#: One taint fact: (kind, origin line in the defining module).
Taint = Tuple[str, int]

KIND_SET_ORDER = "set-order"
KIND_ENV = "env"
KIND_WALL_CLOCK = "wall-clock"
KIND_RANDOMNESS = "randomness"


@dataclass(frozen=True)
class VarState:
    """Abstract value: carried taints plus the unordered-collection bit."""

    taints: FrozenSet[Taint] = frozenset()
    unordered: bool = False

    def union(self, other: "VarState") -> "VarState":
        if not other.taints and not other.unordered:
            return self
        return VarState(self.taints | other.taints, self.unordered or other.unordered)

    def with_taint(self, kind: str, lineno: int) -> "VarState":
        return VarState(self.taints | {(kind, lineno)}, self.unordered)

    def sanitized(self) -> "VarState":
        """Order-insensitive reduction: drop set-order, keep the rest."""
        return VarState(
            frozenset(t for t in self.taints if t[0] != KIND_SET_ORDER), False
        )


CLEAN = VarState()

#: Builtins whose result cannot depend on the iteration order of their
#: argument (sorted output, cardinality, extrema, boolean reductions).
_SANITIZERS = {"sorted", "len", "min", "max", "any", "all"}

#: Builtins that materialize an iteration order.
_ORDER_MATERIALIZERS = {"list", "tuple", "iter", "enumerate", "reversed"}

#: Wall-clock reading calls (both absolute and monotonic timers).
_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow", "date.today",
    "datetime.date.today",
}

#: Unmanaged randomness call prefixes (SeededRng methods resolve through
#: object attributes and are never dotted ``random.*`` module calls).
_RANDOM_PREFIXES = ("random.", "numpy.random.", "np.random.")

#: Output / export call sinks.
_OUTPUT_NAME_CALLS = {"print", "repr"}
_OUTPUT_DOTTED_CALLS = {"json.dump", "json.dumps"}
_OUTPUT_METHODS = {"write", "writerow", "writelines"}

#: Return-value sinks, by function name.
_ALLOCATION_SINKS = {"allocate"}


def _is_row_builder(name: str) -> bool:
    return name in {"as_row", "to_row", "rows"} or name.endswith("_row")


def _excused(info: ModuleInfo, kind: str) -> bool:
    """Only ``wall-clock`` taint is ever excused, and only by the allowlist."""
    return kind == KIND_WALL_CLOCK and info.module.wall_time_exempt


# ----------------------------------------------------------------------
# Per-function flow-sensitive interpreter
# ----------------------------------------------------------------------

SummaryKey = Tuple[str, str]  # (module name, function qualname)


class _Analyzer:
    """Interprets one function (or a module body) over the taint lattice."""

    def __init__(
        self,
        project: Project,
        info: ModuleInfo,
        summaries: Dict[SummaryKey, VarState],
        module_env: Dict[str, VarState],
        class_name: Optional[str] = None,
        func_name: Optional[str] = None,
        collect: Optional[List[Finding]] = None,
    ):
        self.project = project
        self.info = info
        self.summaries = summaries
        self.module_env = module_env
        self.class_name = class_name
        self.func_name = func_name
        self.collect = collect
        self.env: Dict[str, VarState] = {}
        self.return_state = CLEAN

    # -- helpers -------------------------------------------------------
    def _dotted(self, node: ast.AST) -> Optional[str]:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    def _lookup(self, name: str) -> VarState:
        if name in self.env:
            return self.env[name]
        return self.module_env.get(name, CLEAN)

    def _summary_for_call(self, func: ast.AST) -> Optional[VarState]:
        """Return-state summary of a resolvable project-internal callee."""
        if isinstance(func, ast.Name):
            resolved = self.project.resolve_name(self.info.name, func.id)
            if resolved is not None and isinstance(
                resolved[1], (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                return self.summaries.get((resolved[0], resolved[1].name))
            return None
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and self.class_name is not None
            ):
                return self.summaries.get(
                    (self.info.name, f"{self.class_name}.{func.attr}")
                )
            dotted = self._dotted(func.value)
            if dotted is not None:
                # ``alias.f()`` where alias names a project module.
                target = self._module_alias(dotted)
                if target is not None:
                    return self.summaries.get((target, func.attr))
        return None

    def _module_alias(self, dotted: str) -> Optional[str]:
        """Resolve a local name/dotted prefix to a project module name."""
        for edge in self.info.imports:
            resolved = self.project.resolve_target(edge.target)
            if resolved is None:
                continue
            if edge.names:
                for name in edge.names:
                    if name == dotted:
                        candidate = self.project.resolve_target(
                            f"{edge.target}.{name}"
                        )
                        if candidate and candidate != resolved:
                            return candidate
            elif edge.target == dotted or edge.target.endswith("." + dotted):
                return resolved
        return None

    def _report(self, node: ast.AST, state: VarState, sink: str) -> None:
        if self.collect is None or not state.taints:
            return
        kinds = sorted({t[0] for t in state.taints})
        live = [k for k in kinds if not _excused(self.info, k)]
        if not live:
            return
        origins = {
            kind: min(line for k, line in state.taints if k == kind)
            for kind in live
        }
        detail = ", ".join(
            f"{kind} (from line {origins[kind]})" for kind in live
        )
        self.collect.append(
            Finding(
                self.info.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                "determinism-taint",
                f"value tainted by {detail} reaches {sink}; sort/sanitize "
                "before it lands in a deterministic output "
                "(sorted() clears set-order; env/clock/randomness need a "
                "seam or a disable= comment with its reason)",
            )
        )

    # -- expression evaluation -----------------------------------------
    def eval(self, node: Optional[ast.AST]) -> VarState:
        if node is None or isinstance(node, ast.Constant):
            return CLEAN
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, (ast.Set,)):
            state = _union(self.eval(e) for e in node.elts)
            return VarState(state.taints, True)
        if isinstance(node, (ast.List, ast.Tuple)):
            return _union(self.eval(e) for e in node.elts)
        if isinstance(node, ast.Dict):
            parts = [self.eval(k) for k in node.keys if k is not None]
            parts += [self.eval(v) for v in node.values]
            return _union(parts)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            left, right = self.eval(node.left), self.eval(node.right)
            merged = left.union(right)
            if (left.unordered or right.unordered) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
            ):
                return VarState(merged.taints, True)
            return VarState(merged.taints, False)
        if isinstance(node, ast.BoolOp):
            return _union(self.eval(v) for v in node.values)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.Compare):
            merged = _union(
                [self.eval(node.left)] + [self.eval(c) for c in node.comparators]
            )
            # Membership and equality are order-insensitive.
            return merged.sanitized()
        if isinstance(node, ast.IfExp):
            return self.eval(node.body).union(self.eval(node.orelse))
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            dotted = self._dotted(node.value)
            if dotted in ("os.environ",):
                base = base.with_taint(KIND_ENV, node.lineno)
            return VarState(base.taints | self.eval(node.slice).taints, False)
        if isinstance(node, ast.Attribute):
            dotted = self._dotted(node)
            if dotted == "os.environ":
                return VarState(
                    frozenset({(KIND_ENV, node.lineno)}), False
                )
            return VarState(self.eval(node.value).taints, False)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, (ast.JoinedStr,)):
            return _union(self.eval(v) for v in node.values)
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._eval_comp(node, [node.elt], unordered=False)
        if isinstance(node, ast.SetComp):
            return self._eval_comp(node, [node.elt], unordered=True)
        if isinstance(node, ast.DictComp):
            return self._eval_comp(node, [node.key, node.value], unordered=False)
        if isinstance(node, ast.Lambda):
            return CLEAN
        if isinstance(node, (ast.Await, ast.YieldFrom, ast.Yield)):
            return self.eval(getattr(node, "value", None))
        if isinstance(node, ast.NamedExpr):
            state = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = state
            return state
        return CLEAN

    def _element_state(self, iterable: VarState, lineno: int) -> VarState:
        state = VarState(iterable.taints, False)
        if iterable.unordered:
            state = state.with_taint(KIND_SET_ORDER, lineno)
        return state

    def _eval_comp(
        self, node: ast.AST, results: Sequence[ast.AST], unordered: bool
    ) -> VarState:
        saved = dict(self.env)
        for comp in node.generators:  # type: ignore[attr-defined]
            iter_state = self.eval(comp.iter)
            element = self._element_state(iter_state, comp.iter.lineno)
            self._bind(comp.target, element)
            for test in comp.ifs:
                self.eval(test)
        state = _union(self.eval(r) for r in results)
        self.env = saved
        if unordered:
            return VarState(state.sanitized().taints, True)
        return state

    def _eval_call(self, node: ast.Call) -> VarState:
        args = [self.eval(a) for a in node.args]
        args += [self.eval(k.value) for k in node.keywords]
        merged = _union(args)
        func = node.func
        dotted = self._dotted(func)

        if isinstance(func, ast.Name):
            name = func.id
            if name in _SANITIZERS:
                return merged.sanitized()
            if name in ("set", "frozenset"):
                return VarState(merged.sanitized().taints, True)
            if name in _ORDER_MATERIALIZERS:
                if any(a.unordered for a in args):
                    merged = merged.with_taint(KIND_SET_ORDER, node.lineno)
                return VarState(merged.taints, False)
            if name == "getattr" and merged.taints:
                return merged

        if dotted is not None:
            if dotted in _CLOCK_CALLS:
                return merged.with_taint(KIND_WALL_CLOCK, node.lineno)
            if dotted in ("os.getenv", "os.environ.get"):
                return merged.with_taint(KIND_ENV, node.lineno)
            if dotted.startswith(_RANDOM_PREFIXES):
                return merged.with_taint(KIND_RANDOMNESS, node.lineno)

        # Output sinks.
        if isinstance(func, ast.Name) and func.id in _OUTPUT_NAME_CALLS:
            self._check_args(node, args, f"{func.id}()")
        elif dotted in _OUTPUT_DOTTED_CALLS:
            self._check_args(node, args, f"{dotted}()")
        elif isinstance(func, ast.Attribute) and func.attr in _OUTPUT_METHODS:
            self._check_args(node, args, f".{func.attr}()")
        elif isinstance(func, ast.Name) and func.id.startswith("write_"):
            self._check_args(node, args, f"{func.id}()")

        # Set-method algebra keeps the unordered bit.
        if isinstance(func, ast.Attribute):
            receiver = self.eval(func.value)
            if func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference", "copy",
            ) and receiver.unordered:
                return VarState(merged.union(receiver).taints, True)
            if func.attr == "pop" and receiver.unordered:
                return merged.union(receiver).with_taint(
                    KIND_SET_ORDER, node.lineno
                )
            merged = merged.union(VarState(receiver.taints, False))

        summary = self._summary_for_call(func)
        if summary is not None:
            return VarState(
                merged.taints | summary.taints,
                summary.unordered,
            )
        return VarState(merged.taints, False)

    def _check_args(
        self, node: ast.Call, args: Sequence[VarState], sink: str
    ) -> None:
        merged = _union(args)
        if merged.taints:
            self._report(node, merged, sink)

    # -- statements ----------------------------------------------------
    def _bind(self, target: ast.AST, state: VarState) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = state
        elif isinstance(target, (ast.Tuple, ast.List)):
            element = VarState(state.taints, False)
            for item in target.elts:
                self._bind(item, element)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, state)
        # Attribute / Subscript stores are not tracked (documented).

    def exec_block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def _merge_env(self, *envs: Dict[str, VarState]) -> Dict[str, VarState]:
        merged: Dict[str, VarState] = {}
        for env in envs:
            for name, state in env.items():
                merged[name] = merged.get(name, CLEAN).union(state)
        return merged

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            state = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, state)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            state = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = self._lookup(stmt.target.id).union(
                    state
                )
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            state = self.eval(stmt.value)
            self.return_state = self.return_state.union(state)
            self._check_return(stmt, state)
        elif isinstance(stmt, (ast.If,)):
            self.eval(stmt.test)
            before = dict(self.env)
            self.exec_block(stmt.body)
            then_env = self.env
            self.env = dict(before)
            self.exec_block(stmt.orelse)
            self.env = self._merge_env(then_env, self.env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_state = self.eval(stmt.iter)
            element = self._element_state(iter_state, stmt.iter.lineno)
            before = dict(self.env)
            for _ in range(2):  # loop-carried taint needs one extra sweep
                self._bind(stmt.target, element)
                self.exec_block(stmt.body)
            self.env = self._merge_env(before, self.env)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            before = dict(self.env)
            for _ in range(2):
                self.eval(stmt.test)
                self.exec_block(stmt.body)
            self.env = self._merge_env(before, self.env)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                state = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, state)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            before = dict(self.env)
            self.exec_block(stmt.body)
            body_env = self.env
            handler_envs = []
            for handler in stmt.handlers:
                self.env = self._merge_env(before, body_env)
                self.exec_block(handler.body)
                handler_envs.append(self.env)
            self.env = self._merge_env(body_env, *handler_envs)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # analyzed separately with their own scope
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            if isinstance(stmt, ast.Raise) and stmt.exc is not None:
                self.eval(stmt.exc)
            if isinstance(stmt, ast.Assert):
                self.eval(stmt.test)
        # Import / Global / Pass / Break / Continue: no taint effect.

    def _check_return(self, stmt: ast.Return, state: VarState) -> None:
        if self.func_name is None or not state.taints:
            return
        if self.func_name in _ALLOCATION_SINKS:
            self._report(stmt, state, "an allocation decision (allocate() return)")
        elif _is_row_builder(self.func_name):
            self._report(
                stmt, state, f"a metrics row ({self.func_name}() return)"
            )


def _union(states) -> VarState:
    merged = CLEAN
    for state in states:
        merged = merged.union(state)
    return merged


# ----------------------------------------------------------------------
# Module / project drivers
# ----------------------------------------------------------------------


def _iter_functions(
    module: Module,
) -> Iterator[Tuple[Optional[str], ast.AST]]:
    """(class name or None, function node) for all module/class functions."""
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item


def _module_env(
    project: Project,
    info: ModuleInfo,
    summaries: Dict[SummaryKey, VarState],
) -> Dict[str, VarState]:
    """Abstract state of module-level names (globals functions read)."""
    analyzer = _Analyzer(project, info, summaries, {})
    analyzer.exec_block(info.module.tree.body)
    return analyzer.env


def _analyze_module(
    project: Project,
    info: ModuleInfo,
    summaries: Dict[SummaryKey, VarState],
    collect: Optional[List[Finding]],
) -> bool:
    """One analysis sweep over a module; True when a summary changed."""
    module_env = _module_env(project, info, summaries)
    changed = False
    for class_name, node in _iter_functions(info.module):
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        analyzer = _Analyzer(
            project, info, summaries, module_env,
            class_name=class_name, func_name=node.name, collect=collect,
        )
        analyzer.exec_block(node.body)  # type: ignore[attr-defined]
        key = (info.name, qualname)
        previous = summaries.get(key, CLEAN)
        updated = previous.union(analyzer.return_state)
        if updated != previous:
            summaries[key] = updated
            changed = True
        # Plain function-name summaries let Name-calls resolve methods
        # registered without their class (rare; harmless over-approx).
        if class_name is None:
            summaries.setdefault(key, updated)
    return changed


@project_pass(
    "determinism-taint",
    "set-iteration/env/clock/randomness taint must not reach allocation "
    "decisions, metrics rows, or exports (sorted() sanitizes set-order)",
)
def check_determinism_taint(project: Project) -> List[Finding]:
    summaries: Dict[SummaryKey, VarState] = {}
    # Fixpoint over call summaries (bounded; the lattice is tiny and
    # union-monotone, so three sweeps settle real codebases).
    for _ in range(3):
        changed = False
        for name in sorted(project.modules):
            changed |= _analyze_module(project, project.modules[name], summaries, None)
        if not changed:
            break
    findings: List[Finding] = []
    for name in sorted(project.modules):
        _analyze_module(project, project.modules[name], summaries, findings)
    return findings
