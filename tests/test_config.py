"""RunConfig carries features, not path selectors — and nothing reads the
environment behind its back."""

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.closeness import ClosenessMetric
from repro.core.config import RunConfig
from repro.core.cram import CramAllocator
from repro.core.energy import EnergySpec
from repro.core.fbf import first_fit
from repro.core.online import OnlineSpec
from repro.core.pairwise import PairwiseAllocator
from repro.experiments.cli import build_parser
from repro.experiments.runner import ExperimentRunner
from repro.workloads.scenarios import cluster_homogeneous

PACKAGE = Path(repro.__file__).parent


def test_runconfig_has_no_performance_field():
    assert {f.name for f in dataclasses.fields(RunConfig)} == {"online"}
    assert not hasattr(RunConfig, "resolved")


def test_energy_is_a_reading_not_a_run_option():
    """Energy is priced from a finished result, so nothing parses an
    energy spec string and neither ``run`` nor ``figure`` takes
    ``--energy``."""
    assert not hasattr(EnergySpec, "from_spec")
    for command in ("run", "figure"):
        arguments = [command, "--energy", "default"]
        if command == "figure":
            arguments += ["--figure", "brokers"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(arguments)


def test_runconfig_validates_and_feeds_builders():
    with pytest.raises(TypeError, match="shard_jobs"):
        RunConfig(shard_jobs=1)
    online = OnlineSpec(steps=3)
    scenario = cluster_homogeneous(8, scale=0.1)
    runner = ExperimentRunner(scenario, config=RunConfig(online=online))
    runner.run_continuous("fij-trade", cycles=1,
                          profiling_time=scenario.derived_profiling_time(),
                          measurement_time=6.0)
    loop = runner.last_continuous
    assert loop.online is online
    assert loop.scheduler.spec is online


def test_online_spec_is_what_the_workload_sets():
    """``OnlineSpec`` holds the four fields ``churn_online`` passes; the
    band, the move cap and the estimator window are module constants,
    and nothing parses a spec string or sizes the pool."""
    fields = tuple(f.name for f in dataclasses.fields(OnlineSpec))
    assert fields == ("strategy", "steps", "drift_threshold", "gap")
    assert not hasattr(OnlineSpec, "from_spec")
    continuous = (PACKAGE / "experiments" / "continuous.py").read_text(encoding="utf-8")
    assert "PoolAutoscaler" not in continuous
    online = (PACKAGE / "core" / "online.py").read_text(encoding="utf-8")
    assert "IncTrade" not in online
    for command in ("run", "figure"):
        arguments = [command, "--online", "fij_trade"]
        if command == "figure":
            arguments += ["--figure", "brokers"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(arguments)


def test_allocators_take_no_path_selecting_parameter():
    for allocator in (CramAllocator, PairwiseAllocator):
        parameters = inspect.signature(allocator).parameters
        assert not [name for name in parameters
                    if "kernel" in name or "columnar" in name], allocator
    with pytest.raises(TypeError, match="runner"):
        CramAllocator(runner=list)


def _pool_constructions(root):
    return [
        node for node in ast.walk(root)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith("ProcessPoolExecutor")
    ]


def test_one_process_pool_and_no_install_hooks_in_core():
    sites, hooks = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        if "core" in path.relative_to(PACKAGE).parts:
            hooks += [f.name for f in functions if f.name.startswith("install_")]
        inside = [f.name for f in functions for _ in _pool_constructions(f)]
        # Every construction sits in a def: none runs at import time.
        assert len(inside) == len(_pool_constructions(tree)), path
        sites += inside
    assert sites == ["execute_cells"]
    assert hooks == []


def test_import_repro_loads_no_process_pool():
    """Only ``--jobs N`` and ``--profile`` use the pool and the profiler,
    so ``import repro`` must not load them: in a fresh interpreter, none
    of these modules is imported."""
    heavy = ("multiprocessing", "concurrent.futures", "cProfile", "logging")
    probe = (
        "import sys, repro; "
        f"print(','.join(m for m in {heavy!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    assert loaded == ""


def test_one_kernel_decision_point_and_no_fallback_returns():
    """The kernel is built in one place, and always: nothing else
    constructs one, ``for_pool`` never answers "no kernel", the
    kernel-less first fit takes none, and no packed operation may answer
    "fall back" instead."""
    sites = []
    returns = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and path.name != "kernel.py"
            and ast.unparse(node.func).endswith("ClosenessKernel")
        ]
        if path.name in ("kernel.py", "fbf.py", "binpacking.py", "cram.py"):
            returns.update({
                node.name: ast.unparse(node.returns)
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.returns is not None
            })
    assert sites == []
    for name in ("unit_runs", "merge_profiles", "covers", "build", "after_merge"):
        assert "Optional" not in returns[name] and "None" not in returns[name], name
    assert "Optional" not in returns["for_pool"] and "None" not in returns["for_pool"]
    assert "kernel" not in inspect.signature(first_fit).parameters


def test_cram_and_pairwise_never_test_for_a_missing_kernel():
    """Every pool CRAM and PAIRWISE get packs, so no branch there may
    ask whether a kernel exists."""
    offenders = []
    for name in ("cram.py", "pairwise.py"):
        path = PACKAGE / "core" / name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Compare)
                    and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                    and "kernel" in ast.unparse(node.left)
                    and any(ast.unparse(side) == "None" for side in node.comparators)):
                offenders.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert offenders == []


#: The modules whose bins, passes, merges and poset read a kernel.
KERNEL_MODULES = (
    "capacity.py", "fbf.py", "binpacking.py", "overlay_builder.py", "poset.py", "units.py",
)

#: ``Optional[ClosenessKernel]``, quoted or qualified, in an annotation.
OPTIONAL_KERNEL = re.compile(r"Optional\[\s*['\"]?(\w+\.)*ClosenessKernel['\"]?\s*\]")


def test_bins_passes_merges_and_the_poset_require_a_kernel():
    """One feasibility test: no parameter there defaults a kernel to
    ``None`` or types it optional, no branch asks whether one exists,
    and ``BrokerBin`` keeps no per-publisher ``BitVector`` dict (that
    walk is ``tests/first_fit_oracle.py``'s)."""
    offenders = []
    for name in KERNEL_MODULES:
        tree = ast.parse((PACKAGE / "core" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Compare)
                    and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                    and "kernel" in ast.unparse(node.left)
                    and any(ast.unparse(side) == "None" for side in node.comparators)):
                offenders.append(f"{name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.arguments):
                positional = node.posonlyargs + node.args
                defaults = [None] * (len(positional) - len(node.defaults)) + node.defaults
                for arg, default in [*zip(positional, defaults),
                                     *zip(node.kwonlyargs, node.kw_defaults)]:
                    annotation = ast.unparse(arg.annotation) if arg.annotation else ""
                    if OPTIONAL_KERNEL.search(annotation) or (
                        "kernel" in arg.arg and default is not None
                        and ast.unparse(default) == "None"
                    ):
                        offenders.append(f"{name}:{arg.lineno} {arg.arg}")
            elif (isinstance(node, (ast.AnnAssign, ast.FunctionDef))
                    and OPTIONAL_KERNEL.search(
                        ast.unparse(node.annotation if isinstance(node, ast.AnnAssign)
                                    else node.returns or ast.Constant(None)))):
                offenders.append(f"{name}:{node.lineno}")
        if name == "capacity.py":
            (brokerbin,) = [node for node in tree.body
                            if isinstance(node, ast.ClassDef) and node.name == "BrokerBin"]
            (slots,) = [ast.literal_eval(node.value) for node in brokerbin.body
                        if isinstance(node, ast.Assign)
                        and ast.unparse(node.targets[0]) == "__slots__"]
            assert "_kernel" in slots
            offenders += [slot for slot in slots
                          if slot in ("_adv_vectors", "_adv_cardinality", "_directory")]
    assert offenders == []


#: Per-publisher algebra whose only home is ``tests/profile_oracle.py``.
ORACLE_ONLY = {
    "attach_kernel", "fused_cardinalities", "intersection_cardinality",
    "xor_cardinality", "union_cardinality",
}


def test_the_kernel_is_the_only_profile_algebra():
    """Closeness, relationship and coverage run on packed bits: under
    ``src/repro/core`` no metric function, no ``relationship`` function,
    no set-algebra method, and ``covers`` / ``relationship`` only as
    methods of the kernel.  A metric names a formula and counts its
    evaluations; the kernel its caller passes in computes it."""
    offenders = []
    for path in sorted((PACKAGE / "core").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(node): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name, owner = node.name, methods.get(id(node))
            if (name in ORACLE_ONLY
                    or (name.endswith("_metric") and name != "make_metric")
                    or (name in ("covers", "relationship")
                        and owner != "ClosenessKernel")):
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []
    assert not (PACKAGE / "core" / "popcount.py").exists()
    parameters = list(inspect.signature(ClosenessMetric.__init__).parameters)
    assert parameters == ["self", "name", "prunable"]


#: The Simulator's scheduling entry points.
SCHEDULING_CALLS = ("schedule", "schedule_at", "call_at")


def test_no_lambda_is_scheduled_in_sim_or_pubsub():
    """Message hops and timers hand the engine a callable and its
    arguments, never a closure built per message."""
    seen, offenders = set(), []
    for package in ("sim", "pubsub"):
        for path in sorted((PACKAGE / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in SCHEDULING_CALLS):
                    continue
                seen.add(node.func.attr)
                arguments = [*node.args, *(keyword.value for keyword in node.keywords)]
                if any(isinstance(inner, ast.Lambda)
                       for argument in arguments for inner in ast.walk(argument)):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert seen == set(SCHEDULING_CALLS)
    assert offenders == []


def test_no_environment_reads_and_no_numpy_outside_tools():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if "tools" in path.relative_to(PACKAGE).parts:
            continue  # the linter names these things in order to forbid them
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "os" and node.attr in ("environ", "getenv"):
                    offenders.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "os" and any(
                    alias.name in ("environ", "getenv") for alias in node.names
                ):
                    offenders.append(f"{path.name}:{node.lineno} from os import")
                if (node.module or "").split(".")[0] == "numpy":
                    offenders.append(f"{path.name}:{node.lineno} numpy")
            elif isinstance(node, ast.Import):
                if any(alias.name.split(".")[0] == "numpy" for alias in node.names):
                    offenders.append(f"{path.name}:{node.lineno} numpy")
    assert offenders == []
