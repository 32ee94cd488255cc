"""The allocator registry: pluggable Phase-2 allocation algorithms.

Experiment drivers used to hard-code a string-switch over the paper's
six CROC allocators (FBF, BIN PACKING, four CRAM metrics) — adding an
allocator variant meant editing the runner, the CLI, and the sweep
module in lockstep.  This module replaces that with a single registry
of :class:`AllocatorSpec` records:

* a spec binds a name to a *builder* — a callable taking keyword knobs
  (``rng``, ``failure_budget``, …) and returning a zero-argument
  allocator factory, the shape :class:`~repro.core.croc.Croc`
  consumes — plus a **capability set** (:data:`KNOWN_CAPABILITIES`)
  that lets the CLI, the spawn-pool worker replay, and the online
  scheduler query what an allocator can do without instantiating it;
* :func:`register_spec` registers a spec;
* :func:`get` resolves a name to a ready factory;
* :func:`registered_names` drives CLI choices and the approach tables,
  preserving registration order (the paper's presentation order).

Builders accept ``**knobs`` liberally and pick what they understand,
so one call site can thread every experiment knob to every allocator.

Example
-------
>>> factory = get("cram-ios")
>>> factory().name
'cram-ios'
>>> supports("inc-trade", "incremental")
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from repro.core.binpacking import BinPackingAllocator
from repro.core.cram import CramAllocator, ShardedCramAllocator
from repro.core.fbf import FbfAllocator
from repro.core.online import OnlineAllocator, OnlineSpec

#: A zero-argument callable producing a fresh allocator instance.
AllocatorFactory = Callable[[], Any]

#: A builder: keyword knobs in, allocator factory out.
AllocatorBuilder = Callable[..., AllocatorFactory]

#: The capability vocabulary specs may advertise:
#: ``incremental`` — exposes ``plan_migrations`` for the online
#: scheduler; ``energy_aware`` — accepts the ``energy`` knob (an
#: :class:`~repro.core.energy.EnergySpec`) and carries it for
#: energy-conscious scheduling decisions (never altering allocations).
KNOWN_CAPABILITIES: FrozenSet[str] = frozenset({"incremental", "energy_aware"})


@dataclass(frozen=True)
class AllocatorSpec:
    """One registry entry: name, builder, declared capabilities.

    Frozen and picklable (given a module-level builder), so the exact
    record registered in the parent process is what spawn-pool workers
    replay.
    """

    name: str
    builder: AllocatorBuilder
    capabilities: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("allocator name must be non-empty")
        if not callable(self.builder):
            raise TypeError(
                f"allocator {self.name!r} builder must be callable, "
                f"got {type(self.builder).__name__}"
            )
        capabilities = frozenset(self.capabilities)
        unknown = capabilities - KNOWN_CAPABILITIES
        if unknown:
            raise ValueError(
                f"allocator {self.name!r} declares unknown capabilities "
                f"{sorted(unknown)}; known: {sorted(KNOWN_CAPABILITIES)}"
            )
        object.__setattr__(self, "capabilities", capabilities)

    def build(self, **knobs: Any) -> AllocatorFactory:
        """Invoke the builder (knob filtering is the builder's job)."""
        return self.builder(**knobs)


_REGISTRY: Dict[str, AllocatorSpec] = {}


def register_spec(spec: AllocatorSpec, *, replace: bool = False) -> None:
    """Register a ready :class:`AllocatorSpec`.

    Duplicate names are rejected unless ``replace`` is set — silently
    shadowing one of the paper's allocators would corrupt every table
    that derives its rows from the registry.
    """
    if spec.name in _REGISTRY and not replace:
        raise ValueError(
            f"allocator {spec.name!r} already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[spec.name] = spec


def unregister(name: str) -> None:
    """Remove a registered allocator (unknown names raise)."""
    if name not in _REGISTRY:
        raise ValueError(f"allocator {name!r} is not registered")
    del _REGISTRY[name]


def is_registered(name: str) -> bool:
    """True when ``name`` resolves to a registered spec."""
    return name in _REGISTRY


def registered_names() -> Tuple[str, ...]:
    """All registered allocator names, in registration order."""
    return tuple(_REGISTRY)


def spec_for(name: str) -> AllocatorSpec:
    """The full :class:`AllocatorSpec` behind ``name``."""
    found = _REGISTRY.get(name)
    if found is None:
        raise ValueError(
            f"unknown allocator {name!r}; registered: "
            f"{', '.join(_REGISTRY) or '(none)'}"
        )
    return found


def registered_specs() -> Tuple[AllocatorSpec, ...]:
    """Every registered spec, in registration order."""
    return tuple(_REGISTRY.values())


def capabilities(name: str) -> FrozenSet[str]:
    """The capability set ``name`` declares."""
    return spec_for(name).capabilities


def supports(name: str, capability: str) -> bool:
    """Whether allocator ``name`` declares ``capability``."""
    if capability not in KNOWN_CAPABILITIES:
        raise ValueError(
            f"unknown capability {capability!r}; known: "
            f"{sorted(KNOWN_CAPABILITIES)}"
        )
    return capability in spec_for(name).capabilities


def names_with(capability: str) -> Tuple[str, ...]:
    """Registered names declaring ``capability``, registration order."""
    return tuple(
        spec.name
        for spec in _REGISTRY.values()
        if capability in spec.capabilities
    )


def get(name: str, **knobs: Any) -> AllocatorFactory:
    """Resolve ``name`` to a zero-argument allocator factory.

    ``knobs`` are forwarded to the builder; builders ignore knobs they
    do not understand.
    """
    return spec_for(name).build(**knobs)


# ----------------------------------------------------------------------
# Built-in allocators, in the paper's presentation order (§IV–V),
# followed by the online incremental strategies.
# ----------------------------------------------------------------------
def _fbf_builder(rng: Any = None, **_: Any) -> AllocatorFactory:
    return lambda: FbfAllocator(rng=rng)


def _binpacking_builder(**_: Any) -> AllocatorFactory:
    return BinPackingAllocator


class _CramBuilder:
    """Builder for the CRAM family, one instance per closeness metric.

    A module-level class (not a closure) so a registration that ends up
    in a worker snapshot pickles by reference like every other builder.
    """

    def __init__(self, metric: str):
        self.metric = metric

    def __call__(
        self,
        failure_budget: Any = None,
        **_: Any,
    ) -> AllocatorFactory:
        metric, budget = self.metric, failure_budget
        return lambda: CramAllocator(
            metric=metric,
            failure_budget=budget,
        )


class _ShardedCramBuilder:
    """Builder for sharded-Phase-2 CRAM (see ``repro.core.cram``).

    Module-level class for the same pickling-by-reference reason as
    :class:`_CramBuilder`.
    """

    def __init__(self, metric: str, shards: int = 4):
        self.metric = metric
        self.shards = shards

    def __call__(
        self,
        failure_budget: Any = None,
        **_: Any,
    ) -> AllocatorFactory:
        metric, shards, budget = self.metric, self.shards, failure_budget
        return lambda: ShardedCramAllocator(
            metric=metric,
            shards=shards,
            failure_budget=budget,
        )


class _OnlineBuilder:
    """Builder for the online incremental strategies.

    The registered approach name fixes the strategy; the ``online``
    knob (an :class:`~repro.core.online.OnlineSpec`) contributes every
    other tuning parameter.  Module-level class so worker snapshots
    pickle it by reference.
    """

    def __init__(self, strategy: str, metric: str = "ios"):
        self.strategy = strategy
        self.metric = metric

    def __call__(
        self,
        failure_budget: Any = None,
        online: Optional[OnlineSpec] = None,
        energy: Any = None,
        **_: Any,
    ) -> AllocatorFactory:
        strategy, metric, budget = self.strategy, self.metric, failure_budget
        spec, energy_spec = online, energy
        return lambda: OnlineAllocator(
            strategy=strategy,
            metric=metric,
            failure_budget=budget,
            spec=spec,
            energy=energy_spec,
        )


register_spec(AllocatorSpec("fbf", _fbf_builder))
register_spec(AllocatorSpec("binpacking", _binpacking_builder))
for _metric in ("intersect", "xor", "ios", "iou"):
    register_spec(AllocatorSpec(f"cram-{_metric}", _CramBuilder(_metric)))
del _metric
register_spec(AllocatorSpec("cram-ios-sharded", _ShardedCramBuilder("ios")))
register_spec(AllocatorSpec("inc-trade", _OnlineBuilder("inc_trade"),
                            capabilities=("incremental", "energy_aware")))
register_spec(AllocatorSpec("fij-trade", _OnlineBuilder("fij_trade"),
                            capabilities=("incremental", "energy_aware")))

#: Import-time snapshot of the built-in registrations.  Every Python
#: process that imports this module gets exactly these, so a spawned
#: pool worker only needs to be told about registrations *beyond* them
#: (see :func:`custom_registrations` and repro.experiments.parallel).
_BUILTIN_SPECS: Dict[str, AllocatorSpec] = dict(_REGISTRY)


def custom_registrations() -> Tuple[AllocatorSpec, ...]:
    """Registrations beyond (or shadowing) the import-time built-ins.

    Process-pool workers replay these specs to mirror the parent
    registry; the builders must therefore be module-level callables so
    pickling by reference works under the ``spawn`` start method
    (enforced by reprolint's ``unpicklable-worker`` rule).
    """
    return tuple(
        spec
        for name, spec in _REGISTRY.items()
        if _BUILTIN_SPECS.get(name) != spec
    )

#: Aliases re-exported at the :mod:`repro.core` / :mod:`repro` level,
#: where the short names would be ambiguous.
get_allocator = get
registered_allocators = registered_names
