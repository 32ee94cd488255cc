"""Phase 3: recursive broker overlay construction (paper Section V).

The overlay is built layer by layer.  Each broker allocated by the
previous run of the subscription allocation algorithm is mapped to a
*pseudo-subscription* — the OR of all bit vectors it serves, with the
bandwidth requirement of the single inter-broker stream feeding it —
and the same allocation algorithm is invoked on those pseudo-units to
allocate the next layer of (parent) brokers.  The recursion ends when a
single broker is allocated: the tree root, where all publishers
initially attach before GRAPE relocates them.

Three optimizations run after each layer is allocated, in the paper's
order:

A. **Eliminate pure forwarding brokers** — a parent with exactly one
   child and no local subscriptions merely relays traffic; deallocate
   it and promote the child.
B. **Takeover children broker roles** — a parent with spare capacity
   absorbs the units of its least-utilized children outright,
   deallocating them.
C. **Best-fit broker replacement** — swap each allocated broker for the
   unused broker whose capacity best fits its actual load, freeing the
   big brokers (and powering off oversized ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.capacity import AllocationResult, BrokerBin, BrokerSpec, sorted_broker_pool
from repro.core.deployment import BrokerTree
from repro.core.kernel import ClosenessKernel
from repro.core.profiles import PublisherDirectory
from repro.core.units import AllocationUnit

AllocatorFactory = Callable[[], object]


@dataclass
class OverlayBuildStats:
    """Diagnostics of one Phase-3 run (used by the ablation bench)."""

    layers: int = 0
    pure_forwarders_eliminated: int = 0
    children_taken_over: int = 0
    best_fit_replacements: int = 0
    fallback_roots: int = 0


class OverlayBuilder:
    """Recursive overlay construction with toggleable optimizations.

    Parameters
    ----------
    allocator_factory:
        Zero-argument callable returning a fresh Phase-2 allocator; the
        same algorithm used for subscriptions builds the overlay, which
        keeps the whole allocation scheme consistent (paper §V).
    """

    def __init__(
        self,
        allocator_factory: AllocatorFactory,
        eliminate_pure_forwarders: bool = True,
        takeover_children: bool = True,
        best_fit_replacement: bool = True,
    ):
        self._allocator_factory = allocator_factory
        self.eliminate_pure_forwarders = eliminate_pure_forwarders
        self.takeover_children = takeover_children
        self.best_fit_replacement = best_fit_replacement
        self.last_stats = OverlayBuildStats()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def build(
        self,
        phase2_result: AllocationResult,
        pool: Sequence[BrokerSpec],
        directory: PublisherDirectory,
    ) -> BrokerTree:
        """Connect the Phase-2 brokers into a tree."""
        stats = OverlayBuildStats()
        self.last_stats = stats
        specs: Dict[str, BrokerSpec] = {spec.broker_id: spec for spec in pool}
        broker_units: Dict[str, List[AllocationUnit]] = {
            bin_.spec.broker_id: list(bin_.units) for bin_ in phase2_result.bins
        }
        children: Dict[str, List[str]] = {}
        current: List[str] = [bin_.spec.broker_id for bin_ in phase2_result.bins]
        used: Set[str] = set(current)
        remaining: List[BrokerSpec] = [
            spec for spec in pool if spec.broker_id not in used
        ]

        if not current:
            # Degenerate: nothing allocated.  Activate one broker so the
            # overlay exists (publishers still need somewhere to attach).
            best = sorted_broker_pool(pool)[0]
            return self._finish(best.broker_id, children, broker_units)
        # Pseudo-units OR-merge Phase-2 profiles, so they fit these planes.
        kernel = ClosenessKernel.for_pool(
            directory, [unit.profile for units in broker_units.values() for unit in units]
        )

        while len(current) > 1:
            stats.layers += 1
            pseudo_units = [
                AllocationUnit.for_child_broker(broker_id, broker_units[broker_id], directory)
                for broker_id in current
            ]
            allocator = self._allocator_factory()
            result = allocator.allocate(pseudo_units, remaining, directory)
            if not result.success or result.broker_count >= len(current):
                current = self._fallback_layer(
                    current, remaining, children, broker_units, directory, stats
                )
                break
            layer: List[str] = []
            for bin_ in result.bins:
                parent_id = bin_.spec.broker_id
                child_ids = [
                    child for unit in bin_.units for child in unit.child_broker_ids
                ]
                if self.eliminate_pure_forwarders and len(child_ids) == 1:
                    # Optimization A: the would-be parent purely forwards
                    # one stream; skip it and promote the lone child.
                    stats.pure_forwarders_eliminated += 1
                    layer.append(child_ids[0])
                    continue
                used.add(parent_id)
                children[parent_id] = list(child_ids)
                broker_units[parent_id] = list(bin_.units)
                layer.append(parent_id)
            remaining = [spec for spec in remaining if spec.broker_id not in used]
            if self.takeover_children:
                self._takeover_pass(layer, children, broker_units, specs,
                                    remaining, used, kernel, stats)
            if self.best_fit_replacement:
                remaining = self._best_fit_pass(
                    layer, children, broker_units, specs, remaining, used,
                    kernel, stats
                )
            if len(layer) >= len(current):
                current = self._fallback_layer(
                    layer, remaining, children, broker_units, directory, stats
                )
                break
            current = layer

        return self._finish(current[0], children, broker_units)

    # ------------------------------------------------------------------
    # Optimization passes
    # ------------------------------------------------------------------
    def _takeover_pass(
        self,
        layer: List[str],
        children: Dict[str, List[str]],
        broker_units: Dict[str, List[AllocationUnit]],
        specs: Dict[str, BrokerSpec],
        remaining: List[BrokerSpec],
        used: Set[str],
        kernel: ClosenessKernel,
        stats: OverlayBuildStats,
    ) -> None:
        """Optimization B: parents absorb under-utilized children.

        Children are tried in order of least-to-highest utilization,
        which maximizes how many the parent can take over (paper §V-B).
        A child is absorbed only if the parent can serve *all* of the
        child's units directly, alongside the streams of its other
        children.
        """
        for parent_id in layer:
            kid_ids = children.get(parent_id)
            if not kid_ids:
                continue
            def child_load(child_id: str) -> Tuple[float, str]:
                load = sum(unit.delivery_bandwidth for unit in broker_units[child_id])
                return (load, child_id)

            for child_id in sorted(kid_ids, key=child_load):
                # A child bundled into a merged pseudo-unit cannot be
                # absorbed individually — its stream is inseparable from
                # its co-located siblings'.
                if not any(
                    unit.child_broker_ids == (child_id,)
                    for unit in broker_units[parent_id]
                ):
                    continue
                grandchildren = children.get(child_id, [])
                candidate_units = [
                    unit
                    for unit in broker_units[parent_id]
                    if unit.child_broker_ids != (child_id,)
                ] + list(broker_units[child_id])
                bin_ = BrokerBin(specs[parent_id], kernel)
                feasible = True
                for unit in candidate_units:
                    if bin_.can_accept(unit):
                        bin_.add(unit)
                    else:
                        feasible = False
                        break
                if not feasible:
                    continue
                # Absorb: the child's units and children move to the parent.
                stats.children_taken_over += 1
                broker_units[parent_id] = candidate_units
                children[parent_id] = [
                    kid for kid in children[parent_id] if kid != child_id
                ] + list(grandchildren)
                children.pop(child_id, None)
                broker_units.pop(child_id, None)
                used.discard(child_id)
                remaining.append(specs[child_id])

    def _best_fit_pass(
        self,
        layer: List[str],
        children: Dict[str, List[str]],
        broker_units: Dict[str, List[AllocationUnit]],
        specs: Dict[str, BrokerSpec],
        remaining: List[BrokerSpec],
        used: Set[str],
        kernel: ClosenessKernel,
        stats: OverlayBuildStats,
    ) -> List[BrokerSpec]:
        """Optimization C: swap each broker for the tightest-fitting one."""
        for index, broker_id in enumerate(list(layer)):
            units = broker_units.get(broker_id, [])
            current_spec = specs[broker_id]
            best: Optional[BrokerSpec] = None
            for candidate in remaining:
                if candidate.total_output_bandwidth >= current_spec.total_output_bandwidth:
                    continue
                bin_ = BrokerBin(candidate, kernel)
                if all(self._try_add(bin_, unit) for unit in units):
                    if best is None or (
                        candidate.total_output_bandwidth < best.total_output_bandwidth
                    ):
                        best = candidate
            if best is None:
                continue
            stats.best_fit_replacements += 1
            self._rename_broker(broker_id, best.broker_id, layer, index,
                                children, broker_units)
            used.discard(broker_id)
            used.add(best.broker_id)
            remaining = [spec for spec in remaining if spec.broker_id != best.broker_id]
            remaining.append(current_spec)
        return remaining

    @staticmethod
    def _try_add(bin_: BrokerBin, unit: AllocationUnit) -> bool:
        if bin_.can_accept(unit):
            bin_.add(unit)
            return True
        return False

    @staticmethod
    def _rename_broker(
        old_id: str,
        new_id: str,
        layer: List[str],
        index: int,
        children: Dict[str, List[str]],
        broker_units: Dict[str, List[AllocationUnit]],
    ) -> None:
        layer[index] = new_id
        if old_id in children:
            children[new_id] = children.pop(old_id)
        if old_id in broker_units:
            broker_units[new_id] = broker_units.pop(old_id)
        for parent_id, kids in children.items():
            children[parent_id] = [new_id if kid == old_id else kid for kid in kids]

    # ------------------------------------------------------------------
    # Fallbacks and finishing
    # ------------------------------------------------------------------
    def _fallback_layer(
        self,
        current: List[str],
        remaining: List[BrokerSpec],
        children: Dict[str, List[str]],
        broker_units: Dict[str, List[AllocationUnit]],
        directory: PublisherDirectory,
        stats: OverlayBuildStats,
    ) -> List[str]:
        """Force a root when recursion cannot shrink the layer.

        Happens when the remaining pool is too small or the allocator
        cannot pack the pseudo-units into fewer brokers.  The most
        resourceful remaining broker (or, failing that, the least
        loaded broker of the current layer) becomes the root and all
        other layer brokers attach to it directly.
        """
        stats.fallback_roots += 1
        if remaining:
            root_spec = sorted_broker_pool(remaining)[0]
            root_id = root_spec.broker_id
            kids = list(current)
        else:
            def load(broker_id: str) -> Tuple[float, str]:
                total = sum(unit.delivery_bandwidth for unit in broker_units[broker_id])
                return (total, broker_id)

            root_id = min(current, key=load)
            kids = [broker_id for broker_id in current if broker_id != root_id]
        pseudo = [
            AllocationUnit.for_child_broker(kid, broker_units[kid], directory)
            for kid in kids
        ]
        children[root_id] = list(kids)
        broker_units.setdefault(root_id, [])
        broker_units[root_id] = broker_units[root_id] + pseudo
        return [root_id]

    @staticmethod
    def _finish(
        root: str,
        children: Dict[str, List[str]],
        broker_units: Dict[str, List[AllocationUnit]],
    ) -> BrokerTree:
        tree = BrokerTree(root)
        stack = [root]
        while stack:
            parent = stack.pop()
            for child in children.get(parent, ()):  # deterministic order
                tree.add_broker(child, parent)
                stack.append(child)
        for broker_id in tree.brokers:
            tree.set_units(broker_id, broker_units.get(broker_id, []))
        return tree
