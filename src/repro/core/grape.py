"""GRAPE: Greedy Relocation Algorithm for Publishers of Events.

After Phase 3, every publisher sits at the root of the new tree.
GRAPE (Cheung & Jacobsen, the paper's reference [5]) strategically
relocates each publisher to the broker that minimizes either the total
broker message rate its traffic induces (*load* objective) or the
average delivery delay to its subscribers (*delay* objective), with a
priority weight trading the two off.

On a tree, a publication from attachment point ``v`` crosses edge ``e``
iff the far side of ``e`` (seen from ``v``) contains a matching
subscriber; the rate crossing ``e`` is the publication rate times the
union fraction of bits needed on that side.  Both objectives are
computed for every candidate broker with two tree passes (rerooting),
so relocating P publishers over B brokers costs O(P·B) rather than
O(P·B²).

This module is a faithful re-implementation of GRAPE's *placement
decision* on the simulated overlay; the original's sampling machinery
(trace collection at brokers) is subsumed by the bit-vector profiles
that Phase 1 already collects — the same information GRAPE gathers.

:class:`TreeIndex` reads the tree's profiles once per plan: every
publisher's walks then visit only the vectors of that publisher.
``tests/grape_oracle.py`` keeps the per-publisher walk over every
record it replaced, as the reference it is exact against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.bitvector import BitVector
from repro.core.deployment import BrokerTree
from repro.core.profiles import PublisherDirectory, PublisherProfile
from repro.obs import recorder as obs


Vectors = Dict[str, List[BitVector]]  # broker_id -> non-empty vectors


class TreeIndex:
    """A finished tree, read once for every publisher GRAPE places.

    ``members[adv_id]`` maps each broker to the non-empty vectors of
    ``adv_id`` in the subscriptions it serves, and ``units[adv_id]`` to
    those of its subscription units' (merged) profiles; broker
    pseudo-units are left out.  Each list is in the order a walk of one
    publisher visits them (the broker's units in order, a unit's members
    in order), so the float sums over it add terms in that order too.
    ``order`` is root first, children after their parents.
    """

    __slots__ = ("tree", "brokers", "order", "children", "members", "units")

    def __init__(self, tree: BrokerTree):
        self.tree = tree
        self.brokers = tree.brokers
        self.children: Dict[str, List[str]] = {
            broker_id: tree.children(broker_id) for broker_id in self.brokers
        }
        self.order: List[str] = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            self.order.append(node)
            stack.extend(self.children[node])
        self.members: Dict[str, Vectors] = {}
        self.units: Dict[str, Vectors] = {}
        for broker_id in self.brokers:
            for unit in tree.broker_units.get(broker_id, ()):  # real units only
                if unit.kind != "subscription":
                    continue
                _collect(self.units, broker_id, unit.profile.items())
                for record in unit.members:
                    _collect(self.members, broker_id, record.profile.items())


def _collect(
    index: Dict[str, Vectors], broker_id: str, items: Iterable[Tuple[str, BitVector]]
) -> None:
    for adv_id, vector in items:
        if vector:
            index.setdefault(adv_id, {}).setdefault(broker_id, []).append(vector)


@dataclass
class PlacementDecision:
    """Where one publisher should attach, with its objective scores."""

    adv_id: str
    broker_id: str
    load_score: float
    delay_score: float


class GrapeRelocator:
    """Publisher placement on a finished broker tree.

    Parameters
    ----------
    objective:
        ``"load"`` minimizes total broker message rate; ``"delay"``
        minimizes the delivery-weighted average hop distance.
    priority:
        Weight in [0, 1] given to the primary objective when mixing the
        two normalized scores (GRAPE's P%).  ``priority=1.0`` uses the
        primary objective alone.
    """

    def __init__(self, objective: str = "load", priority: float = 1.0):
        if objective not in ("load", "delay"):
            raise ValueError(f"objective must be 'load' or 'delay', got {objective!r}")
        if not 0.0 <= priority <= 1.0:
            raise ValueError(f"priority must be within [0, 1], got {priority}")
        self.objective = objective
        self.priority = priority

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def place_publishers(
        self, tree: BrokerTree, directory: PublisherDirectory
    ) -> Dict[str, str]:
        """adv_id → broker_id for every publisher in the directory."""
        with obs.span("phase3.grape", publishers=len(directory)):
            index = TreeIndex(tree)
            placement: Dict[str, str] = {}
            for adv_id, publisher in directory.items():
                decision = self.place_one(tree, adv_id, publisher, index)
                placement[adv_id] = decision.broker_id
            return placement

    def place_one(
        self,
        tree: BrokerTree,
        adv_id: str,
        publisher: PublisherProfile,
        index: Optional[TreeIndex] = None,
    ) -> PlacementDecision:
        """Choose the attachment broker for one publisher (``index``, if
        given, must be ``tree``'s)."""
        if index is None:
            index = TreeIndex(tree)
        needs = self._broker_needs(index, adv_id, publisher)
        if not any(fraction > 0 for fraction, _ in needs.values()):
            # Nobody wants this publisher's traffic: park it at the root
            # where it costs a single matching operation per message.
            return PlacementDecision(adv_id, tree.root, 0.0, 0.0)
        load = self._load_scores(index, publisher)
        delay = self._delay_scores(index, needs)
        max_load = max(load.values()) or 1.0
        max_delay = max(delay.values()) or 1.0
        if self.objective == "load":
            primary, secondary = load, delay
            primary_max, secondary_max = max_load, max_delay
        else:
            primary, secondary = delay, load
            primary_max, secondary_max = max_delay, max_load

        def score(broker_id: str) -> Tuple[float, str]:
            mixed = (
                self.priority * primary[broker_id] / primary_max
                + (1.0 - self.priority) * secondary[broker_id] / secondary_max
            )
            return (mixed, broker_id)

        best = min(index.brokers, key=score)
        return PlacementDecision(adv_id, best, load[best], delay[best])

    # ------------------------------------------------------------------
    # Per-broker demand for one publisher
    # ------------------------------------------------------------------
    @staticmethod
    def _broker_needs(
        index: TreeIndex, adv_id: str, publisher: PublisherProfile
    ) -> Dict[str, Tuple[float, float]]:
        """broker_id → (union fraction needed, delivery rate) for ``adv_id``.

        The union fraction drives forwarding load (a broker receives
        each needed publication once); the delivery rate — the *sum* of
        its subscriptions' fractions — weighs the delay objective, since
        every matched subscription is a separate delivery.
        """
        vectors = index.members.get(adv_id, {})
        rate = publisher.publication_rate
        needs: Dict[str, Tuple[float, float]] = {}
        for broker_id in index.brokers:
            union_vector: Optional[BitVector] = None
            delivery = 0.0
            for vector in vectors.get(broker_id, ()):
                window = publisher.observed_window(vector.first_id, vector.capacity)
                delivery += min(1.0, vector.cardinality / window) * rate
                union_vector = (
                    vector.copy() if union_vector is None else union_vector.union(vector)
                )
            if union_vector is None:
                needs[broker_id] = (0.0, 0.0)
            else:
                window = publisher.observed_window(
                    union_vector.first_id, union_vector.capacity
                )
                fraction = min(1.0, union_vector.cardinality / window)
                needs[broker_id] = (fraction, delivery)
        return needs

    # ------------------------------------------------------------------
    # Load objective (total forwarding rate) via rerooting
    # ------------------------------------------------------------------
    def _load_scores(
        self, index: TreeIndex, publisher: PublisherProfile
    ) -> Dict[str, float]:
        """Total msg/s crossing tree edges if the publisher sat at v.

        For edge (parent, child): traffic toward the child side is the
        union fraction of everything needed in the child's subtree;
        traffic toward the parent side is the union needed in the rest
        of the tree.  ``load(v) = Σ_down(c) over all c  +  Σ over the
        path root→v of (up(c) − down(c))`` — one O(B) pass plus O(depth)
        per candidate.
        """
        tree = index.tree
        order = index.order
        children = index.children
        need = {
            broker_id: _union(vectors)
            for broker_id, vectors in index.units.get(publisher.adv_id, {}).items()
        }
        down_union: Dict[str, Optional[BitVector]] = {}
        for broker_id in reversed(order):  # leaves first
            union = need.get(broker_id)
            for child in children[broker_id]:
                child_union = down_union[child]
                if child_union is not None:
                    union = child_union.copy() if union is None else union.union(child_union)
            down_union[broker_id] = union
        up_union: Dict[str, Optional[BitVector]] = {tree.root: None}
        for broker_id in order:  # root first
            kids = children[broker_id]
            base = need.get(broker_id)
            parent_up = up_union[broker_id]
            if parent_up is not None:
                base = parent_up.copy() if base is None else base.union(parent_up)
            for child in kids:
                union = base.copy() if base is not None else None
                for sibling in kids:
                    if sibling == child:
                        continue
                    sibling_union = down_union[sibling]
                    if sibling_union is not None:
                        union = (
                            sibling_union.copy()
                            if union is None
                            else union.union(sibling_union)
                        )
                up_union[child] = union
        down_rate = {
            broker_id: self._vector_rate(vec, publisher) for broker_id, vec in down_union.items()
        }
        up_rate = {
            broker_id: self._vector_rate(vec, publisher) for broker_id, vec in up_union.items()
        }
        total_down = sum(down_rate[child] for _p, child in tree.edges())
        scores: Dict[str, float] = {}
        for broker_id in order:
            score = total_down
            for node in tree.path_to_root(broker_id):
                if node == tree.root:
                    break
                score += up_rate[node] - down_rate[node]
            scores[broker_id] = score
        return scores

    # ------------------------------------------------------------------
    # Delay objective (delivery-weighted distance) via rerooting
    # ------------------------------------------------------------------
    @staticmethod
    def _delay_scores(
        index: TreeIndex, needs: Dict[str, Tuple[float, float]]
    ) -> Dict[str, float]:
        """Σ_d deliveries(d) · hops(v, d) for every candidate v."""
        order = index.order
        children = index.children
        weight = {broker_id: needs[broker_id][1] for broker_id in index.brokers}
        total_weight = sum(weight.values())
        count_down: Dict[str, float] = {}
        dist_down: Dict[str, float] = {}
        for broker_id in reversed(order):
            count = weight[broker_id]
            dist = 0.0
            for child in children[broker_id]:
                count += count_down[child]
                dist += dist_down[child] + count_down[child]
            count_down[broker_id] = count
            dist_down[broker_id] = dist
        root = index.tree.root
        scores: Dict[str, float] = {root: dist_down[root]}
        for broker_id in order:
            for child in children[broker_id]:
                scores[child] = scores[broker_id] + total_weight - 2.0 * count_down[child]
        return scores

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _vector_rate(vector: Optional[BitVector], publisher: PublisherProfile) -> float:
        if vector is None or not vector:
            return 0.0
        window = publisher.observed_window(vector.first_id, vector.capacity)
        return min(1.0, vector.cardinality / window) * publisher.publication_rate


def _union(vectors: List[BitVector]) -> BitVector:
    """OR of a non-empty list, first to last."""
    union = vectors[0].copy()
    for vector in vectors[1:]:
        union = union.union(vector)
    return union
