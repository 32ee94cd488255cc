"""GRAPE's per-publisher walk: the reference its tree index is exact against.

``GrapeRelocator`` reads a finished tree once per plan
(:class:`repro.core.grape.TreeIndex`) and then visits, per publisher,
only that publisher's vectors.  This is the walk it replaced, kept as
the oracle: for every publisher it looks up that publisher's vector in
every subscription record and every subscription unit of every broker.
It shares the tree and profile types with production and nothing of the
index.

Run it as a script to plan ``cluster_homogeneous(100, scale=1.0)``,
seed 2011, with ``cram-ios`` and compare, for every publisher, the
shipped needs, load scores and delay scores with this walk's, and the
plan's publisher placement with ``place_one`` called alone::

    PYTHONPATH=src python tests/grape_oracle.py

It prints one line and exits 1 on any difference, or if no publisher's
traffic is needed anywhere (then the comparison proves nothing).
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.core import allocators
from repro.core.bitvector import BitVector
from repro.core.croc import Croc
from repro.core.deployment import BrokerTree
from repro.core.grape import GrapeRelocator, TreeIndex
from repro.core.profiles import PublisherProfile
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_homogeneous


def broker_needs(
    tree: BrokerTree, adv_id: str, publisher: PublisherProfile
) -> Dict[str, Tuple[float, float]]:
    """broker_id -> (union fraction needed, delivery rate) for ``adv_id``."""
    needs: Dict[str, Tuple[float, float]] = {}
    for broker_id in tree.brokers:
        union_vector: Optional[BitVector] = None
        delivery = 0.0
        for unit in tree.broker_units.get(broker_id, ()):
            if unit.kind != "subscription":
                continue
            for record in unit.members:
                vector = record.profile.vector(adv_id)
                if vector is None or not vector:
                    continue
                window = publisher.observed_window(vector.first_id, vector.capacity)
                delivery += min(1.0, vector.cardinality / window) * publisher.publication_rate
                union_vector = (
                    vector.copy() if union_vector is None else union_vector.union(vector)
                )
        if union_vector is None:
            needs[broker_id] = (0.0, 0.0)
        else:
            window = publisher.observed_window(union_vector.first_id, union_vector.capacity)
            needs[broker_id] = (min(1.0, union_vector.cardinality / window), delivery)
    return needs


def need_vector(tree: BrokerTree, broker_id: str, adv_id: str) -> Optional[BitVector]:
    """OR of ``adv_id``'s vectors over the broker's subscription units."""
    union: Optional[BitVector] = None
    for unit in tree.broker_units.get(broker_id, ()):
        if unit.kind != "subscription":
            continue
        vector = unit.profile.vector(adv_id)
        if vector is None or not vector:
            continue
        union = vector.copy() if union is None else union.union(vector)
    return union


def topo_order(tree: BrokerTree) -> List[str]:
    order: List[str] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(tree.children(node))
    return order


def vector_rate(vector: Optional[BitVector], publisher: PublisherProfile) -> float:
    if vector is None or not vector:
        return 0.0
    window = publisher.observed_window(vector.first_id, vector.capacity)
    return min(1.0, vector.cardinality / window) * publisher.publication_rate


def load_scores(tree: BrokerTree, publisher: PublisherProfile) -> Dict[str, float]:
    """Total msg/s crossing tree edges if the publisher sat at each broker."""
    order = topo_order(tree)
    down_union: Dict[str, Optional[BitVector]] = {}
    for broker_id in reversed(order):
        union = need_vector(tree, broker_id, publisher.adv_id)
        for child in tree.children(broker_id):
            child_union = down_union[child]
            if child_union is not None:
                union = child_union.copy() if union is None else union.union(child_union)
        down_union[broker_id] = union
    up_union: Dict[str, Optional[BitVector]] = {tree.root: None}
    for broker_id in order:
        kids = tree.children(broker_id)
        base = need_vector(tree, broker_id, publisher.adv_id)
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
                    union = sibling_union.copy() if union is None else union.union(sibling_union)
            up_union[child] = union
    down_rate = {broker_id: vector_rate(vec, publisher) for broker_id, vec in down_union.items()}
    up_rate = {broker_id: vector_rate(vec, publisher) for broker_id, vec in up_union.items()}
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


def delay_scores(
    tree: BrokerTree, needs: Dict[str, Tuple[float, float]]
) -> Dict[str, float]:
    """Delivery-weighted hop distance to the subscribers, per broker."""
    order = topo_order(tree)
    weight = {broker_id: needs[broker_id][1] for broker_id in tree.brokers}
    total_weight = sum(weight.values())
    count_down: Dict[str, float] = {}
    dist_down: Dict[str, float] = {}
    for broker_id in reversed(order):
        count = weight[broker_id]
        dist = 0.0
        for child in tree.children(broker_id):
            count += count_down[child]
            dist += dist_down[child] + count_down[child]
        count_down[broker_id] = count
        dist_down[broker_id] = dist
    scores: Dict[str, float] = {tree.root: dist_down[tree.root]}
    for broker_id in order:
        for child in tree.children(broker_id):
            scores[child] = scores[broker_id] + total_weight - 2.0 * count_down[child]
    return scores


def differences(tree: BrokerTree, directory) -> List[str]:
    """Every publisher whose indexed needs or scores differ from the walk's."""
    index = TreeIndex(tree)
    grape = GrapeRelocator()
    found = []
    for adv_id, publisher in directory.items():
        needs = broker_needs(tree, adv_id, publisher)
        indexed_needs = grape._broker_needs(index, adv_id, publisher)
        if indexed_needs != needs:
            found.append(f"{adv_id}: needs")
        if grape._load_scores(index, publisher) != load_scores(tree, publisher):
            found.append(f"{adv_id}: load scores")
        if grape._delay_scores(index, indexed_needs) != delay_scores(tree, needs):
            found.append(f"{adv_id}: delay scores")
    return found


def main() -> int:
    seed = 2011
    label = "cluster_homogeneous(100, scale=1.0)"
    gathered = offline_gather(cluster_homogeneous(100, scale=1.0), seed=seed)
    report = Croc(allocators.get("cram-ios", failure_budget=150)).plan(gathered)
    deployment = report.deployment
    tree = deployment.tree
    directory = gathered.directory
    started = time.perf_counter()
    found = differences(tree, directory)
    seconds = time.perf_counter() - started
    grape = GrapeRelocator()
    alone = {
        adv_id: grape.place_one(tree, adv_id, publisher).broker_id
        for adv_id, publisher in directory.items()
    }
    if alone != deployment.publisher_placement:
        found.append("placement: place_one alone differs from the plan's")
    needed = sum(
        any(fraction > 0 for fraction, _ in broker_needs(tree, adv_id, publisher).values())
        for adv_id, publisher in directory.items()
    )
    print(
        f"{label}, seed {seed}, {len(gathered.records)} subscriptions, cram-ios: "
        f"{len(tree)} brokers, {needed} of {len(directory)} publishers needed; "
        f"{'same needs, scores and placement' if not found else 'DIFFERENT'} "
        f"({seconds:.2f} s)"
    )
    for line in found:
        print(f"  {line}")
    if not needed:
        print("  no publisher's traffic is needed; the comparison proves nothing")
        return 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
