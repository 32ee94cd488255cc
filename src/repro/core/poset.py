"""Poset of GIFs and the pruned closest-partner search (paper §IV-C.2).

The poset is a directed acyclic graph rooted at a virtual ROOT node.
A node's parents have profiles that are strict supersets of its own;
intersecting or disjoint profiles appear as siblings.  Unlike the
classic use in SIENA/PADRES, relationships here are computed from the
**bit vectors**, not the subscription language, which keeps the whole
framework language-independent.

The poset supports CRAM's second optimization: when searching for the
GIF closest to ``g`` under a *prunable* metric (INTERSECT, IOS, IOU),

* a node with zero closeness to ``g`` has an empty relationship with
  it, and so do all of its descendants — skip the subtree;
* descending, the closeness is non-decreasing until the search passes
  ``g``'s own region and starts to decrease — stop descending there.

The XOR metric is never zero, so it cannot be pruned; the search falls
back to an exhaustive scan, which is what makes XOR ≥75% slower in the
paper (reproduced by the ``tab-pruning`` benchmark, which also counts
closeness evaluations).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.closeness import ClosenessMetric
from repro.core.gif import Gif
from repro.core.units import approx_zero

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids import at load)
    from repro.core.kernel import ClosenessKernel


class PosetNode:
    """One GIF inside the poset."""

    __slots__ = ("gif", "parents", "children", "_ordered")

    def __init__(self, gif: Optional[Gif]):
        self.gif = gif  # None for the virtual root
        self.parents: Set["PosetNode"] = set()
        self.children: Set["PosetNode"] = set()
        #: Sorted-children cache; None when ``children`` changed since
        #: the last sort.  All edge mutations go through Poset methods,
        #: which invalidate it.
        self._ordered: Optional[List["PosetNode"]] = None

    @property
    def is_root(self) -> bool:
        return self.gif is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_root:
            return "PosetNode(ROOT)"
        return f"PosetNode(gif={self.gif.gif_id})"


def _ordered_children(node: PosetNode) -> List[PosetNode]:
    """A node's children in ascending ``gif_id`` order (deterministic).

    Cached on the node: partner searches re-walk the same frontier on
    every CRAM round, while edges only change at the few nodes an
    insert or remove touches.
    """
    ordered = node._ordered
    if ordered is None:
        ordered = node._ordered = sorted(
            node.children, key=lambda child: child.gif.gif_id
        )
    return ordered


class Poset:
    """DAG of GIFs ordered by bit-vector coverage.

    The pool's fused ``kernel`` answers the coverage tests that dominate
    insertion and every closeness the partner search evaluates.  The
    structural check lives in ``tests/profile_oracle.py``
    (``validate_poset``), on the per-publisher profiles, so it stays an
    independent check.
    """

    def __init__(self, kernel: "ClosenessKernel"):
        self.root = PosetNode(None)
        self._nodes: Dict[int, PosetNode] = {}
        self._kernel = kernel

    def _covers(self, node: PosetNode, other: PosetNode) -> bool:
        """Whether ``node``'s profile is a superset of ``other``'s (the
        root covers everything)."""
        if node.is_root:
            return True
        if other.is_root:
            return False
        return self._kernel.covers(node.gif.profile, other.gif.profile)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, gif: Gif) -> bool:
        return gif.gif_id in self._nodes

    def node_of(self, gif: Gif) -> PosetNode:
        return self._nodes[gif.gif_id]

    def nodes(self) -> Iterator[PosetNode]:
        return iter(self._nodes.values())

    def gifs(self) -> Iterator[Gif]:
        return (node.gif for node in self._nodes.values())

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, gif: Gif) -> PosetNode:
        """Insert a GIF, wiring it below its minimal covering nodes.

        Average-case O(log S) for balanced posets per the paper;
        worst-case O(S).
        """
        if gif.gif_id in self._nodes:
            raise ValueError(f"GIF {gif.gif_id} already inserted")
        node = PosetNode(gif)
        parents = self._find_parents(node)
        children = self._find_children(node, parents)
        for parent in parents:
            parent.children.add(node)
            parent._ordered = None
            node.parents.add(parent)
        for child in children:
            # The new node slots between its parents and these children:
            # drop any direct parent->child edges it now mediates.
            for parent in parents:
                if child in parent.children:
                    parent.children.discard(child)
                    parent._ordered = None
                    child.parents.discard(parent)
            node.children.add(child)
            child.parents.add(node)
        node._ordered = None
        self._nodes[gif.gif_id] = node
        return node

    def _find_parents(self, node: PosetNode) -> List[PosetNode]:
        """Minimal existing nodes whose profiles cover the new node."""
        parents: List[PosetNode] = []
        seen: Set[int] = set()
        queue = deque([self.root])
        while queue:
            candidate = queue.popleft()
            covering_children = [
                child
                for child in candidate.children
                if self._covers(child, node)
            ]
            if covering_children:
                for child in covering_children:
                    if id(child) not in seen:
                        seen.add(id(child))
                        queue.append(child)
            else:
                parents.append(candidate)
        # Deduplicate while keeping deterministic order.
        unique: List[PosetNode] = []
        added: Set[int] = set()
        for parent in parents:
            if id(parent) not in added:
                added.add(id(parent))
                unique.append(parent)
        return unique

    def _find_children(
        self, node: PosetNode, parents: Iterable[PosetNode]
    ) -> List[PosetNode]:
        """Maximal existing nodes the new node covers."""
        children: List[PosetNode] = []
        seen: Set[int] = set()
        queue = deque()
        for parent in parents:
            for child in parent.children:
                if id(child) not in seen:
                    seen.add(id(child))
                    queue.append(child)
        while queue:
            candidate = queue.popleft()
            if self._covers(node, candidate):
                children.append(candidate)
                # Its descendants are covered transitively; skip them.
                continue
            for child in candidate.children:
                if id(child) not in seen:
                    seen.add(id(child))
                    queue.append(child)
        return children

    # ------------------------------------------------------------------
    # Removal
    # ------------------------------------------------------------------
    def remove(self, gif: Gif) -> None:
        """Unlink a GIF, splicing its parents to its children."""
        node = self._nodes.pop(gif.gif_id)
        for parent in node.parents:
            parent.children.discard(node)
            parent._ordered = None
        for child in node.children:
            child.parents.discard(node)
        for child in node.children:
            # Re-attach orphaned children to the removed node's parents,
            # unless another path already covers them.
            if not child.parents:
                for parent in node.parents:
                    parent.children.add(child)
                    parent._ordered = None
                    child.parents.add(parent)

    # ------------------------------------------------------------------
    # Queries used by CRAM
    # ------------------------------------------------------------------
    def covered_gifs(self, gif: Gif) -> List[Gif]:
        """Direct children (covered GIFs) — O(1) poset lookup (opt. 3).

        Returned in ascending ``gif_id`` order: the caller merges the
        selection it makes from this list, and profile-merge order must
        not depend on set iteration order (heap layout).
        """
        node = self._nodes[gif.gif_id]
        return [
            child.gif for child in _ordered_children(node) if child.gif is not None
        ]

    def closest_partner(
        self,
        gif: Gif,
        metric: ClosenessMetric,
        blacklist: Optional[Set[frozenset]] = None,
    ) -> Tuple[Optional[Gif], float]:
        """Find the partner GIF with the highest non-zero closeness.

        For prunable metrics the candidates are :meth:`pruned_row`'s;
        for XOR every node is evaluated, as one batched row.  Ties go to
        the lowest ``gif_id``; a blacklisted pair is never chosen.  The
        pruning benchmark reads the metric's evaluation counter.
        """
        if metric.prunable:
            candidates, row = self.pruned_row(gif, metric)
        else:
            candidates = [
                node.gif
                for node in self._nodes.values()
                if node.gif.gif_id != gif.gif_id
            ]
            row = metric.closeness_row(
                self._kernel, gif.profile, [candidate.profile for candidate in candidates]
            )
        best_gif: Optional[Gif] = None
        best_value = 0.0
        for candidate, value in zip(candidates, row):
            if value <= 0:
                continue
            if blacklist and frozenset((gif.gif_id, candidate.gif_id)) in blacklist:
                continue
            if value > best_value or (
                value == best_value
                and best_gif is not None
                and candidate.gif_id < best_gif.gif_id
            ):
                best_gif = candidate
                best_value = value
        return best_gif, best_value

    def pruned_row(
        self, gif: Gif, metric: ClosenessMetric
    ) -> Tuple[List[Gif], List[float]]:
        """The candidates a pruned partner search evaluates, with their
        closeness to ``gif``, in evaluation order.

        A breadth-first descent with zero- and decrease-pruning.
        Children are visited in ascending ``gif_id`` order — the poset
        stores edges in sets, and which parent reaches a shared child
        first decides the ``parent_value`` its pruning test uses, so an
        id-hash-ordered traversal would make the evaluation count (and
        CRAM's symmetric partner-cache updates) depend on heap layout.

        The walk is level-batched: BFS processes the frontier one full
        wave at a time, and which nodes form wave ``k+1`` depends only
        on wave ``k``'s prune verdicts, so evaluating a whole wave as
        one ``closeness_row`` call (one vectorized row per visited
        level) preserves the exact per-pair values, evaluation count,
        and order of the node-at-a-time loop.  ``gif`` itself is never
        evaluated (CRAM handles self-pairing separately), but the walk
        descends through its node.
        """
        candidates: List[Gif] = []
        values: List[float] = []
        seen: Set[int] = set()
        wave: List[Tuple[PosetNode, Optional[float]]] = []
        for child in _ordered_children(self.root):
            if id(child) not in seen:
                seen.add(id(child))
                wave.append((child, None))  # None: no parent value yet
        gif_id = gif.gif_id
        profile = gif.profile
        kernel = self._kernel
        while wave:
            profiles = [
                node.gif.profile for node, _ in wave if node.gif.gif_id != gif_id
            ]
            if len(profiles) == 1:
                # A row of one gains nothing over a direct call.
                row = [metric(kernel, profile, profiles[0])]
            else:
                row = metric.closeness_row(kernel, profile, profiles)
            position = 0
            next_wave: List[Tuple[PosetNode, Optional[float]]] = []
            for node, parent_value in wave:
                other = node.gif
                if other.gif_id == gif_id:
                    next_value = parent_value
                else:
                    value = row[position]
                    position += 1
                    candidates.append(other)
                    values.append(value)
                    if approx_zero(value):
                        continue  # empty relation: whole subtree is empty too
                    if parent_value is not None and value < parent_value:
                        continue  # closeness started to decrease: prune
                    next_value = value
                for child in _ordered_children(node):
                    if id(child) not in seen:
                        seen.add(id(child))
                        next_wave.append((child, next_value))
            wave = next_wave
        return candidates, values
