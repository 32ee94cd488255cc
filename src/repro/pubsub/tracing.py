"""Publication tracing: follow individual messages through the overlay.

Debugging a content-routing overlay usually starts with "where did
publication #118 of YHOO actually go?".  A :class:`MessageTracer`
attached to a network records a structured event for every hop of the
publications it is scoped to — publish, broker receive, forward,
delivery — cheap enough to leave compiled in (brokers skip the hooks
entirely when no tracer is attached).

Example::

    tracer = MessageTracer(adv_ids={"adv-YHOO"})
    network.tracer = tracer
    network.run(5.0)
    print(tracer.render_route("adv-YHOO", 3))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set

#: Event kinds in causal order of a publication's life.
PUBLISH = "publish"
RECEIVE = "receive"
FORWARD = "forward"
DELIVER = "deliver"


@dataclass(frozen=True)
class TraceEvent:
    """One step of one publication's journey."""

    time: float
    kind: str  # publish | receive | forward | deliver
    where: str  # broker id (or client id for publish)
    adv_id: str
    message_id: int
    detail: str = ""

    def __str__(self) -> str:
        suffix = f"  {self.detail}" if self.detail else ""
        return (
            f"t={self.time:10.6f}  {self.kind:8s}  {self.where:12s}  "
            f"{self.adv_id}#{self.message_id}{suffix}"
        )


class MessageTracer:
    """Scoped, bounded recorder of publication trace events.

    Parameters
    ----------
    adv_ids:
        Only publications from these advertisements are traced
        (``None`` traces everything).
    message_ids:
        Optional additional filter on message IDs.
    limit:
        Hard cap on stored events; tracing never grows without bound.
        The first ``limit`` events *recorded* are kept.  A ``deliver``
        event is recorded when its delivery completes — stamped with
        its arrival time, but possibly after later-stamped hop events
        — so at the cap it is deliveries that go missing first;
        :meth:`route` sorts by time, so what is kept reads in order.
    """

    def __init__(
        self,
        adv_ids: Optional[Iterable[str]] = None,
        message_ids: Optional[Iterable[int]] = None,
        limit: int = 100_000,
    ):
        self.adv_ids: Optional[Set[str]] = set(adv_ids) if adv_ids else None
        self.message_ids: Optional[Set[int]] = (
            set(message_ids) if message_ids else None
        )
        self.limit = limit
        self.events: List[TraceEvent] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    # Recording (called from the broker/network hot path)
    # ------------------------------------------------------------------
    def wants(self, adv_id: str, message_id: int) -> bool:
        if self.adv_ids is not None and adv_id not in self.adv_ids:
            return False
        if self.message_ids is not None and message_id not in self.message_ids:
            return False
        return True

    def record(self, time: float, kind: str, where: str, adv_id: str,
               message_id: int, detail: str = "") -> None:
        if not self.wants(adv_id, message_id):
            return
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(
            TraceEvent(time, kind, where, adv_id, message_id, detail)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def route(self, adv_id: str, message_id: int) -> List[TraceEvent]:
        """All events of one publication, in time order."""
        return sorted(
            (
                event
                for event in self.events
                if event.adv_id == adv_id and event.message_id == message_id
            ),
            key=lambda event: (event.time, _KIND_ORDER.get(event.kind, 9)),
        )

    def brokers_visited(self, adv_id: str, message_id: int) -> List[str]:
        """Distinct brokers that processed the publication, in order."""
        visited: List[str] = []
        for event in self.route(adv_id, message_id):
            if event.kind == RECEIVE and event.where not in visited:
                visited.append(event.where)
        return visited

    def delivery_count(self, adv_id: str, message_id: int) -> int:
        return sum(
            1
            for event in self.events
            if event.kind == DELIVER
            and event.adv_id == adv_id
            and event.message_id == message_id
        )

    def render_route(self, adv_id: str, message_id: int) -> str:
        """Human-readable journey of one publication."""
        events = self.route(adv_id, message_id)
        if not events:
            return f"(no trace for {adv_id}#{message_id})"
        return "\n".join(str(event) for event in events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0


_KIND_ORDER = {PUBLISH: 0, RECEIVE: 1, FORWARD: 2, DELIVER: 3}
