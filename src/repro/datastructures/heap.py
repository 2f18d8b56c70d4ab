"""Addressable max-priority queue with float priorities.

The FM gain containers (:mod:`repro.datastructures.bucket_list`) need
bounded *integer* gains; the n-level coarsening engine
(:mod:`repro.multilevel.nlevel`) rates vertex pairs with *float*
heavy-edge scores that have no useful bound, and PROP's
:class:`~repro.datastructures.gain_container.HeapGainContainer` keys
free nodes by float probabilistic gains.  This queue serves both: a
binary heap with lazy deletion, addressable by item, whose pop order is
a **pure function of its current contents** — entries are compared as
``(-priority, item)`` tuples, a strict total order among live entries,
so two queues holding the same ``{item: (priority, payload)}`` mapping
pop the same sequence regardless of the order the entries were pushed
or updated in.  That property is what makes a resumed coarsening
(rebuild the queue from replayed state) bit-identical to an
uninterrupted one.

Heap entries are ``(-priority, item, stamp, payload)`` tuples.  The
stamp is a per-queue counter, unique per push, so no two entries ever
compare equal (payloads are never compared) and an item updated
A→B→A has exactly one live entry — the one its live-map slot points
at.  Stale entries are bounded: once the heap holds more than
``2 * live + COMPACT_SLACK`` entries it is rebuilt from the live ones
(one ``heapify``, amortized O(1) per operation), so memory does not
grow with the number of updates.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Stale heap entries tolerated beyond ``2 * len(queue)`` before the heap
#: is rebuilt from its live entries.
COMPACT_SLACK = 64


class AddressablePriorityQueue:
    """Max-priority queue over hashable items with O(log n) updates.

    ``push`` inserts or re-prioritizes an item; superseded heap entries
    go stale and are skipped on ``pop``/``peek`` by checking them, by
    identity, against the item's live entry (lazy deletion — the
    standard heapq idiom).  Ties on priority break toward the *smallest*
    item, so pop order is deterministic for any insertion history.
    """

    __slots__ = ("_heap", "_live", "_stamp")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, Any, int, Any]] = []
        #: item -> its one live heap entry
        self._live: Dict[Any, Tuple[float, Any, int, Any]] = {}
        self._stamp = 0

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, item: Any) -> bool:
        return item in self._live

    def priority(self, item: Any) -> float:
        """Current priority of ``item`` (KeyError when absent)."""
        return -self._live[item][0]

    def payload(self, item: Any) -> Any:
        """Current payload of ``item`` (KeyError when absent)."""
        return self._live[item][3]

    def push(self, item: Any, priority: float, payload: Any = None) -> None:
        """Insert ``item`` or update its priority/payload."""
        live = self._live
        current = live.get(item)
        if (
            current is not None
            and current[0] == -priority
            and current[3] == payload
        ):
            return  # identical entry already live; skip the heap churn
        self._stamp += 1
        entry = (-priority, item, self._stamp, payload)
        live[item] = entry
        heap = self._heap
        heapq.heappush(heap, entry)
        if len(heap) > 2 * len(live) + COMPACT_SLACK:
            self._compact()

    def discard(self, item: Any) -> None:
        """Remove ``item`` if present (its heap entries go stale)."""
        live = self._live
        if live.pop(item, None) is not None and (
            len(self._heap) > 2 * len(live) + COMPACT_SLACK
        ):
            self._compact()

    def pop(self) -> Optional[Tuple[Any, float, Any]]:
        """Remove and return ``(item, priority, payload)`` of the max
        entry, or None when empty.  Skips stale entries."""
        heap = self._heap
        live = self._live
        while heap:
            entry = heapq.heappop(heap)
            item = entry[1]
            if live.get(item) is entry:
                del live[item]
                if len(heap) > 2 * len(live) + COMPACT_SLACK:
                    self._compact()
                return item, -entry[0], entry[3]
        return None

    def peek(self) -> Optional[Tuple[Any, float, Any]]:
        """The max entry without removing it, or None when empty."""
        heap = self._heap
        live = self._live
        while heap:
            entry = heap[0]
            if live.get(entry[1]) is entry:
                return entry[1], -entry[0], entry[3]
            heapq.heappop(heap)
        return None

    def top(self, k: int) -> List[Tuple[Any, float, Any]]:
        """``(item, priority, payload)`` of the ``k`` max entries, best
        first (fewer when the queue is smaller).

        The contents are unchanged: the live entries are popped and
        pushed back, so the cost is O((k + s) log n) for the ``s`` stale
        entries on the way, which are dropped for good.
        """
        heap = self._heap
        live = self._live
        best = []
        while heap and len(best) < k:
            entry = heapq.heappop(heap)
            if live.get(entry[1]) is entry:
                best.append(entry)
        for entry in best:
            heapq.heappush(heap, entry)
        return [(entry[1], -entry[0], entry[3]) for entry in best]

    def iter_descending(self) -> Iterator[Tuple[Any, float, Any]]:
        """Every ``(item, priority, payload)``, max first (a sorted
        snapshot: O(n log n), for inspection rather than hot loops)."""
        for entry in sorted(self._live.values()):
            yield entry[1], -entry[0], entry[3]

    def _compact(self) -> None:
        """Drop every stale entry: rebuild the heap from the live ones."""
        heap = list(self._live.values())
        heapq.heapify(heap)
        self._heap = heap
