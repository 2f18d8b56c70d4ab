"""Uniform interface over the two gain containers used by the partitioners.

The iterative partitioners (FM, LA, PROP) need, per side of the partition, a
collection of free nodes ordered by gain, supporting best-node queries and
gain updates.  Three realizations exist:

* :class:`~repro.datastructures.bucket_list.BucketGainContainer` — FM's
  O(1) bucket array; integer gains only (unit net costs).
* :class:`TreeGainContainer` — AVL tree keyed by ``(gain, node)``; works for
  float gains, weighted-net integer gains (FM-tree) and lexicographic gain
  vectors (LA).
* :class:`HeapGainContainer` — lazy-deletion binary heap (an
  :class:`~repro.datastructures.heap.AddressablePriorityQueue`); numeric
  gains only.  PROP's container: the same total order as the tree
  container at a fraction of its constant factor.

Ties are broken deterministically: the tree and heap containers prefer the
higher node id among equal gains, the bucket container is LIFO within a
bucket.  Determinism matters because every experiment is seeded end-to-end.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Iterator, List, Tuple

from .avl import AVLTree
from .heap import AddressablePriorityQueue


class GainContainer(ABC):
    """Ordered collection of (node, gain) pairs with updates."""

    __slots__ = ()

    @abstractmethod
    def insert(self, node: int, gain: Any) -> None:
        """Add ``node`` with ``gain`` (node must be absent)."""

    @abstractmethod
    def remove(self, node: int) -> Any:
        """Remove ``node``; returns its gain (KeyError if absent)."""

    @abstractmethod
    def update(self, node: int, gain: Any) -> None:
        """Change the gain of ``node`` (must be present)."""

    @abstractmethod
    def gain_of(self, node: int) -> Any:
        """Current gain of ``node`` (KeyError if absent)."""

    @abstractmethod
    def peek_best(self) -> Tuple[int, Any]:
        """(node, gain) with the best gain (KeyError when empty)."""

    @abstractmethod
    def iter_descending(self) -> Iterator[Tuple[int, Any]]:
        """(node, gain) pairs from best to worst gain."""

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __contains__(self, node: int) -> bool: ...

    def __bool__(self) -> bool:
        return len(self) > 0

    def adjust(self, node: int, delta: Any) -> None:
        """Shift the gain of ``node`` by ``delta`` (FM's delta rules)."""
        self.update(node, self.gain_of(node) + delta)

    def top(self, k: int) -> List[Tuple[int, Any]]:
        """The best ``k`` (node, gain) pairs (fewer if the container is small).

        Used for the paper's Sec. 3.4 "update the gains of a few, say five,
        of the top ranked nodes in each subset" step.
        """
        out: List[Tuple[int, Any]] = []
        if k <= 0:
            return out
        for item in self.iter_descending():
            out.append(item)
            if len(out) >= k:
                break
        return out


class TreeGainContainer(GainContainer):
    """AVL-tree gain container; the paper's choice for PROP (Sec. 3.5)."""

    __slots__ = ("_tree", "_gains")

    def __init__(self) -> None:
        self._tree = AVLTree()
        self._gains: Dict[int, Any] = {}

    def insert(self, node: int, gain: Any) -> None:
        if node in self._gains:
            raise KeyError(f"node {node} already present")
        self._tree.insert((gain, node))
        self._gains[node] = gain

    def remove(self, node: int) -> Any:
        try:
            gain = self._gains.pop(node)
        except KeyError:
            raise KeyError(f"node {node} not present") from None
        self._tree.remove((gain, node))
        return gain

    def update(self, node: int, gain: Any) -> None:
        old = self.remove(node)
        try:
            self.insert(node, gain)
        except Exception:  # pragma: no cover - defensive reinsertion
            self.insert(node, old)
            raise

    def gain_of(self, node: int) -> Any:
        return self._gains[node]

    def peek_best(self) -> Tuple[int, Any]:
        (gain, node), _ = self._tree.max_item()
        return node, gain

    def iter_descending(self) -> Iterator[Tuple[int, Any]]:
        for (gain, node), _ in self._tree.iter_descending():
            yield node, gain

    def __len__(self) -> int:
        return len(self._gains)

    def __bool__(self) -> bool:
        return bool(self._gains)

    def __contains__(self, node: int) -> bool:
        return node in self._gains


class HeapGainContainer(GainContainer):
    """Heap gain container; PROP's substitute for the paper's AVL tree.

    Sec. 3.5 asks for Θ(log n) best-node selection and gain updates; the
    lazy-deletion heap gives exactly that (amortized), with C-backed
    ``heapq`` doing the work.  Nodes are queued under the item ``-node``:
    the queue breaks priority ties toward the smallest item, i.e. the
    highest node id — the :class:`TreeGainContainer` order ``(gain,
    node)`` max, so both containers make bit-identical choices.  Gains
    must be numbers (they are negated); LA's gain vectors stay on the
    tree container.
    """

    __slots__ = ("_pq",)

    def __init__(self) -> None:
        self._pq = AddressablePriorityQueue()

    def insert(self, node: int, gain: Any) -> None:
        if -node in self._pq:
            raise KeyError(f"node {node} already present")
        self._pq.push(-node, gain)

    def remove(self, node: int) -> Any:
        pq = self._pq
        try:
            gain = pq.priority(-node)
        except KeyError:
            raise KeyError(f"node {node} not present") from None
        pq.discard(-node)
        return gain

    def update(self, node: int, gain: Any) -> None:
        if -node not in self._pq:
            raise KeyError(f"node {node} not present")
        self._pq.push(-node, gain)

    def gain_of(self, node: int) -> Any:
        return self._pq.priority(-node)

    def peek_best(self) -> Tuple[int, Any]:
        entry = self._pq.peek()
        if entry is None:
            raise KeyError("peek_best on an empty container")
        return -entry[0], entry[1]

    def iter_descending(self) -> Iterator[Tuple[int, Any]]:
        for item, gain, _ in self._pq.iter_descending():
            yield -item, gain

    def top(self, k: int) -> List[Tuple[int, Any]]:
        return [(-item, gain) for item, gain, _ in self._pq.top(k)]

    def __len__(self) -> int:
        return len(self._pq)

    def __contains__(self, node: int) -> bool:
        return -node in self._pq
