"""Fidducia–Mattheyses gain buckets.

The classic FM data structure [Fidducia & Mattheyses 1982]: an array of
doubly-linked lists indexed by gain, with a moving max-gain pointer.  All
operations are O(1) amortized, which is what makes FM linear-time — but it
requires integer gains in a bounded range, i.e. **unit net costs**.  For
weighted nets FM must fall back to a tree container (paper Sec. 4 compares
exactly these two variants: FM-bucket vs FM-tree).

Nodes are integers ``0 .. capacity-1``; linked lists are realized with
``prev``/``next`` index arrays (no per-node allocation), matching the
original paper's implementation notes.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from .gain_container import GainContainer

_NIL = -1


class BucketGainContainer(GainContainer):
    """Gain-indexed bucket array over integer node ids.

    Parameters
    ----------
    capacity:
        Number of distinct node ids the structure may hold (ids
        ``0..capacity-1``).
    max_gain:
        Bound on ``abs(gain)``; for FM this is the maximum number of pins on
        any node (``p_max``), since each net contributes at most ±1.

    LIFO bucket discipline is used (new insertions go to the bucket front),
    which is the variant reported to behave best in practice for FM.

    The container operations are defined in this class's own body (not
    inherited from a helper class): tracers that wrap a
    :class:`GainContainer` subclass's methods find them here.
    """

    __slots__ = (
        "_capacity", "_max_gain", "_heads", "_prev", "_next", "_gain",
        "_best", "_size",
    )

    def __init__(self, capacity: int, max_gain: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if max_gain < 0:
            raise ValueError("max_gain must be non-negative")
        self._capacity = capacity
        self._max_gain = max_gain
        nbuckets = 2 * max_gain + 1
        self._heads: List[int] = [_NIL] * nbuckets
        self._prev: List[int] = [_NIL] * capacity
        self._next: List[int] = [_NIL] * capacity
        self._gain: List[Optional[int]] = [None] * capacity
        self._best = _NIL  # index into _heads of current max bucket, or _NIL
        self._size = 0

    def _bucket(self, gain: int) -> int:
        if abs(gain) > self._max_gain:
            raise ValueError(
                f"gain {gain} outside ±{self._max_gain} bucket range"
            )
        return gain + self._max_gain

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, node: int) -> bool:
        return 0 <= node < self._capacity and self._gain[node] is not None

    def gain_of(self, node: int) -> int:
        """Current gain of ``node``; KeyError if absent."""
        g = self._gain[node]
        if g is None:
            raise KeyError(f"node {node} not present")
        return g

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, node: int, gain: int) -> None:
        """Insert ``node`` with ``gain``; KeyError if already present."""
        if not 0 <= node < self._capacity:
            raise KeyError(f"node {node} out of range")
        if self._gain[node] is not None:
            raise KeyError(f"node {node} already present")
        b = self._bucket(gain)
        head = self._heads[b]
        self._next[node] = head
        self._prev[node] = _NIL
        if head != _NIL:
            self._prev[head] = node
        self._heads[b] = node
        self._gain[node] = gain
        self._size += 1
        if b > self._best:
            self._best = b

    def remove(self, node: int) -> int:
        """Remove ``node``; returns its gain.  KeyError if absent."""
        g = self._gain[node]
        if g is None:
            raise KeyError(f"node {node} not present")
        b = self._bucket(g)
        prv, nxt = self._prev[node], self._next[node]
        if prv != _NIL:
            self._next[prv] = nxt
        else:
            self._heads[b] = nxt
        if nxt != _NIL:
            self._prev[nxt] = prv
        self._gain[node] = None
        self._prev[node] = _NIL
        self._next[node] = _NIL
        self._size -= 1
        if self._size == 0:
            self._best = _NIL
        elif b == self._best and self._heads[b] == _NIL:
            while self._best >= 0 and self._heads[self._best] == _NIL:
                self._best -= 1
        return g

    def update(self, node: int, new_gain: int) -> None:
        """Move ``node`` to the bucket for ``new_gain``.

        Atomic on failure: the range check runs before the node is
        unlinked, so a ValueError leaves the structure unchanged.
        """
        self._bucket(new_gain)
        self.remove(node)
        self.insert(node, new_gain)

    def adjust(self, node: int, delta: int) -> None:
        """Shift the gain of ``node`` by ``delta`` (FM's ±1 updates).

        One call per FM gain delta, so the unlink/relink is done inline.
        For a nonzero ``delta`` the result equals ``update(node,
        gain_of(node) + delta)``: the node goes to the front of its new
        bucket and the best pointer follows the same rule.  A zero
        ``delta`` leaves the node where it is.  The range check runs
        before the node is unlinked, so a ValueError (or the KeyError of
        an absent node) leaves the structure unchanged.
        """
        if not delta:
            return
        gains = self._gain
        gain = gains[node]
        if gain is None:
            raise KeyError(f"node {node} not present")
        new_gain = gain + delta
        max_gain = self._max_gain
        if new_gain > max_gain or new_gain < -max_gain:
            raise ValueError(
                f"gain {new_gain} outside ±{max_gain} bucket range"
            )
        heads, prev, nxt = self._heads, self._prev, self._next
        b = gain + max_gain
        p, n = prev[node], nxt[node]
        if p != _NIL:
            nxt[p] = n
        else:
            heads[b] = n
        if n != _NIL:
            prev[n] = p
        nb = new_gain + max_gain
        head = heads[nb]
        nxt[node] = head
        prev[node] = _NIL
        if head != _NIL:
            prev[head] = node
        heads[nb] = node
        gains[node] = new_gain
        best = self._best
        if nb > best:
            self._best = nb
        elif b == best and heads[b] == _NIL:
            # ``node`` now sits in bucket nb < b, so the scan stops.
            while heads[best] == _NIL:
                best -= 1
            self._best = best

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def peek_best(self) -> Tuple[int, int]:
        """(node, gain) at the front of the highest non-empty bucket."""
        if self._size == 0:
            raise KeyError("peek_best() on an empty container")
        node = self._heads[self._best]
        return node, self._best - self._max_gain

    def iter_descending(self) -> Iterator[Tuple[int, int]]:
        """Lazy (node, gain) iteration from highest to lowest gain.

        Within a bucket, iteration follows list (LIFO) order.  The
        structure must not be mutated during iteration.
        """
        for b in range(self._best, -1, -1):
            node = self._heads[b]
            gain = b - self._max_gain
            while node != _NIL:
                yield node, gain
                node = self._next[node]

    def check_invariants(self) -> None:
        """Raise AssertionError on broken linkage (used by tests)."""
        count = 0
        for b, head in enumerate(self._heads):
            node = head
            prev = _NIL
            while node != _NIL:
                assert self._gain[node] == b - self._max_gain, "wrong bucket"
                assert self._prev[node] == prev, "broken prev link"
                prev = node
                node = self._next[node]
                count += 1
        assert count == self._size, "size mismatch"
        if self._size:
            assert self._heads[self._best] != _NIL, "best points at empty"
            for b in range(self._best + 1, len(self._heads)):
                assert self._heads[b] == _NIL, "best pointer too low"
