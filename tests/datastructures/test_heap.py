"""AddressablePriorityQueue: the n-level coarsener's rating queue.

The coarsening determinism contract rests on one property checked here
exhaustively: the pop order is the total order on ``(-priority, item)``
tuples of the *live* entries, regardless of the push/update/discard
history that produced them.
"""

import itertools
import random

from repro.datastructures import AddressablePriorityQueue
from repro.datastructures.heap import COMPACT_SLACK


def test_pop_orders_by_priority_then_item():
    pq = AddressablePriorityQueue()
    pq.push(3, 1.0)
    pq.push(1, 2.0)
    pq.push(2, 2.0)
    assert pq.pop()[:2] == (1, 2.0)  # ties -> smaller item first
    assert pq.pop()[:2] == (2, 2.0)
    assert pq.pop()[:2] == (3, 1.0)
    assert pq.pop() is None


def test_update_supersedes_old_priority():
    pq = AddressablePriorityQueue()
    pq.push(7, 1.0)
    pq.push(8, 5.0)
    pq.push(7, 9.0)  # raise
    assert pq.pop()[0] == 7
    pq.push(8, 0.5)  # lower (stale 5.0 entry must be skipped)
    assert pq.pop()[:2] == (8, 0.5)
    assert len(pq) == 0


def test_payload_travels_with_entry():
    pq = AddressablePriorityQueue()
    pq.push(1, 1.0, payload="a")
    pq.push(1, 2.0, payload="b")
    assert pq.payload(1) == "b"
    item, priority, payload = pq.pop()
    assert (item, priority, payload) == (1, 2.0, "b")


def test_discard_and_membership():
    pq = AddressablePriorityQueue()
    pq.push(4, 1.0)
    pq.push(5, 2.0)
    assert 4 in pq and 5 in pq
    pq.discard(4)
    assert 4 not in pq
    assert len(pq) == 1
    assert pq.pop()[0] == 5
    assert pq.pop() is None
    pq.discard(99)  # absent: no-op


def test_peek_does_not_remove():
    pq = AddressablePriorityQueue()
    pq.push(2, 3.0, payload=9)
    assert pq.peek()[:2] == (2, 3.0)
    assert len(pq) == 1
    assert pq.priority(2) == 3.0


def test_identical_repush_is_noop():
    pq = AddressablePriorityQueue()
    pq.push(1, 1.5, payload="x")
    pq.push(1, 1.5, payload="x")
    assert len(pq) == 1
    assert pq.pop()[:2] == (1, 1.5)
    assert pq.pop() is None


def test_pop_order_is_history_independent():
    """Any sequence of pushes/updates/discards ending in the same live
    set pops in the same order — the resume-determinism foundation."""
    rng = random.Random(9)
    for _ in range(50):
        items = list(range(10))
        final = {}
        pq = AddressablePriorityQueue()
        for _ in range(60):
            op = rng.random()
            item = rng.choice(items)
            if op < 0.7:
                prio = rng.choice([0.5, 1.0, 1.5, 2.0])
                pq.push(item, prio, payload=item * 2)
                final[item] = prio
            else:
                pq.discard(item)
                final.pop(item, None)
        expected = sorted(final.items(), key=lambda kv: (-kv[1], kv[0]))
        got = []
        while True:
            entry = pq.pop()
            if entry is None:
                break
            got.append((entry[0], entry[1]))
        assert got == expected


def test_interleaved_exhaustive_small():
    """Every permutation of a small op sequence yields sorted pops."""
    ops = [(0, 1.0), (1, 3.0), (2, 2.0), (0, 4.0)]
    for perm in itertools.permutations(ops):
        pq = AddressablePriorityQueue()
        final = {}
        for item, prio in perm:
            pq.push(item, prio)
            final[item] = prio
        expected = sorted(final.items(), key=lambda kv: (-kv[1], kv[0]))
        got = []
        while len(pq):
            item, prio, _ = pq.pop()
            got.append((item, prio))
        assert got == expected


def test_stale_entries_stay_bounded_under_churn():
    """Heavy update/discard churn never lets the heap outgrow its live
    entries by more than ``2 * live + COMPACT_SLACK``."""
    rng = random.Random(4)
    pq = AddressablePriorityQueue()
    rebuilt = 0
    for _ in range(20000):
        heap = pq._heap
        item = rng.randrange(50)
        if rng.random() < 0.8:
            pq.push(item, rng.random())
        else:
            pq.discard(item)
        rebuilt += pq._heap is not heap
        assert len(pq._heap) <= 2 * len(pq) + COMPACT_SLACK
    assert rebuilt > 0


def test_pop_order_is_history_independent_across_compaction():
    """The resume-determinism property survives heap rebuilds."""
    rng = random.Random(21)
    for _ in range(20):
        final = {}
        pq = AddressablePriorityQueue()
        rebuilt = 0
        for _ in range(800):
            heap = pq._heap
            item = rng.randrange(12)
            if rng.random() < 0.75:
                prio = rng.choice([0.5, 1.0, 1.5, 2.0])
                pq.push(item, prio, payload=item * 2)
                final[item] = prio
            else:
                pq.discard(item)
                final.pop(item, None)
            rebuilt += pq._heap is not heap
        assert rebuilt > 0
        expected = sorted(final.items(), key=lambda kv: (-kv[1], kv[0]))
        if expected:
            assert pq.peek()[:2] == expected[0]
        got = []
        while len(pq):
            item, prio, payload = pq.pop()
            assert payload == item * 2
            got.append((item, prio))
        assert got == expected


def test_update_back_to_old_priority_has_one_live_entry():
    pq = AddressablePriorityQueue()
    pq.push(1, 2.0)
    pq.push(1, 5.0)
    pq.push(1, 2.0)  # A -> B -> A: the first entry must not revive
    pq.push(2, 1.0)
    assert pq.top(5) == [(1, 2.0, None), (2, 1.0, None)]
    assert pq.pop()[:2] == (1, 2.0)
    assert pq.pop()[:2] == (2, 1.0)
    assert pq.pop() is None


def test_payloads_are_never_compared():
    pq = AddressablePriorityQueue()
    pq.push(1, 1.0, payload=None)
    pq.push(1, 1.0, payload="x")  # same key, incomparable payloads
    assert pq.pop() == (1, 1.0, "x")
    assert pq.pop() is None


def test_top_is_bounded_descending_and_non_destructive():
    rng = random.Random(5)
    pq = AddressablePriorityQueue()
    for _ in range(300):
        pq.push(rng.randrange(40), float(rng.randrange(6)))
    expected = sorted(
        ((item, pq.priority(item)) for item in range(40) if item in pq),
        key=lambda kv: (-kv[1], kv[0]),
    )
    for k in (0, 1, 5, len(expected) + 3):
        assert [e[:2] for e in pq.top(k)] == expected[:k]
    assert [e[:2] for e in pq.iter_descending()] == expected
    assert len(pq) == len(expected)
    got = []
    while len(pq):
        got.append(pq.pop()[:2])
    assert got == expected
