"""FM's flattened move loop makes exactly the moves of the loop it replaced.

:func:`repro.baselines.fm._move_with_gain_updates` applies each critical-
net gain delta as one ``adjust`` call on the pin's container, reading the
partition through its borrowed views, and
:meth:`~repro.datastructures.BucketGainContainer.adjust` unlinks and
relinks the node itself.  The functions below are the loop as it was
before that: the per-pin ``_apply_delta`` dispatch and the bucket
``adjust`` as a wrapper over ``update`` (remove, then insert at the front
of the new bucket).  They are kept verbatim, apart from the bucket call
being routed to :func:`reference_bucket_adjust`, as the reference.

Each test runs FM twice from the same start — once as shipped, once with
the reference swapped in — and demands the same ``(pass, node,
selection_gain, immediate)`` stream, final sides, pass cuts and per-pass
:class:`~repro.telemetry.PassCounters`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.fm as fm
from repro.datastructures import BucketGainContainer
from repro.hypergraph import Hypergraph, make_benchmark
from repro.partition import BalanceConstraint, random_balanced_sides
from repro.telemetry import MemoryRecorder


def reference_bucket_adjust(container, node, delta):
    if delta:
        container.update(node, container.gain_of(node) + delta)


def reference_apply_delta(containers, partition, node, delta, counters=None):
    if delta == 0:
        return
    if counters is not None:
        counters.neighbor_updates += 1
        counters.container_updates += 1
    side = partition.side(node)
    container = containers[side]
    if isinstance(container, BucketGainContainer):
        reference_bucket_adjust(container, node, int(delta))
    else:
        container.update(node, container.gain_of(node) + delta)


def reference_move_with_gain_updates(
    moved, from_side, partition, containers, counters=None
):
    graph = partition.graph
    to_side = 1 - from_side

    for net_id in graph.node_nets(moved):
        cost = graph.net_cost(net_id)
        to_count = partition.count(net_id, to_side)
        if to_count == 0:
            # Net was entirely on from_side: every other free pin gains the
            # option of keeping the net uncut by following the move.
            for v in graph.net(net_id):
                if v != moved and not partition.is_locked(v):
                    reference_apply_delta(
                        containers, partition, v, +cost, counters
                    )
        elif to_count == 1:
            # The single to_side pin loses its "sole pin" bonus.
            for v in graph.net(net_id):
                if (
                    v != moved
                    and partition.side(v) == to_side
                    and not partition.is_locked(v)
                ):
                    reference_apply_delta(
                        containers, partition, v, -cost, counters
                    )
                    break

    realized = partition.move(moved)

    for net_id in graph.node_nets(moved):
        cost = graph.net_cost(net_id)
        from_count = partition.count(net_id, from_side)
        if from_count == 0:
            # Net now entirely on to_side: other pins would newly cut it.
            for v in graph.net(net_id):
                if v != moved and not partition.is_locked(v):
                    reference_apply_delta(
                        containers, partition, v, -cost, counters
                    )
        elif from_count == 1:
            # The single remaining from_side pin becomes the sole pin.
            for v in graph.net(net_id):
                if (
                    v != moved
                    and partition.side(v) == from_side
                    and not partition.is_locked(v)
                ):
                    reference_apply_delta(
                        containers, partition, v, +cost, counters
                    )
                    break

    partition.lock(moved)
    return realized


def _reference_hook(
    moved, from_side, partition, containers, counters=None, costs=None
):
    # The pass loop also hands over its per-pass delta costs; the
    # reference reads costs from the graph, as it always did.
    return reference_move_with_gain_updates(
        moved, from_side, partition, containers, counters
    )


class _PerPassRecorder(MemoryRecorder):
    """Keeps each pass's counters, not only their totals."""

    def __init__(self):
        super().__init__()
        self.per_pass = []

    def counters(self, pass_index, counts):
        super().counters(pass_index, counts)
        self.per_pass.append((pass_index, dict(counts)))


def _run(graph, container, kernel, seed):
    moves = []
    rec = _PerPassRecorder()
    result = fm.run_fm(
        graph,
        random_balanced_sides(graph, seed),
        BalanceConstraint.fifty_fifty(graph),
        container=container,
        seed=seed,
        kernel=kernel,
        observer=lambda *move: moves.append(move),
        recorder=rec,
    )
    return moves, result.sides, result.pass_cuts, rec.per_pass


def _assert_same_as_reference(graph, container, kernel, seed):
    got = _run(graph, container, kernel, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fm, "_move_with_gain_updates", _reference_hook)
        want = _run(graph, container, kernel, seed)
    assert got == want
    # ``==`` calls 1 == 1.0 and 0.0 == -0.0 equal; the reprs do not.
    assert repr(got) == repr(want)
    return got


@pytest.mark.parametrize("kernel", ["python", "numpy"])
@pytest.mark.parametrize("container", ["bucket", "tree"])
@pytest.mark.parametrize("circuit", ["balu", "p1", "t3"])
def test_circuit_moves_match_reference(circuit, container, kernel):
    graph = make_benchmark(circuit)
    for seed in (1, 2):
        moves, _, pass_cuts, per_pass = _assert_same_as_reference(
            graph, container, kernel, seed
        )
        assert moves and len(pass_cuts) == len(per_pass) > 1
        assert all(counts["container_updates"] > 0 for _, counts in per_pass)


def test_weighted_tree_moves_match_reference():
    graph = make_benchmark("t3")
    # Cost 0 nets change no gain; both loops must skip them alike.
    weighted = graph.with_net_costs(
        [(0.0, 0.5, 1.0, 2.5)[i % 4] for i in range(graph.num_nets)]
    )
    for kernel in ("python", "numpy"):
        _assert_same_as_reference(weighted, "tree", kernel, 3)


@st.composite
def _graphs(draw, costed):
    n = draw(st.integers(min_value=2, max_value=24))
    pins = st.lists(
        st.integers(min_value=0, max_value=n - 1),
        min_size=1,
        max_size=min(6, n),
        unique=True,
    )
    nets = draw(st.lists(pins, min_size=1, max_size=3 * n))
    costs = None
    if costed:
        costs = draw(
            st.lists(
                st.sampled_from([0.0, 0.25, 1.0, 1.5, 3.0]),
                min_size=len(nets),
                max_size=len(nets),
            )
        )
    return Hypergraph(nets, num_nodes=n, net_costs=costs)


@settings(max_examples=60, deadline=None)
@given(
    graph=_graphs(costed=False),
    container=st.sampled_from(["bucket", "tree"]),
    kernel=st.sampled_from(["python", "numpy"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_unit_cost_moves_match_reference(graph, container, kernel, seed):
    _assert_same_as_reference(graph, container, kernel, seed)


@settings(max_examples=40, deadline=None)
@given(
    graph=_graphs(costed=True),
    kernel=st.sampled_from(["python", "numpy"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_weighted_tree_moves_match_reference(graph, kernel, seed):
    _assert_same_as_reference(graph, "tree", kernel, seed)
