"""The dead-net short-circuit in PROP's scalar gains is bit-exact.

:meth:`~repro.core.gains.ProbabilisticGainEngine.node_gain` and
:meth:`~repro.core.gains.ProbabilisticGainEngine.net_gain` add a net with a
locked pin on each side (other than the node's own lock) as
``cost * (0.0 - 0.0)`` instead of scanning its pins (Eqns. 5/6: both
clearing probabilities are 0).  The functions below are the full-scan
loops as they were before that short-circuit, kept verbatim as the
reference; the engine must equal them bit for bit — ``==`` *and* the sign
of zero — on dead nets, nets locked on one side only, free nets, and on a
locked node that is the only locked pin on its side.

The last tests run whole partitions with the reference swapped back into
the engine, on an instance whose few large nets are where dead nets
matter, and demand the same move stream, sides and pass cuts.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PropConfig, PropPartitioner, prop
from repro.core.engine import run_prop
from repro.core.gains import ProbabilisticGainEngine
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import large_circuit
from repro.kernels import NumpyGainEngine
from repro.multilevel import NLevelPartitioner
from repro.partition import BalanceConstraint, Partition, random_balanced_sides

ENGINES = [ProbabilisticGainEngine, NumpyGainEngine]


def reference_net_gain(self, node, net_id):
    part = self.partition
    graph = part.graph
    p = self.p
    sides = part.sides_view()
    s = sides[node]
    prod_a = 1.0
    prod_b = 1.0
    has_other = False
    for v in graph.net(net_id):
        if v == node:
            continue
        if sides[v] == s:
            prod_a *= p[v]
        else:
            has_other = True
            prod_b *= p[v]
    cost = graph.net_cost(net_id)
    if has_other:
        return cost * (prod_a - prod_b)
    return cost * (prod_a - 1.0)


def reference_node_gain(self, node):
    part = self.partition
    graph = part.graph
    p = self.p
    sides = part.sides_view()
    net_of = graph.net
    net_costs = graph.net_costs
    s = sides[node]
    total = 0.0
    for net_id in graph.node_nets(node):
        prod_a = 1.0
        prod_b = 1.0
        has_other = False
        for v in net_of(net_id):
            if v == node:
                continue
            pv = p[v]
            if sides[v] == s:
                prod_a *= pv
            else:
                has_other = True
                prod_b *= pv
        cost = net_costs[net_id]
        if has_other:
            total += cost * (prod_a - prod_b)
        else:
            total += cost * (prod_a - 1.0)
    return total


def bits(x):
    return struct.pack("<d", x)


def assert_exact(got, want, what):
    assert got == want, what
    assert bits(got) == bits(want), what


def build(engine_cls, nets, sides, locked, probabilities, costs=None):
    graph = Hypergraph(nets, num_nodes=len(sides), net_costs=costs)
    partition = Partition(graph, sides)
    for v in locked:
        partition.lock(v)
    engine = engine_cls(partition)
    for v, pv in enumerate(probabilities):
        if not partition.is_locked(v):
            engine.set_probability(v, pv)
    return engine


def net_state(engine, node, net_id):
    """Classify ``net_id`` as seen from ``node`` (the cases under test)."""
    part = engine.partition
    s = part.side(node)
    own = 1 if part.is_locked(node) else 0
    mine = part.locked_count(net_id, s) - own
    other = part.locked_count(net_id, 1 - s)
    if mine and other:
        return "dead"
    if mine or other:
        return "one-side"
    return "free"


def assert_engine_matches_reference(engine):
    graph = engine.partition.graph
    for v in range(graph.num_nodes):
        assert_exact(
            engine.node_gain(v), reference_node_gain(engine, v),
            f"node_gain({v})",
        )
        for net_id in graph.node_nets(v):
            assert_exact(
                engine.net_gain(v, net_id),
                reference_net_gain(engine, v, net_id),
                f"net_gain({v}, {net_id}) on a "
                f"{net_state(engine, v, net_id)} net",
            )


# Probabilities with the awkward values over-represented: exact 0 and 1,
# and subnormals, whose products underflow.
probability = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 5e-324, 1e-300]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def states(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    net = st.lists(
        st.integers(min_value=0, max_value=n - 1),
        min_size=1, max_size=min(9, n), unique=True,
    )
    nets = draw(st.lists(net, min_size=1, max_size=2 * n))
    costs = draw(
        st.lists(
            st.floats(min_value=0.25, max_value=8.0),
            min_size=len(nets), max_size=len(nets),
        )
    )
    sides = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    locked = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    probabilities = draw(st.lists(probability, min_size=n, max_size=n))
    return nets, sides, [v for v in range(n) if locked[v]], probabilities, costs


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.kernel_name)
@settings(max_examples=300, deadline=None)
@given(state=states())
def test_gains_equal_full_scan_bit_for_bit(engine_cls, state):
    assert_engine_matches_reference(build(engine_cls, *state))


# Each case pins down one net as seen from node 0 (side 0).  Sides:
# nodes 0-2 on side 0, nodes 3-5 on side 1; net 0 = all six nodes, net 1
# = {0, 4} stays free, so every node sees more than one net.
SIDES = [0, 0, 0, 1, 1, 1]
NETS = [[0, 1, 2, 3, 4, 5], [0, 4]]
PROBS = [0.7, 0.55, 0.9, 0.35, 0.8, 0.6]
CASES = [
    ("dead", (1, 3)),
    ("dead", (1, 2, 3, 5)),
    ("one-side", (1,)),
    ("one-side", (3, 5)),
    ("free", ()),
    # Node 0 is locked and the only locked pin on its side of net 0: its
    # own lock must not make the net look dead.
    ("one-side", (0, 3)),
    ("dead", (0, 2, 3)),
]


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.kernel_name)
@pytest.mark.parametrize(
    "state,locked", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES]
)
def test_each_net_state_matches_full_scan(engine_cls, state, locked):
    engine = build(engine_cls, NETS, SIDES, locked, PROBS, costs=[3.0, 1.0])
    assert net_state(engine, 0, 0) == state
    assert_engine_matches_reference(engine)


# ----------------------------------------------------------------------
# Whole runs: the same moves with the reference gains swapped back in
# ----------------------------------------------------------------------
# large_circuit(1000) has a few 122-250-pin nets; once both sides of such a
# net hold a locked pin, every neighbor update through it is a dead net.
BIG_NETS = large_circuit(1000)


def _run_prop_stream(config, patch):
    graph = BIG_NETS
    moves = []
    result = run_prop(
        graph,
        random_balanced_sides(graph, 3),
        BalanceConstraint.forty_five_fifty_five(graph),
        config,
        seed=3,
        observer=lambda _p, node, sel, imm: moves.append((node, sel, imm)),
    )
    return moves, result


def _nlevel_stream(config, patch):
    """An n-level run; every refiner call's moves land in one stream."""
    graph = BIG_NETS
    moves = []
    original = prop.run_prop

    def observed(*args, **kwargs):
        kwargs["observer"] = (
            lambda _p, node, sel, imm: moves.append((node, sel, imm))
        )
        return original(*args, **kwargs)

    patch.setattr(prop, "run_prop", observed)
    partitioner = NLevelPartitioner(refiner=PropPartitioner(config))
    result = partitioner.partition(
        graph, balance=BalanceConstraint.forty_five_fifty_five(graph)
    )
    return moves, result


# The cached strategy reaches ``net_gain`` (its top-k refresh); n-level
# runs the default recompute strategy through ``run_prop``.
DRIVERS = [
    ("run_prop", _run_prop_stream, "recompute"),
    ("run_prop-cached", _run_prop_stream, "cached"),
    ("nlevel", _nlevel_stream, "recompute"),
]


@pytest.mark.parametrize("kernel", ["python", "numpy"])
@pytest.mark.parametrize(
    "driver,strategy", [d[1:] for d in DRIVERS], ids=[d[0] for d in DRIVERS]
)
def test_move_streams_match_reference_gains(
    driver, strategy, kernel, monkeypatch
):
    config = PropConfig(kernel=kernel, update_strategy=strategy, max_passes=1)
    with monkeypatch.context() as patch:
        moves, result = driver(config, patch)
    with monkeypatch.context() as patch:
        patch.setattr(ProbabilisticGainEngine, "node_gain", reference_node_gain)
        patch.setattr(ProbabilisticGainEngine, "net_gain", reference_net_gain)
        ref_moves, ref_result = driver(config, patch)
    assert moves, "the run made no moves"
    assert moves == ref_moves
    assert result.sides == ref_result.sides
    assert result.cut == ref_result.cut
    assert result.pass_cuts == ref_result.pass_cuts
