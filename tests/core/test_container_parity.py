"""PROP makes the same moves on the heap and the AVL gain containers.

:class:`~repro.datastructures.HeapGainContainer` replaces the paper's AVL
tree (Sec. 3.5) in the PROP engine on the promise of the same total order
— max gain, then the higher node id.  These tests hold it to that: the
per-move ``(node, selection_gain, immediate_gain)`` stream of a run on the
heap container equals, move for move, the stream of the same run with
:class:`~repro.datastructures.TreeGainContainer` swapped back in, for
both update strategies and both sequential kernels.
"""

import pytest

from repro.core import PropConfig, engine
from repro.core.engine import run_prop
from repro.datastructures import HeapGainContainer, TreeGainContainer
from repro.hypergraph import Hypergraph, hierarchical_circuit
from repro.partition import BalanceConstraint, random_balanced_sides


RING = 60
INSTANCES = [
    (
        "hier",
        hierarchical_circuit(160, 170, 620, seed=11),
        BalanceConstraint.forty_five_fifty_five,
    ),
    # Unit nets on a ring of small nets: many exactly equal gains, so the
    # higher-node-id tie rule decides a large share of the moves.
    (
        "ties",
        Hypergraph(
            [[i, (i + 1) % RING, (i + 7) % RING] for i in range(RING)]
        ),
        BalanceConstraint.fifty_fifty,
    ),
]


def _stream(graph, balance, config, seed):
    moves = []
    result = run_prop(
        graph,
        random_balanced_sides(graph, seed),
        balance(graph),
        config,
        seed=seed,
        observer=lambda _p, node, sel, imm: moves.append((node, sel, imm)),
    )
    return moves, result


@pytest.mark.parametrize("kernel", ["python", "numpy"])
@pytest.mark.parametrize("strategy", ["recompute", "cached"])
@pytest.mark.parametrize(
    "name,graph,balance", INSTANCES, ids=[i[0] for i in INSTANCES]
)
def test_heap_and_tree_move_streams_identical(
    name, graph, balance, strategy, kernel, monkeypatch
):
    config = PropConfig(update_strategy=strategy, kernel=kernel)
    assert engine.HeapGainContainer is HeapGainContainer
    for seed in (1, 2):
        heap_moves, heap_result = _stream(graph, balance, config, seed)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "HeapGainContainer", TreeGainContainer)
            tree_moves, tree_result = _stream(graph, balance, config, seed)
        assert heap_moves, "the run made no moves"
        assert heap_moves == tree_moves
        assert heap_result.sides == tree_result.sides
        assert heap_result.cut == tree_result.cut
        assert heap_result.pass_cuts == tree_result.pass_cuts
