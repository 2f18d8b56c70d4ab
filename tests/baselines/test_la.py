"""Tests for the Krishnamurthy lookahead (LA-k) baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FMPartitioner, LAPartitioner, gain_vector
from repro.hypergraph import Hypergraph, hierarchical_circuit
from repro.partition import (
    Partition,
    balance_ratio,
    cut_cost,
    random_balanced_sides,
)


class TestGainVector:
    def test_first_element_is_fm_gain(self):
        """LA level 1 must equal the deterministic FM gain (Eqn. 1)."""
        graph = hierarchical_circuit(50, 56, 200, seed=1)
        partition = Partition(graph, random_balanced_sides(graph, 1))
        for v in range(graph.num_nodes):
            vec = gain_vector(partition, v, 3)
            assert vec[0] == pytest.approx(partition.immediate_gain(v))

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=20, deadline=None)
    def test_first_element_is_fm_gain_with_locks(self, seed):
        graph = hierarchical_circuit(40, 44, 160, seed=seed % 3)
        partition = Partition(graph, random_balanced_sides(graph, seed))
        # lock a few nodes by moving them (as a pass would)
        for v in range(0, graph.num_nodes, 7):
            partition.move_and_lock(v)
        for v in range(graph.num_nodes):
            if partition.is_locked(v):
                continue
            vec = gain_vector(partition, v, 2)
            assert vec[0] == pytest.approx(partition.immediate_gain(v))

    def test_lookahead_separates_figure1_style_nodes(self):
        """Two nodes with equal FM gain but different 2nd-level prospects
        must order correctly (the Sec. 2 motivation)."""
        # u=0: cut net alone + cut net with 1 partner (level-2 prospect)
        # u=4: cut net alone + cut net with 3 partners (level-4 prospect)
        nets = [
            [0, 8], [0, 1, 8],          # node 0 nets (8 = other side)
            [4, 9], [4, 5, 6, 7, 9],    # node 4 nets (9 = other side)
        ]
        sides = [0, 0, 0, 0, 0, 0, 0, 0, 1, 1]
        graph = Hypergraph(nets, num_nodes=10)
        partition = Partition(graph, sides)
        v0 = gain_vector(partition, 0, 3)
        v4 = gain_vector(partition, 4, 3)
        assert v0[0] == v4[0] == 1  # same FM gain
        assert v0 > v4              # but node 0 is the better move

    def test_internal_net_negative_at_level_one(self):
        graph = Hypergraph([[0, 1]], num_nodes=2)
        partition = Partition(graph, [0, 0])
        assert gain_vector(partition, 0, 2) == (-1.0, 1.0)

    def test_vector_length_is_k(self):
        graph = Hypergraph([[0, 1]], num_nodes=2)
        partition = Partition(graph, [0, 1])
        assert len(gain_vector(partition, 0, 4)) == 4


class TestPartitioner:
    def test_k_validated(self):
        with pytest.raises(ValueError):
            LAPartitioner(0)

    def test_name(self):
        assert LAPartitioner(3).name == "LA-3"

    def test_improves_random_partition(self, medium_circuit):
        initial = random_balanced_sides(medium_circuit, 3)
        before = cut_cost(medium_circuit, initial)
        result = LAPartitioner(2).partition(
            medium_circuit, initial_sides=initial
        )
        assert result.cut < before * 0.7
        result.verify(medium_circuit)

    def test_finds_planted_optimum(self, planted):
        graph, _, crossing = planted
        best = min(
            LAPartitioner(2).partition(graph, seed=s).cut for s in range(4)
        )
        assert best <= crossing + 2

    def test_la1_equivalent_quality_to_fm(self, medium_circuit):
        """With k=1 the vector degenerates to the FM gain; quality over a
        few seeds must match FM's closely (tie-breaking may differ)."""
        la_best = min(
            LAPartitioner(1).partition(medium_circuit, seed=s).cut
            for s in range(4)
        )
        fm_best = min(
            FMPartitioner("tree").partition(medium_circuit, seed=s).cut
            for s in range(4)
        )
        assert la_best <= fm_best * 1.25
        assert fm_best <= la_best * 1.25

    def test_balance_respected(self, medium_circuit):
        result = LAPartitioner(3).partition(medium_circuit, seed=2)
        assert balance_ratio(medium_circuit, result.sides) <= 0.5 + (
            1.5 / medium_circuit.num_nodes
        )

    def test_deterministic(self, medium_circuit):
        a = LAPartitioner(2).partition(medium_circuit, seed=5)
        b = LAPartitioner(2).partition(medium_circuit, seed=5)
        assert a.sides == b.sides

    def test_weighted_nets(self, medium_circuit):
        weighted = medium_circuit.with_net_costs(
            [1.0 + (i % 2) for i in range(medium_circuit.num_nets)]
        )
        LAPartitioner(2).partition(weighted, seed=1).verify(weighted)


class TestContainerChurn:
    """LA reinserts a neighbor only when its gain vector changed."""

    def test_unchanged_vectors_are_not_reinserted(
        self, medium_circuit, monkeypatch
    ):
        from repro.baselines import la
        from repro.datastructures import TreeGainContainer
        from repro.telemetry import MemoryRecorder

        def run(recorder):
            return LAPartitioner(2).partition(
                medium_circuit, seed=4, recorder=recorder
            )

        skipping = MemoryRecorder()
        result = run(skipping)
        totals = skipping.counter_totals
        assert 0 < totals["container_updates"] < totals["neighbor_updates"]

        class AlwaysReinsert(TreeGainContainer):
            """Never equal to a fresh vector: every neighbor is reinserted."""

            __slots__ = ()

            def gain_of(self, node):
                return None

        monkeypatch.setattr(la, "TreeGainContainer", AlwaysReinsert)
        churning = MemoryRecorder()
        reference = run(churning)
        assert churning.counter_totals["container_updates"] == (
            churning.counter_totals["neighbor_updates"]
        )
        assert result.cut == reference.cut
        assert result.sides == reference.sides
        assert skipping.moves == churning.moves
