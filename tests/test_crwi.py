"""Unit tests for CRWI digraph construction (repro.core.crwi)."""

import random

import pytest

from repro.analysis.adversarial import figure3_case
from repro.core.commands import AddCommand, CopyCommand, DeltaScript
from repro.core.crwi import (
    CRWIDigraph,
    build_crwi_digraph,
    lemma1_bound,
    read_bytes_bound,
)
from repro.core.policies import is_feedback_vertex_set
from repro.workloads import mutate


def two_cycle_script() -> DeltaScript:
    """Two copies that swap blocks: the smallest cyclic CRWI digraph."""
    return DeltaScript(
        [CopyCommand(4, 0, 4), CopyCommand(0, 4, 4)], version_length=8
    )


class TestBuildDigraph:
    def test_empty_script(self):
        graph = build_crwi_digraph(DeltaScript([], 0))
        assert graph.vertex_count == 0
        assert graph.edge_count == 0

    def test_adds_excluded(self):
        script = DeltaScript(
            [AddCommand(0, b"ab"), CopyCommand(0, 2, 2)], version_length=4
        )
        graph = build_crwi_digraph(script)
        assert graph.vertex_count == 1

    def test_vertices_sorted_by_write_offset(self):
        script = DeltaScript(
            [CopyCommand(0, 10, 2), CopyCommand(5, 0, 2)], version_length=12
        )
        graph = build_crwi_digraph(script)
        assert [v.dst for v in graph.vertices] == [0, 10]

    def test_two_cycle(self):
        graph = build_crwi_digraph(two_cycle_script())
        assert graph.vertex_count == 2
        assert graph.successors == [[1], [0]]
        assert not is_feedback_vertex_set(graph, [])

    def test_no_self_edges(self):
        # A self-overlapping copy must not produce a self-loop.
        script = DeltaScript([CopyCommand(0, 2, 6)], version_length=8)
        graph = build_crwi_digraph(script)
        assert graph.edge_count == 0

    def test_edge_direction_matches_paper(self):
        # u reads what v writes => edge u -> v (u must run first).
        script = DeltaScript(
            [CopyCommand(8, 0, 4),   # vertex 0: reads [8,11]
             CopyCommand(0, 8, 4)],  # vertex 1: writes [8,11]
            version_length=12,
        )
        graph = build_crwi_digraph(script)
        assert 1 in graph.successors[0]
        # vertex 1 reads [0,3] which vertex 0 writes: edge 1 -> 0 too.
        assert 0 in graph.successors[1]

    def test_acyclic_chain(self):
        # Each command reads strictly to the right of everything written
        # after it: shift-left scripts are conflict-free in write order.
        script = DeltaScript(
            [CopyCommand(2, 0, 2), CopyCommand(4, 2, 2), CopyCommand(6, 4, 2)],
            version_length=6,
        )
        graph = build_crwi_digraph(script)
        assert is_feedback_vertex_set(graph, [])

    def test_predecessors_mirror_successors(self):
        graph = build_crwi_digraph(figure3_case(8).script)
        for u in range(graph.vertex_count):
            for v in graph.successors[u]:
                assert u in graph.predecessors[v]
        count_via_pred = sum(len(p) for p in graph.predecessors)
        assert count_via_pred == graph.edge_count


class TestCosts:
    def test_cost_model(self):
        graph = build_crwi_digraph(
            DeltaScript([CopyCommand(0, 0, 100)], version_length=100)
        )
        assert graph.cost(0) == 96  # l - |f| with |f| = 4
        assert graph.cost(0, offset_encoding_size=10) == 90

    def test_cost_clamped_positive(self):
        graph = build_crwi_digraph(
            DeltaScript([CopyCommand(0, 0, 2)], version_length=2)
        )
        assert graph.cost(0) == 1

    def test_costs_vector(self):
        graph = build_crwi_digraph(two_cycle_script())
        assert graph.costs() == [1, 1]


class TestLemma1:
    def test_figure3_meets_bound_exactly(self):
        case = figure3_case(12)
        graph = build_crwi_digraph(case.script)
        assert graph.edge_count == lemma1_bound(case.script) == 144

    @pytest.mark.parametrize("seed", range(5))
    def test_bound_on_realistic_deltas(self, seed):
        from repro.delta import correcting_delta

        rng = random.Random(seed)
        ref = rng.randbytes(4_000)
        ver = mutate(ref, rng)
        script = correcting_delta(ref, ver)
        graph = build_crwi_digraph(script)
        assert graph.edge_count <= read_bytes_bound(script)
        assert read_bytes_bound(script) <= lemma1_bound(script)
