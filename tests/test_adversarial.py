"""Unit tests for the Figure 2/3 constructions (repro.analysis.adversarial)."""

import pytest

from repro.analysis.adversarial import (
    figure2_case,
    figure2_expected_costs,
    figure3_case,
    rotation_medley,
    rotation_script,
)
from repro.core.apply import apply_delta
from repro.core.crwi import build_crwi_digraph
from repro.core.policies import is_feedback_vertex_set


class TestFigure2:
    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_digraph_is_tree_plus_leaf_root_edges(self, depth):
        case = figure2_case(depth)
        graph = build_crwi_digraph(case.script)
        nodes = 2 ** (depth + 1) - 1
        leaves = 2 ** depth
        assert graph.vertex_count == nodes
        # Tree edges: every internal node to its two children; plus one
        # back edge per leaf.
        assert graph.edge_count == (nodes - leaves) * 2 + leaves
        # Every leaf points at the root (vertex 0: lowest write offset).
        first_leaf = 2 ** depth - 1
        for leaf in range(first_leaf, nodes):
            assert graph.successors[leaf] == [0]

    def test_script_is_structurally_valid(self):
        case = figure2_case(3)
        case.script.validate(reference_length=len(case.reference))

    def test_expected_costs(self):
        local, optimal = figure2_expected_costs(3)
        assert local == 8 * 4
        assert optimal == 6

    def test_applies_correctly(self):
        case = figure2_case(2)
        version = apply_delta(case.script, case.reference)
        assert len(version) == case.script.version_length

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            figure2_case(0)

    def test_lengths_too_small(self):
        with pytest.raises(ValueError):
            figure2_case(2, leaf_length=1, internal_length=1)


class TestFigure3:
    @pytest.mark.parametrize("block", [2, 4, 8, 16, 32])
    def test_edge_count_exactly_l(self, block):
        case = figure3_case(block)
        graph = build_crwi_digraph(case.script)
        assert graph.edge_count == block * block
        # Lemma 1: never above the version length.
        assert graph.edge_count <= case.script.version_length

    def test_quadratic_in_commands(self):
        case = figure3_case(20)
        commands = len(case.script.commands)
        graph = build_crwi_digraph(case.script)
        assert commands == 2 * 20 - 1
        assert graph.edge_count >= (commands // 2) ** 2

    def test_script_valid_and_applies(self):
        case = figure3_case(6)
        case.script.validate(reference_length=len(case.reference))
        version = apply_delta(case.script, case.reference)
        # Blocks 1..B-1 of the version equal reference block 0.
        assert version[6:12] == case.reference[0:6]
        assert version[30:36] == case.reference[0:6]

    def test_bad_block(self):
        with pytest.raises(ValueError):
            figure3_case(1)


class TestRotations:
    def test_single_cycle(self):
        case = rotation_script(16, 8)
        graph = build_crwi_digraph(case.script)
        assert graph.vertex_count == 8
        assert graph.edge_count == 8
        assert not is_feedback_vertex_set(graph, [])
        # Removing any single vertex makes it acyclic.
        assert is_feedback_vertex_set(graph, [3])

    def test_rotation_applies(self):
        case = rotation_script(4, 3)
        version = apply_delta(case.script, case.reference)
        r = case.reference
        assert version == r[4:8] + r[8:12] + r[0:4]

    def test_medley_disjoint_cycles(self):
        case = rotation_medley(8, [2, 3, 5])
        graph = build_crwi_digraph(case.script)
        assert graph.vertex_count == 10
        assert graph.edge_count == 10
        assert case.planted_cycles == 3

    def test_medley_rejects_short_cycles(self):
        with pytest.raises(ValueError):
            rotation_medley(8, [2, 1])

    def test_rotation_args_validated(self):
        with pytest.raises(ValueError):
            rotation_script(0, 5)
        with pytest.raises(ValueError):
            rotation_script(4, 1)
