"""Cross-validation of the graph algorithms against networkx.

Our CRWI digraph, cycle detection, topological sort, and feedback-vertex
solvers are all hand-rolled; these tests rebuild the same graphs in
networkx and check every structural claim against an independent
implementation.
"""

import random

import networkx as nx
import pytest

from repro.analysis.adversarial import figure2_case, figure3_case, rotation_medley
from repro.core.crwi import build_crwi_digraph
from repro.core.policies import (
    ConstantTimePolicy,
    LocallyMinimumPolicy,
    exact_minimum_evictions,
    greedy_evictions,
    is_feedback_vertex_set,
)
from repro.core.toposort import cycle_breaking_toposort, plain_toposort
from repro.delta import correcting_delta
from repro.workloads import mutate


def to_networkx(graph) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.vertex_count))
    g.add_edges_from(graph.edges())
    return g


def realistic_graph(seed: int):
    rng = random.Random(seed)
    ref = rng.randbytes(3_000)
    ver = mutate(ref, rng)
    return build_crwi_digraph(correcting_delta(ref, ver))


CASES = [
    lambda: build_crwi_digraph(figure2_case(3).script),
    lambda: build_crwi_digraph(figure3_case(8).script),
    lambda: build_crwi_digraph(rotation_medley(8, [2, 4, 8]).script),
    lambda: realistic_graph(0),
    lambda: realistic_graph(1),
    lambda: realistic_graph(2),
]


@pytest.mark.parametrize("make", CASES)
class TestStructuralAgreement:
    def test_acyclicity_agrees(self, make):
        graph = make()
        assert is_feedback_vertex_set(graph, []) == \
            nx.is_directed_acyclic_graph(to_networkx(graph))

    def test_edge_counts_agree(self, make):
        graph = make()
        assert graph.edge_count == to_networkx(graph).number_of_edges()

    def test_eviction_leaves_nx_acyclic(self, make):
        graph = make()
        for policy in (ConstantTimePolicy(), LocallyMinimumPolicy()):
            result = cycle_breaking_toposort(graph, policy, graph.costs())
            g = to_networkx(graph)
            g.remove_nodes_from(result.evicted)
            assert nx.is_directed_acyclic_graph(g), policy.name

    def test_our_order_is_valid_for_nx(self, make):
        graph = make()
        result = cycle_breaking_toposort(graph, ConstantTimePolicy(), graph.costs())
        g = to_networkx(graph)
        g.remove_nodes_from(result.evicted)
        position = {v: i for i, v in enumerate(result.order)}
        for u, v in g.edges():
            assert position[u] < position[v]

    def test_greedy_and_exact_are_fvs_per_nx(self, make):
        graph = make()
        for solver in (greedy_evictions,):
            evicted = solver(graph)
            g = to_networkx(graph)
            g.remove_nodes_from(evicted)
            assert nx.is_directed_acyclic_graph(g)


class TestExactSolverAgainstNxEnumeration:
    @pytest.mark.parametrize("seed", range(5))
    def test_optimal_cost_matches_exhaustive_subsets(self, seed):
        """On tiny graphs, enumerate every vertex subset with itertools and
        keep the cheapest whose removal makes the nx graph acyclic."""
        from itertools import combinations

        rng = random.Random(seed)
        n = rng.randint(3, 8)
        from repro.core.commands import CopyCommand
        from repro.core.crwi import CRWIDigraph

        graph = CRWIDigraph(
            vertices=[CopyCommand(0, i * 100, rng.randint(5, 60)) for i in range(n)],
            successors=[[] for _ in range(n)],
            predecessors=[[] for _ in range(n)],
        )
        for _ in range(rng.randint(n, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and v not in graph.successors[u]:
                graph.successors[u].append(v)
                graph.predecessors[v].append(u)

        costs = graph.costs()
        best_exhaustive = sum(costs)
        base = to_networkx(graph)
        for k in range(n + 1):
            for subset in combinations(range(n), k):
                g = base.copy()
                g.remove_nodes_from(subset)
                if nx.is_directed_acyclic_graph(g):
                    cost = sum(costs[v] for v in subset)
                    best_exhaustive = min(best_exhaustive, cost)
        ours = exact_minimum_evictions(graph, costs)
        assert sum(costs[v] for v in ours) == best_exhaustive

    def test_plain_toposort_matches_nx_on_dag(self):
        graph = build_crwi_digraph(figure3_case(6).script)
        evicted = greedy_evictions(graph)
        order = plain_toposort(graph, excluding=evicted)
        g = to_networkx(graph)
        g.remove_nodes_from(evicted)
        position = {v: i for i, v in enumerate(order)}
        for u, v in g.edges():
            assert position[u] < position[v]


class TestCRWIClassProperties:
    def test_no_large_complete_digraphs(self):
        """Section 5: 'the CRWI class does not include any complete
        digraphs with more than two vertices.'  Check that none of our
        generated digraphs contains a complete subgraph on 3 vertices
        with all 6 directed edges... between mutually-conflicting copies
        this would need 3 disjoint write intervals each intersecting the
        other two commands' read intervals — verify on real corpora that
        complete triangles never appear."""
        for make in CASES:
            graph = make()
            g = to_networkx(graph)
            for u, v in g.edges():
                if g.has_edge(v, u):
                    # 2-cycles exist; extend to any third vertex.
                    for w in g.successors(u):
                        if w in (u, v):
                            continue
                        complete = (
                            g.has_edge(u, w) and g.has_edge(w, u)
                            and g.has_edge(v, w) and g.has_edge(w, v)
                        )
                        assert not complete, (u, v, w)
