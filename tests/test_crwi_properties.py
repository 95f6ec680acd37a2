"""Property fuzz for the CRWI digraph's dual representation.

PR 9 made the CSR arrays the construction-time representation while the
adjacency lists stay the canonical public API, derived lazily.  That
dual bookkeeping is only safe if every derived view — ``csr()`` /
``pred_csr()``, ``flat_successors()``, ``pred_row_reader()``,
``edges()``, ``edge_count``, ``outdegrees()`` / ``indegrees()`` — always
agrees with the lists, in both orientations, before and after a
mutation (direct list edits followed by ``invalidate_caches``, or whole
lists assigned through the setters).  This suite fuzzes exactly that,
in both fast and scalar modes, and keeps the Lemma 1 edge bounds honest
along the way.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.adversarial import figure3_case, rotation_medley
from repro.core import _kernels as core_kernels
from repro.core.crwi import (
    build_crwi_digraph,
    lemma1_bound,
    read_bytes_bound,
)
from repro.delta import greedy_delta
from repro.delta.rolling import use_fast_paths

needs_numpy = pytest.mark.skipif(not core_kernels.HAVE_NUMPY,
                                 reason="numpy unavailable")


@pytest.fixture(params=[True, False], ids=["fast", "scalar"])
def mode(request):
    """Run the test once per fast-path mode, restoring afterwards."""
    previous = use_fast_paths(request.param)
    yield request.param
    use_fast_paths(previous)


def _scripts():
    rng = random.Random(0x9A7C)
    cases = []
    for trial in range(4):
        base = rng.randbytes(rng.randrange(4000, 16000))
        version = bytearray(base)
        for _ in range(rng.randrange(3, 12)):
            at = rng.randrange(max(1, len(version) - 128))
            version[at:at + rng.randrange(0, 128)] = \
                rng.randbytes(rng.randrange(0, 128))
        cases.append(("fuzz%d" % trial, greedy_delta(base, bytes(version))))
    fig3 = figure3_case(5)
    cases.append(("figure3", fig3.script))
    medley = rotation_medley(48, [2, 4, 7])
    cases.append(("rotation", medley.script))
    return cases


SCRIPTS = _scripts()
SCRIPT_IDS = [label for label, _ in SCRIPTS]


def _check_views_consistent(graph):
    """Every derived view must agree with the canonical adjacency lists.

    Order matters: on a kernel-built graph ``flat_successors`` and
    ``pred_row_reader`` are exercised *before* the property accessors
    materialize the lists, so the CSR-slicing branches get covered; the
    same calls are then repeated list-side and must return the same rows.
    """
    n = graph.vertex_count

    flat, bounds = graph.flat_successors()
    assert len(bounds) == n + 1 and bounds[0] == 0
    pred_row = graph.pred_row_reader()
    csr_pred_rows = [list(pred_row(u)) for u in range(n)]

    succ = [list(adj) for adj in graph.successors]
    pred = [list(adj) for adj in graph.predecessors]
    assert len(succ) == len(pred) == n

    # flat/bounds and the row reader are exact row-for-row spellings.
    assert [flat[bounds[u]:bounds[u + 1]] for u in range(n)] == succ
    assert csr_pred_rows == pred
    assert [list(graph.pred_row_reader()(u)) for u in range(n)] == pred

    # The orientations are transposes of each other (same multiset of
    # edges, and within each row the sorted contents must agree).
    forward = sorted((u, v) for u, adj in enumerate(succ) for v in adj)
    backward = sorted((u, v) for v, adj in enumerate(pred) for u in adj)
    assert forward == backward

    # edges() and edge_count read whichever spelling is live.
    assert sorted(graph.edges()) == forward
    assert graph.edge_count == len(forward)
    assert graph.outdegrees() == [len(adj) for adj in succ]
    assert graph.indegrees() == [len(adj) for adj in pred]

    if core_kernels.HAVE_NUMPY:
        indptr, indices = graph.csr()
        assert core_kernels.rows_from_csr(indptr, indices) == succ
        assert int(indptr[-1]) == graph.edge_count
        pred_indptr, pred_indices = graph.pred_csr()
        assert core_kernels.rows_from_csr(pred_indptr, pred_indices) == pred


@pytest.mark.parametrize("label,script", SCRIPTS, ids=SCRIPT_IDS)
def test_views_consistent_after_build(label, script, mode):
    graph = build_crwi_digraph(script)
    _check_views_consistent(graph)
    assert graph.edge_count <= read_bytes_bound(script) <= lemma1_bound(script)


@pytest.mark.parametrize("label,script", SCRIPTS, ids=SCRIPT_IDS)
def test_views_consistent_after_list_mutation(label, script, mode):
    """Direct list edits + ``invalidate_caches`` refresh every view."""
    rng = random.Random(0xED17 + len(script.commands))
    graph = build_crwi_digraph(script)
    before = graph.edge_count
    # Warm every cache first so stale values would be caught.
    _check_views_consistent(graph)
    edges = list(graph.edges())
    if not edges:
        pytest.skip("no edges to mutate")
    u, v = edges[rng.randrange(len(edges))]
    graph.successors[u].remove(v)
    graph.predecessors[v].remove(u)
    graph.invalidate_caches()
    assert graph.edge_count == before - 1
    assert (u, v) not in set(graph.edges())
    _check_views_consistent(graph)


@pytest.mark.parametrize("label,script", SCRIPTS, ids=SCRIPT_IDS)
def test_setter_assignment_invalidates(label, script, mode):
    """Assigning whole adjacency lists reroutes every derived view."""
    graph = build_crwi_digraph(script)
    n = graph.vertex_count
    if n < 2:
        pytest.skip("needs at least two vertices")
    _check_views_consistent(graph)
    # Collapse to a single chain edge 0 -> 1: a shape the original
    # script almost surely did not have.
    graph.successors = [[1] if u == 0 else [] for u in range(n)]
    graph.predecessors = [[0] if u == 1 else [] for u in range(n)]
    assert graph.edge_count == 1
    assert list(graph.edges()) == [(0, 1)]
    _check_views_consistent(graph)
