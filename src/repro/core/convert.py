"""The in-place conversion algorithm (paper, section 4).

:func:`make_in_place` rewrites an arbitrary delta script into an
equivalent script that reconstructs the version *in the storage the
reference occupies*, following the paper's three techniques:

1. all add commands move to the end of the script (adds never read the
   reference, so they cannot be corrupted — only corrupting);
2. copy commands are permuted into an order with no write-before-read
   conflict, found by topologically sorting the CRWI digraph;
3. copies trapped in digraph cycles are *evicted* — re-encoded as add
   commands carrying the copied bytes, at a compression cost the
   cycle-breaking policy tries to minimize.

The converter needs the reference bytes only to materialize evicted
copies; when a script converts without evictions, ``reference`` may be
``None``.  The output always satisfies Equation 2 (checked by the tests
via :mod:`repro.core.verify` and executed by the strict in-place
applier).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Union

from .. import perf
from ..exceptions import ReproError
from .commands import (
    AddCommand,
    Command,
    CopyCommand,
    DeltaScript,
    FillCommand,
    SpillCommand,
)
from .crwi import CRWIDigraph, OffsetPricing, build_crwi_digraph, field_width
from .policies import (
    CyclePolicy,
    exact_minimum_evictions,
    greedy_evictions,
    make_policy,
)
from .toposort import (
    ToposortResult,
    cycle_breaking_toposort,
    locality_toposort,
    plain_toposort,
)

#: Policies resolved per-cycle inside the topological sort.
PER_CYCLE_POLICIES = ("constant", "local-min", "max-out-degree")
#: Strategies that pick the whole eviction set before sorting.
WHOLE_GRAPH_POLICIES = ("optimal", "greedy-global")
#: Valid topological orderings of the surviving copies.
ORDERINGS = ("dfs", "locality")


@dataclass
class ConversionReport:
    """Accounting for one in-place conversion.

    The benches aggregate these to rebuild Table 1 (compression loss
    decomposition) and the section 7 runtime and policy comparisons.
    """

    policy: str
    copies_in: int = 0
    adds_in: int = 0
    evicted_count: int = 0
    #: Literal bytes the evicted copies now carry in the delta.
    evicted_bytes: int = 0
    #: Compression cost of the evictions.  Under the legacy fixed-width
    #: model (``offset_encoding_size`` an int) this is the paper's sum of
    #: ``max(1, l - |f|)`` over copy-to-add conversions plus a fixed
    #: codeword overhead per spill.  When a per-offset size function is
    #: supplied (varint pricing) it is instead the *exact* growth of the
    #: encoded delta: ``encoded_size(converted) - encoded_size(input)``
    #: in the matching in-place wire format.
    eviction_cost: int = 0
    #: Evictions rescued by the scratch buffer (spill/fill pairs).
    spilled_count: int = 0
    #: Bytes routed through the scratch buffer instead of the delta file.
    spilled_bytes: int = 0
    #: Scratch bytes the output script requires at apply time.
    scratch_used: int = 0
    crwi_vertices: int = 0
    crwi_edges: int = 0
    cycles_found: int = 0
    total_cycle_length: int = 0
    revisits: int = 0
    #: Vertices the acyclic peel ordered without touching the scalar DFS.
    peeled: int = 0
    #: Wall-clock seconds spent converting (digraph + sort + emit).
    seconds: float = 0.0

    @property
    def copies_out(self) -> int:
        """Copy commands surviving into the in-place script."""
        return self.copies_in - self.evicted_count

    @property
    def adds_out(self) -> int:
        """Add commands in the in-place script (originals + evictions)."""
        return self.adds_in + self.evicted_count


@dataclass
class InPlaceResult:
    """An in-place reconstructible script plus its conversion report."""

    script: DeltaScript
    report: ConversionReport


def _resolve_evictions(
    graph: CRWIDigraph,
    policy: Union[str, CyclePolicy],
    offset_encoding_size: OffsetPricing,
    ordering: str = "dfs",
) -> ToposortResult:
    """Run the sort/eviction stage under the named or given policy.

    ``ordering="locality"`` re-sorts the surviving copies with the
    write-order-preferring Kahn pass (same eviction set, an order that
    minimizes jumps across the version file — cheaper on erase-block
    flash).  An unknown ``ordering`` is rejected before any sort or
    eviction work runs.
    """
    if ordering not in ORDERINGS:
        raise ValueError(
            "unknown ordering %r; use %s"
            % (ordering, " or ".join("'%s'" % o for o in ORDERINGS))
        )
    costs = graph.costs(offset_encoding_size)
    if isinstance(policy, str) and policy in WHOLE_GRAPH_POLICIES:
        if policy == "optimal":
            evicted = exact_minimum_evictions(graph, costs)
        else:
            evicted = greedy_evictions(graph, costs)
        result = ToposortResult(order=[], evicted=list(evicted))
        if ordering != "locality":
            result.order = plain_toposort(graph, excluding=evicted)
    else:
        cycle_policy = make_policy(policy, graph) if isinstance(policy, str) else policy
        result = cycle_breaking_toposort(graph, cycle_policy, costs)
    if ordering == "locality":
        result.order = locality_toposort(graph, excluding=result.evicted)
    return result


def _exact_eviction_growth(cmd: CopyCommand, pricing: OffsetPricing,
                           max_add_chunk: int) -> int:
    """Encoded-size growth of re-coding copy ``cmd`` as add commands.

    Mirrors the wire format's codeword arithmetic
    (:func:`repro.delta.encode.encoded_size`): the copy codeword
    ``op|f|t|l`` disappears, replaced by one add codeword
    ``op|t|len-byte|data`` per ``max_add_chunk`` bytes of copied data.
    """
    copy_size = 1 + field_width(pricing, cmd.src) \
        + field_width(pricing, cmd.dst) + field_width(pricing, cmd.length)
    add_size = 0
    done = 0
    while done < cmd.length:
        step = min(max_add_chunk, cmd.length - done)
        add_size += 2 + field_width(pricing, cmd.dst + done) + step
        done += step
    return add_size - copy_size


def assemble_in_place(
    graph: CRWIDigraph,
    sort: ToposortResult,
    adds: List[AddCommand],
    reference: Optional[Union[bytes, bytearray, memoryview]],
    *,
    policy_name: str,
    version_length: int,
    offset_encoding_size: OffsetPricing = 4,
    scratch_budget: int = 0,
    started: Optional[float] = None,
) -> InPlaceResult:
    """Shared emission stage: evictions -> spills/adds, final command layout.

    Used by both the post-processing path (:func:`make_in_place`) and
    the integrated generator
    (:class:`repro.core.integrated.InPlaceDeltaBuilder`), so the two
    pipelines produce identical scripts and reports by construction.
    """
    if started is None:
        started = time.perf_counter()
    exact_pricing = callable(offset_encoding_size)
    if exact_pricing:
        # Deferred import: repro.delta depends on repro.core, so the
        # wire-format constants cannot be imported at module load.
        from ..delta.encode import MAX_ADD_CHUNK
        from ..delta.varint import varint_size
    report = ConversionReport(
        policy=policy_name,
        copies_in=graph.vertex_count,
        adds_in=len(adds),
        crwi_vertices=graph.vertex_count,
        crwi_edges=graph.edge_count,
        cycles_found=sort.cycles_found,
        total_cycle_length=sort.total_cycle_length,
        revisits=sort.revisits,
        peeled=sort.peeled,
    )

    # Evicted copies become spill/fill pairs while scratch lasts (largest
    # first — each spilled byte is a byte the delta file does not carry),
    # then adds.
    spills: List[SpillCommand] = []
    fills: List[FillCommand] = []
    converted: List[AddCommand] = []
    scratch_cursor = 0
    # Legacy model: a spill/fill pair replaces one copy codeword with
    # two, each with an extra scratch-offset field.
    if not exact_pricing:
        spill_overhead = 2 + 3 * offset_encoding_size
    for v in sorted(sort.evicted, key=lambda v: -graph.vertices[v].length):
        cmd = graph.vertices[v]
        report.evicted_count += 1
        report.evicted_bytes += cmd.length
        if scratch_cursor + cmd.length <= scratch_budget:
            spills.append(SpillCommand(cmd.src, scratch_cursor, cmd.length))
            fills.append(FillCommand(scratch_cursor, cmd.dst, cmd.length))
            if exact_pricing:
                # spill + fill codewords minus the removed copy codeword:
                # one extra opcode, the scratch offset twice, the length
                # once (src and dst fields cancel out).
                report.eviction_cost += 1 \
                    + 2 * field_width(offset_encoding_size, scratch_cursor) \
                    + field_width(offset_encoding_size, cmd.length)
            else:
                report.eviction_cost += spill_overhead
            scratch_cursor += cmd.length
            report.spilled_count += 1
            report.spilled_bytes += cmd.length
        else:
            if reference is None:
                raise ReproError(
                    "conversion requires a copy-to-add eviction (%d bytes, "
                    "scratch exhausted) but no reference bytes were provided"
                    % cmd.length
                )
            converted.append(cmd.to_add(reference))
            if exact_pricing:
                report.eviction_cost += _exact_eviction_growth(
                    cmd, offset_encoding_size, MAX_ADD_CHUNK
                )
            else:
                report.eviction_cost += max(1, cmd.length - offset_encoding_size)
    report.scratch_used = scratch_cursor
    if exact_pricing and scratch_cursor > 0:
        # The header's scratch-length field (a varint in every wire
        # format) grows from encoding 0 to encoding the used budget.
        report.eviction_cost += varint_size(scratch_cursor) - 1

    # Spills first (reads only — always safe up front), surviving copies
    # in topological order, then fills and adds.
    commands: List[Command] = list(spills)
    commands.extend(graph.vertices[v] for v in sort.order)
    commands.extend(sorted(fills + adds + converted, key=lambda a: a.dst))
    out = DeltaScript(commands, version_length)
    report.seconds = time.perf_counter() - started
    recorder = perf.active()
    if recorder is not None:
        recorder.merge({
            "convert.calls": 1,
            "convert.seconds": report.seconds,
            "convert.copies_in": report.copies_in,
            "convert.edges": report.crwi_edges,
            "convert.evictions": report.evicted_count,
            "convert.eviction_bytes": report.evicted_bytes,
            "convert.cycles_found": report.cycles_found,
            "convert.peeled": report.peeled,
        })
    return InPlaceResult(out, report)


def make_in_place(
    script: DeltaScript,
    reference: Optional[Union[bytes, bytearray, memoryview]] = None,
    *,
    policy: Union[str, CyclePolicy] = "local-min",
    offset_encoding_size: OffsetPricing = 4,
    scratch_budget: int = 0,
    ordering: str = "dfs",
) -> InPlaceResult:
    """Post-process ``script`` into an in-place reconstructible script.

    ``policy`` selects the cycle-breaking strategy: ``"constant"`` and
    ``"local-min"`` are the paper's per-cycle policies; ``"optimal"``
    (exact, small inputs only) and ``"greedy-global"`` choose the whole
    eviction set up front; any :class:`CyclePolicy` instance is used
    per-cycle.  ``offset_encoding_size`` is ``|f|`` in the cost model —
    the encoded size of the ``from`` field an eviction saves.  An int
    keeps the paper's fixed-width model; pass a per-offset size function
    (``repro.delta.varint.varint_size`` for the default varint wire
    format, ``lambda _: 4`` for the fixed format) to price evictions by
    their true codeword widths, in which case the reported
    ``eviction_cost`` equals the exact encoded-size growth of the
    conversion in the matching in-place format.

    ``ordering`` selects among valid topological orders: ``"dfs"`` (the
    sort's natural reverse postorder) or ``"locality"`` (stay as close to
    write order as the conflict edges allow — fewer erase cycles on
    block-managed flash, same safety guarantees).

    ``scratch_budget`` enables the bounded-scratch extension: evicted
    copies are routed through up to that many bytes of device scratch as
    spill/fill pairs (costing only codewords) instead of being inlined
    as adds (costing their whole data).  Budget is assigned to the
    largest evictions first; the rest fall back to adds.  ``0`` is the
    paper's pure no-scratch algorithm.

    Returns the new script (spills first, copies in conflict-free order,
    then fills and adds) and a :class:`ConversionReport`.  Raises
    :class:`ReproError` when a copy-to-add eviction is needed but
    ``reference`` was not provided (spill/fill needs no reference data).
    """
    if scratch_budget < 0:
        raise ValueError("scratch_budget must be non-negative, got %d" % scratch_budget)
    started = time.perf_counter()

    # Step 1: partition into copies and adds.
    adds: List[AddCommand] = [c for c in script.commands if isinstance(c, AddCommand)]

    # Steps 2-3: sort copies by write offset and build the conflict digraph.
    graph = build_crwi_digraph(script)

    # Step 4: topological sort with cycle breaking.
    sort = _resolve_evictions(graph, policy, offset_encoding_size, ordering)

    # Steps 4-6 (continued): shared emission stage.
    policy_name = policy if isinstance(policy, str) else getattr(policy, "name", "custom")
    return assemble_in_place(
        graph,
        sort,
        adds,
        reference,
        policy_name=policy_name,
        version_length=script.version_length,
        offset_encoding_size=offset_encoding_size,
        scratch_budget=scratch_budget,
        started=started,
    )

