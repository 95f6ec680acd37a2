"""Core algorithms: command model, CRWI digraph, in-place conversion, apply."""

from .apply import (
    apply_delta,
    apply_in_place,
    preflight_in_place,
    reconstruct,
    storage_crc32,
    verify_reference,
)
from .compose import compose_chain, compose_scripts
from .commands import (
    AddCommand,
    Command,
    CopyCommand,
    DeltaScript,
    FillCommand,
    SpillCommand,
    VersionWriter,
)
from .convert import (
    ConversionReport,
    InPlaceResult,
    make_in_place,
)
from .crwi import CRWIDigraph, build_crwi_digraph, lemma1_bound, read_bytes_bound
from .integrated import InPlaceDeltaBuilder, diff_in_place_integrated
from .optimize import OptimizeReport, optimize_script
from .intervals import DynamicIntervalSet, Interval, IntervalIndex
from .policies import (
    ConstantTimePolicy,
    CyclePolicy,
    LocallyMinimumPolicy,
    MaxOutDegreePolicy,
    exact_minimum_evictions,
    greedy_evictions,
    is_feedback_vertex_set,
    make_policy,
)
from .toposort import (
    ToposortResult,
    cycle_breaking_toposort,
    locality_toposort,
    plain_toposort,
)
from .verify import (
    adds_are_last,
    check_in_place_safe,
    count_wr_conflicts,
    find_first_conflict,
    is_in_place_safe,
    lint_in_place,
)

__all__ = [
    "AddCommand",
    "Command",
    "ConstantTimePolicy",
    "ConversionReport",
    "CopyCommand",
    "CRWIDigraph",
    "CyclePolicy",
    "DeltaScript",
    "DynamicIntervalSet",
    "FillCommand",
    "SpillCommand",
    "VersionWriter",
    "InPlaceDeltaBuilder",
    "InPlaceResult",
    "Interval",
    "IntervalIndex",
    "LocallyMinimumPolicy",
    "MaxOutDegreePolicy",
    "ToposortResult",
    "adds_are_last",
    "apply_delta",
    "apply_in_place",
    "preflight_in_place",
    "build_crwi_digraph",
    "check_in_place_safe",
    "compose_chain",
    "compose_scripts",
    "count_wr_conflicts",
    "cycle_breaking_toposort",
    "diff_in_place_integrated",
    "exact_minimum_evictions",
    "find_first_conflict",
    "greedy_evictions",
    "is_feedback_vertex_set",
    "is_in_place_safe",
    "lemma1_bound",
    "lint_in_place",
    "locality_toposort",
    "make_in_place",
    "make_policy",
    "OptimizeReport",
    "optimize_script",
    "plain_toposort",
    "read_bytes_bound",
    "reconstruct",
    "storage_crc32",
    "verify_reference",
]
