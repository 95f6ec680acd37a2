"""Fleet-scale campaign simulation over the real update stack.

Everything operational the repo proves per-device, proven at
population scale: :func:`make_fleet` synthesizes a heterogeneous
installed base (stale versions, slow links, mixed flash geometries),
:func:`run_campaign` pushes a release train to it through the real
journaled updater under deterministic fault injection with staged
rollout / abort-threshold / retry-budget policies, and
:mod:`repro.fleet.crashpoints` exhaustively enumerates power-cut
recovery at every journal write boundary.  Surfaced on the CLI as
``ipdelta campaign``.
"""

from .campaign import (
    CAMPAIGN_EXECUTORS,
    RolloutPolicy,
    run_campaign,
)
from .crashpoints import (
    CrashPointReport,
    check_crash_points,
    check_double_cut,
    check_torn_journal,
    count_write_boundaries,
)
from .devices import GEOMETRIES, DeviceSpec, make_fleet, make_release_train
from .report import (
    CAMPAIGN_SCHEMA,
    CampaignReport,
    DeviceOutcome,
    StageReport,
    percentile,
)

__all__ = [
    "CAMPAIGN_EXECUTORS",
    "CAMPAIGN_SCHEMA",
    "CampaignReport",
    "CrashPointReport",
    "DeviceOutcome",
    "DeviceSpec",
    "GEOMETRIES",
    "RolloutPolicy",
    "StageReport",
    "check_crash_points",
    "check_double_cut",
    "check_torn_journal",
    "count_write_boundaries",
    "make_fleet",
    "make_release_train",
    "percentile",
    "run_campaign",
]
