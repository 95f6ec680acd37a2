"""Campaign report: structured, JSON-serializable rollout accounting.

The report's invariant is the campaign's acceptance bar: **zero silent
failures**.  Every device in the fleet appears in exactly one terminal
state —

* ``"updated"`` — the reconstructed image was verified byte-exact;
* ``"quarantined"`` — the device halted with a structured reason
  (``kind`` says whether the data was bad or the luck was);
* ``"deferred"`` — a rollout stage tripped its abort threshold (or the
  store could not build the cohort's payload) before this device was
  attempted, and the reason records which.

— and :meth:`CampaignReport.to_dict` refuses to serialize a non-updated
device without a reason, so a silent failure cannot survive into the
artifact.  Aggregate counters are plain order-independent sums, which
is what makes them comparable across serial/thread/process executors
for one seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List

#: Artifact schema tag, bumped on any incompatible report change.
CAMPAIGN_SCHEMA = "repro.fleet.campaign/2"

#: Terminal device states (see module docstring).
DEVICE_STATUSES = ("updated", "quarantined", "deferred")


@dataclass
class DeviceOutcome:
    """Terminal record for one device's trip through a campaign."""

    device: str
    package: str
    have: int
    want: int
    status: str
    #: Structured reason; required (enforced at serialization) for any
    #: status other than ``"updated"``.
    reason: str = ""
    #: ``"corruption"`` / ``"transient"`` for quarantines, else ``""``.
    kind: str = ""
    #: Rollout stage (1-based) the device was scheduled in; 0 when the
    #: device never reached a stage (already current, chain failure).
    stage: int = 0
    #: Full update sessions run (1 = no campaign-level retry).
    sessions: int = 0
    #: Transmission attempts summed over sessions.
    attempts: int = 0
    boots: int = 0
    power_cuts: int = 0
    fault_events: int = 0
    payload_bytes: int = 0
    image_bytes: int = 0
    #: Simulated seconds on the wire, summed over sessions.
    transfer_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        if self.status not in DEVICE_STATUSES:
            raise ValueError(
                "device %s has unknown status %r" % (self.device, self.status)
            )
        if self.status != "updated" and not self.reason:
            raise ValueError(
                "silent failure: device %s is %r with no reason"
                % (self.device, self.status)
            )
        return {
            "device": self.device,
            "package": self.package,
            "have": self.have,
            "want": self.want,
            "status": self.status,
            "reason": self.reason,
            "kind": self.kind,
            "stage": self.stage,
            "sessions": self.sessions,
            "attempts": self.attempts,
            "boots": self.boots,
            "power_cuts": self.power_cuts,
            "fault_events": self.fault_events,
            "payload_bytes": self.payload_bytes,
            "image_bytes": self.image_bytes,
            "transfer_seconds": self.transfer_seconds,
        }


@dataclass
class StageReport:
    """One rollout stage's accounting."""

    stage: int
    fraction: float
    devices: int
    updated: int
    quarantined: int
    #: Whether this stage's failure rate tripped the abort threshold.
    aborted: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "fraction": self.fraction,
            "devices": self.devices,
            "updated": self.updated,
            "quarantined": self.quarantined,
            "aborted": self.aborted,
        }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        return 0.0
    if not (0.0 <= q <= 100.0):
        raise ValueError("percentile q must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class CampaignReport:
    """Everything one campaign run produced, ready to serialize."""

    seed: int
    executor: str
    policy: Dict[str, object]
    packages: Dict[str, int]  # package -> latest release number
    outcomes: List[DeviceOutcome] = field(default_factory=list)
    stages: List[StageReport] = field(default_factory=list)
    #: Cohort accounting: key ``"pkg@have->want"`` -> payload bytes
    #: (-1 when the store could not build the cohort's payload).
    cohorts: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    # -- aggregates (order-independent sums over outcomes) -------------

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def devices(self) -> int:
        return len(self.outcomes)

    @property
    def counters(self) -> Dict[str, int]:
        """The executor-invariant aggregate: same seed => same dict."""
        return {
            "devices": self.devices,
            "updated": self.count("updated"),
            "quarantined": self.count("quarantined"),
            "deferred": self.count("deferred"),
            "sessions": sum(o.sessions for o in self.outcomes),
            "attempts": sum(o.attempts for o in self.outcomes),
            "boots": sum(o.boots for o in self.outcomes),
            "power_cuts": sum(o.power_cuts for o in self.outcomes),
            "fault_events": sum(o.fault_events for o in self.outcomes),
            "retried_sessions": sum(
                1 for o in self.outcomes if o.sessions > 1
            ),
        }

    @property
    def bandwidth(self) -> Dict[str, object]:
        """Bytes shipped vs the full-image counterfactual."""
        attempted = [o for o in self.outcomes if o.attempts > 0]
        full = sum(o.image_bytes for o in attempted)
        # Every transmission attempt puts the payload on the wire again.
        sent = sum(o.payload_bytes * o.attempts for o in attempted)
        return {
            "full_image_bytes": full,
            "delta_bytes_sent": sent,
            "saved_bytes": full - sent,
            "savings_ratio": (full - sent) / full if full else 0.0,
        }

    @property
    def latency(self) -> Dict[str, float]:
        """Simulated transfer-time percentiles over updated devices."""
        times = [o.transfer_seconds for o in self.outcomes
                 if o.status == "updated" and o.attempts > 0]
        return {
            "p50_seconds": percentile(times, 50.0),
            "p99_seconds": percentile(times, 99.0),
            "mean_seconds": sum(times) / len(times) if times else 0.0,
            "samples": float(len(times)),
        }

    @property
    def quarantines(self) -> List[Dict[str, object]]:
        return [
            {"device": o.device, "kind": o.kind, "stage": o.stage,
             "reason": o.reason}
            for o in self.outcomes if o.status == "quarantined"
        ]

    def silent_failures(self) -> List[str]:
        """Devices in a non-updated state with no structured reason.

        Always empty for a healthy campaign; the zero-silent-failure
        acceptance check is literally ``not report.silent_failures()``.
        """
        return [
            o.device for o in self.outcomes
            if o.status not in DEVICE_STATUSES
            or (o.status != "updated" and not o.reason)
        ]

    def to_dict(self, *, include_devices: bool = False) -> Dict[str, object]:
        data: Dict[str, object] = {
            "schema": CAMPAIGN_SCHEMA,
            "seed": self.seed,
            "executor": self.executor,
            "policy": dict(self.policy),
            "packages": dict(self.packages),
            "counters": self.counters,
            "bandwidth": self.bandwidth,
            "latency": self.latency,
            "stages": [s.to_dict() for s in self.stages],
            "cohorts": dict(self.cohorts),
            "quarantines": self.quarantines,
            "wall_seconds": self.wall_seconds,
        }
        if include_devices:
            data["devices"] = [o.to_dict() for o in self.outcomes]
        else:
            # Still run every outcome through its serializer so the
            # no-silent-failure invariant is enforced either way.
            for outcome in self.outcomes:
                outcome.to_dict()
        return data

    def write(self, path: str, *, include_devices: bool = False) -> None:
        """Write the JSON artifact ``ipdelta campaign --out`` emits."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(include_devices=include_devices), fh,
                      indent=2, sort_keys=True)
            fh.write("\n")


__all__ = [
    "CAMPAIGN_SCHEMA",
    "CampaignReport",
    "DEVICE_STATUSES",
    "DeviceOutcome",
    "StageReport",
    "percentile",
]
