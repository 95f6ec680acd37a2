"""Deterministic fault injection: seeded plans of named fault sites.

See :mod:`repro.faults.plan` for the design.  The short version: a
:class:`FaultPlan` schedules faults at named sites (``diff.worker``,
``convert.evict``, ``cache.lookup``, ``channel.transmit``,
``device.power``, ``storage.bitflip``, ``delta.truncate``,
``delta.bitflip``) with
nth-call/count/probability triggers, and every
decision is a pure function of ``(seed, site, scope, call index)`` so
the same plan reproduces the same faults across runs, threads and
worker processes.  :func:`backoff_delay` is the one retry backoff every
retry loop waits by, its jitter drawn the same pure way.
"""

from .plan import (
    ERROR_KINDS,
    KNOWN_SITES,
    MUTATION_KINDS,
    FaultPlan,
    FaultRecord,
    FaultSpec,
    backoff_delay,
    describe_failure,
    jitter_draw,
)

__all__ = [
    "ERROR_KINDS",
    "MUTATION_KINDS",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "KNOWN_SITES",
    "backoff_delay",
    "describe_failure",
    "jitter_draw",
]
