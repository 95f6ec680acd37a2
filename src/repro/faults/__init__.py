"""Deterministic fault injection: seeded plans of named fault sites.

See :mod:`repro.faults.plan` for the design.  The short version: a
:class:`FaultPlan` schedules faults at named sites (``diff.worker``,
``convert.evict``, ``cache.lookup``, ``channel.transmit``,
``device.power``, ``storage.bitflip``, ``delta.truncate``,
``delta.bitflip``) with
nth-call/count/probability triggers, and every
decision is a pure function of ``(seed, site, scope, call index)`` so
the same plan reproduces the same faults across runs, threads and
worker processes.  :func:`backoff_delay` is the one retry rule: a
base delay grown by :data:`BACKOFF_FACTOR` up to a cap, plus up to
:data:`BACKOFF_JITTER` of jitter drawn the same pure way.  Only the
loops that wait on something real sleep it (the batch pipeline and the
pull client); the simulated update sessions retry without sleeping.
"""

from .plan import (
    BACKOFF_FACTOR,
    BACKOFF_JITTER,
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
    "BACKOFF_FACTOR",
    "BACKOFF_JITTER",
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
