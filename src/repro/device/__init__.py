"""Simulated constrained devices, low-bandwidth channels, update sessions."""

from .channel import CHANNELS, Channel, Delivery, get_channel
from .flash import (
    FlashArray,
    WearLimitExceeded,
    WearStats,
    full_reprogram,
    measure_update_wear,
)
from .journal import (
    CrashingStorage,
    Journal,
    JournaledApplier,
    PowerFailureError,
    apply_with_power_failures,
)
from .memory import ConstrainedDevice, RamAccount
from .updater import (
    STRATEGIES,
    JournaledUpdateOutcome,
    UpdateOutcome,
    UpdateServer,
    run_journaled_session,
    run_update,
)

__all__ = [
    "CHANNELS",
    "Channel",
    "ConstrainedDevice",
    "CrashingStorage",
    "Delivery",
    "FlashArray",
    "Journal",
    "JournaledUpdateOutcome",
    "JournaledApplier",
    "PowerFailureError",
    "RamAccount",
    "STRATEGIES",
    "UpdateOutcome",
    "UpdateServer",
    "WearLimitExceeded",
    "WearStats",
    "apply_with_power_failures",
    "full_reprogram",
    "measure_update_wear",
    "get_channel",
    "run_journaled_session",
    "run_update",
]
