"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at the boundary.  The subtypes mirror the major
subsystems: configuration, ORAM protocol, memory model, crash/recovery.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent with another."""


class ORAMError(ReproError):
    """Base class for ORAM protocol errors."""


class StashOverflowError(ORAMError):
    """The stash exceeded its configured capacity.

    Path ORAM guarantees this happens with negligible probability when the
    tree utilization is at most 50% and the stash holds ~200 entries (Ren et
    al., ISCA'13); hitting it in practice indicates a misconfiguration.
    """


class BlockNotFoundError(ORAMError):
    """A logical address was requested that was never written."""


class InvalidAddressError(ORAMError):
    """A logical address lies outside the configured ORAM capacity."""


class MemoryModelError(ReproError):
    """Base class for NVM/memory-model errors."""


class WPQOverflowError(MemoryModelError):
    """A write-pending queue was pushed past its capacity."""


class PersistenceError(MemoryModelError):
    """A persistence-domain invariant was violated (e.g. commit without start)."""


class CrashError(ReproError):
    """Base class for crash-injection errors."""


class SimulatedCrash(CrashError):
    """Raised by the crash injector to unwind the controller mid-access.

    This is the in-simulation equivalent of the machine losing power: the
    exception propagates out of the ORAM controller, volatile state is then
    discarded by the harness, and only the persistence domain survives.
    """

    def __init__(self, point: str):
        super().__init__(f"simulated crash at {point}")
        self.point = point


class RecoveryError(CrashError):
    """Post-crash recovery could not restore a consistent state."""


class ConsistencyViolation(CrashError):
    """The consistency oracle detected lost or corrupted data after recovery."""


class TraceFormatError(ReproError):
    """A workload trace record is malformed."""


class ServiceError(ReproError):
    """Base class for ORAM-as-a-service front-end errors."""


class ServiceCrashedError(ServiceError):
    """The service crashed with this request in flight (never acknowledged).

    The client must treat the op as indeterminate: after recovery the key
    legally holds either the old or the new value (per-key atomicity),
    exactly like an interrupted single-controller access.
    """


class ServiceStoppedError(ServiceError):
    """A request was submitted to a service that is not running."""
