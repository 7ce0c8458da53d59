"""The consistency oracle for one controller, keyed by logical address.

Wraps a controller and drives it on top of a
:class:`~repro.crashsim.oracle.TolerantReference` of padded blocks:

* every **acknowledged** write (the ``write()`` call returned) must read
  back exactly after any crash + recovery;
* an **in-flight** operation (interrupted by a crash) must be atomic:
  for a write the post-recovery value is either the old or the new
  content, never a mix; for a read the value must be unchanged;
* all *other* addresses are untouched: :meth:`ConsistencyChecker.verify`
  sweeps any addresses it is given, and a conformance cell gives it the
  whole logical span its workload draws from.

Three properties matter for campaign use:

* **reporting, not raising** — a mid-campaign mismatch observed by
  :meth:`read` is recorded as a violation and surfaces in the next
  :meth:`verify` report instead of aborting the campaign;
* **idempotent verification** — :meth:`verify` never mutates the
  reference, so verifying twice after the same crash reports the same
  result; resolving the window is the explicit :meth:`settle`;
* **single-source in-flight recording** — :meth:`write` stages the op
  in the window *before* driving the controller and acknowledges it when
  the call returns, so a ``SimulatedCrash`` leaves exactly one record.
  Crashes whose survivors were never settled accumulate in the window.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

from repro.crashsim.oracle import CheckReport, TolerantReference


class ConsistencyChecker:
    """Drives a controller and checks it against a tolerant reference."""

    def __init__(self, controller):
        self.controller = controller
        self.block_bytes = controller.oram_config.block_bytes
        self._reference: TolerantReference[int, bytes] = TolerantReference(
            bytes(self.block_bytes), "address {}".format)

    def _pad(self, data: bytes) -> bytes:
        return bytes(data) + bytes(self.block_bytes - len(data))

    def _read_back(self, address: int) -> bytes:
        return self.controller.read(address).data

    @property
    def in_flight_window(self) -> Dict[int, FrozenSet[bytes]]:
        """Read-only view: address -> every value it may legally hold."""
        return self._reference.window

    # -- driving --------------------------------------------------------------

    def write(self, address: int, data: bytes) -> None:
        """Write through the controller and record it as acknowledged.

        The op is staged before the controller runs: if a
        ``SimulatedCrash`` unwinds out of the call, the record is already
        in the window — callers need no bookkeeping of their own.
        """
        padded = self._pad(data)
        self._reference.stage(address, padded)
        self.controller.write(address, data)
        self._reference.acknowledge(address, padded)

    def read(self, address: int) -> bytes:
        """Read through the controller, checking the value it returned."""
        value = self._read_back(address)
        self._reference.check_read(address, value)
        return value

    def note_interrupted_write(self, address: int, data: bytes) -> None:
        """Record a write the *caller* drove directly and saw crash.

        Ops driven through :meth:`write` are already in the window; this
        only records ops the checker never saw, and never double-records.
        """
        if address not in self._reference.window:
            self._reference.stage(address, self._pad(data))

    def note_interrupted_read(self, address: int) -> None:
        """Record a read interrupted by a crash: the block must not change."""
        self._reference.stage(address, self._reference.expected(address))

    # -- verification ---------------------------------------------------------

    def verify(self, addresses: Optional[Iterable[int]] = None) -> CheckReport:
        """Read back ``addresses`` (default: every tracked one) and report."""
        if addresses is None:
            addresses = self._reference.tracked()
        return self._reference.sweep(addresses, self._read_back)

    def settle(self) -> Dict[int, bytes]:
        """Adopt the surviving value of each in-flight op; return them."""
        return self._reference.settle(self._read_back)
