"""Regression tests for the consistency oracle's reporting semantics.

Covers the address-keyed checker over the tolerant reference: read
mismatches routed through :class:`CheckReport` instead of a bare
``AssertionError``, idempotent ``verify()``, single-source in-flight
recording, the multi-op window (address -> set of legal values),
``settle()``, crash-during-read tolerance, and ``verify(addresses)``
sweeping a span the workload never touched."""

import pytest

from repro.config import small_config
from repro.core.variants import build_variant
from repro.crashsim.checker import ConsistencyChecker
from repro.crashsim.injector import CrashInjector
from repro.errors import SimulatedCrash


def _plain_checker():
    controller = build_variant("plain", small_config(height=6, seed=2))
    return controller, ConsistencyChecker(controller)


def _corrupt_line(controller, address: int, data: bytes) -> None:
    line = address * controller.oram_config.block_bytes
    padded = data + bytes(controller.oram_config.block_bytes - len(data))
    controller.memory.store_line(line, padded)


class TestReadMismatchReporting:
    def test_mismatch_is_reported_not_raised(self):
        controller, checker = _plain_checker()
        checker.write(3, b"good")
        _corrupt_line(controller, 3, b"evil")
        # Used to raise AssertionError here, killing the whole campaign.
        value = checker.read(3)
        assert value.rstrip(b"\x00") == b"evil"
        report = checker.verify()
        assert not report.consistent
        assert any("address 3" in v for v in report.violations)

    def test_clean_read_reports_nothing(self):
        _, checker = _plain_checker()
        checker.write(3, b"good")
        checker.read(3)
        report = checker.verify()
        assert report.consistent, report.violations


class TestVerifyIdempotence:
    def test_verify_twice_same_verdict(self):
        """verify() used to adopt actual values into the shadow map, so a
        second call vacuously passed even after data loss."""
        controller, checker = _plain_checker()
        checker.write(1, b"keep")
        checker.write(2, b"lose")
        _corrupt_line(controller, 2, b"gone")
        first = checker.verify()
        second = checker.verify()
        assert not first.consistent
        assert not second.consistent
        assert first.violations == second.violations
        assert first.checked == second.checked

    def test_verify_does_not_resolve_in_flight(self):
        _, checker = _plain_checker()
        checker.note_interrupted_write(4, b"maybe")
        checker.verify()
        assert 4 in checker.in_flight_window


class TestInFlightWindow:
    def test_write_is_single_source(self):
        """An op driven through checker.write() is already in the window
        when the crash unwinds; note_interrupted_write must not re-record
        it with a different (wrong) old value."""
        config = small_config(height=6, seed=5)
        controller = build_variant("ps", config)
        checker = ConsistencyChecker(controller)
        checker.write(7, b"before")
        injector = CrashInjector(controller)
        injector.arm("phase:write-back")
        with pytest.raises(SimulatedCrash):
            checker.write(7, b"after")
        injector.disarm()
        window = checker.in_flight_window
        assert set(window) == {7}
        assert {value.rstrip(b"\x00") for value in window[7]} == {b"before", b"after"}
        # The legacy caller convention must not clobber the record.
        checker.note_interrupted_write(7, b"bogus")
        assert checker.in_flight_window[7] == window[7]

    def test_window_holds_multiple_ops(self):
        _, checker = _plain_checker()
        checker.note_interrupted_write(1, b"one")
        checker.note_interrupted_write(2, b"two")
        assert set(checker.in_flight_window) == {1, 2}

    def test_settle_adopts_survivor_and_clears(self):
        controller, checker = _plain_checker()
        checker.write(5, b"old")
        checker.note_interrupted_write(5, b"new")
        resolved = checker.settle()
        assert set(resolved) == {5}
        assert resolved[5].rstrip(b"\x00") == b"old"  # plain kept the old copy
        assert checker.in_flight_window == {}
        assert checker.verify().consistent

    def test_settle_keeps_out_of_tolerance_ops(self):
        controller, checker = _plain_checker()
        checker.write(6, b"old")
        checker.note_interrupted_write(6, b"new")
        _corrupt_line(controller, 6, b"torn")
        resolved = checker.settle()
        assert resolved == {}
        assert 6 in checker.in_flight_window
        assert not checker.verify().consistent

    def test_interrupted_read_tolerates_only_unchanged(self):
        controller, checker = _plain_checker()
        checker.write(8, b"fixed")
        checker.note_interrupted_read(8)
        assert checker.verify().consistent
        _corrupt_line(controller, 8, b"moved")
        assert not checker.verify().consistent
