"""Crash-then-verify regressions for the persistent integrity domain.

Pinned-seed conformance cells crash inside each integrity crash point and
require the recovered image to recompute to the persisted root witness;
the mutation test deletes exactly the root-persist step and proves the
matrix notices (docs/INTEGRITY.md's recovery contract is load-bearing,
not decorative).
"""

import pytest

from repro.config import small_config
from repro.core.recovery import crash_and_recover
from repro.core.variants import get_spec
from repro.crashsim.conformance import run_cell
from repro.integrity.domain import INTEGRITY_CRASH_POINTS, IntegrityDomain
from tests.cases import case

#: Variants whose integrity domain persists digests at runtime (the eadr
#: discipline has no persist-commit window, so no integrity points), with
#: the domain on.
PERSISTING_CASES = [case(name, True) for name in ("ps", "naive-ps", "rcr-ps")]


def _build(variant, integrity, **config):
    return get_spec(variant).make(small_config(integrity=integrity, **config))


class TestIntegrityCrashPoints:
    @pytest.mark.parametrize("point", INTEGRITY_CRASH_POINTS)
    def test_ps_int_conformant_at_point(self, point):
        result = run_cell("ps", point=point, rounds=2, seed=11, integrity=True)
        assert result.supports
        assert result.crashes_fired == 2
        assert result.consistent, result.violations

    @pytest.mark.parametrize("variant,integrity", PERSISTING_CASES)
    def test_variant_declares_integrity_points(self, variant, integrity):
        controller = _build(variant, integrity, height=5, seed=3)
        points = controller.crash_points()
        for label in INTEGRITY_CRASH_POINTS:
            assert label in points
        meta = {
            info.label: info.origin for info in controller.crash_point_metadata()
        }
        for label in INTEGRITY_CRASH_POINTS:
            assert meta[label] == "integrity"

    @pytest.mark.parametrize("variant,integrity", PERSISTING_CASES)
    def test_mid_propagation_crash_recovers_verified(self, variant, integrity):
        """Cut power between propagation and persist: recovery must still
        produce an image matching the (crash-flushed) witness."""
        controller = _build(variant, integrity, height=5, seed=7)
        domain = controller.integrity
        for address in range(4):
            controller.write(address, bytes([0x40 + address]))
        from repro.crashsim.injector import CrashInjector
        from repro.errors import SimulatedCrash
        from repro.util.rng import DeterministicRNG

        injector = CrashInjector(controller, DeterministicRNG(7))
        injector.arm("integrity:after-propagate")
        with pytest.raises(SimulatedCrash):
            controller.write(5, b"interrupted")
        injector.disarm()
        report = crash_and_recover(controller)
        assert report.recovered
        assert domain.recovery_violations == []
        assert domain.load_persisted_root() == domain.recompute_root()

    @pytest.mark.parametrize("variant,integrity", [case("ps", True), case("rcr-ps", True)])
    def test_mid_path_crash_recovers_verified(self, variant, integrity):
        """Cut power after the first round of a multi-round path write
        committed (small WPQ geometry): the bucket trees hold a half-written
        path, and recovery must still match the crash-flushed witness."""
        from repro.crashsim.conformance import WPQ_CONFIGS
        from repro.crashsim.injector import CrashInjector
        from repro.errors import SimulatedCrash
        from repro.util.rng import DeterministicRNG

        controller = _build(variant, integrity, height=6, seed=7, wpq=WPQ_CONFIGS["small"])
        domain = controller.integrity
        for address in range(4):
            controller.write(address, bytes([0x40 + address]))
        inner = getattr(getattr(controller, "posmap_oram", None), "controller", None)
        counters = [c.stats for c in (controller, inner) if c is not None]

        def rounds():
            return sum(s.get("ordered_eviction_rounds") for s in counters)

        before = rounds()
        injector = CrashInjector(controller, DeterministicRNG(7))
        injector.arm("step5:round-open", skip_hits=1)
        with pytest.raises(SimulatedCrash):
            controller.write(5, b"interrupted")
        injector.disarm()
        assert injector.fired_point == "step5:round-open"
        assert rounds() - before >= 2
        report = crash_and_recover(controller)
        assert report.recovered
        assert domain.recovery_violations == []
        assert domain.load_persisted_root() == domain.recompute_root()

    def test_eadr_int_persists_root_only_at_crash(self):
        controller = _build("eadr-oram", True, height=5, seed=7)
        domain = controller.integrity
        assert domain.discipline == "eadr"
        controller.write(1, b"resident")
        # No runtime digest traffic: the witness is absent until power loss.
        assert controller.stats.get("integrity_commits") == 0
        assert domain.load_persisted_root() is None
        report = crash_and_recover(controller)
        assert report.recovered
        assert domain.recovery_violations == []
        assert domain.load_persisted_root() == domain.recompute_root()

    def test_volatile_baseline_int_is_tracking_only(self):
        controller = _build("baseline", True, height=5, seed=7)
        domain = controller.integrity
        assert domain.discipline == "none"
        controller.write(1, b"ephemeral")
        assert domain.load_persisted_root() is None
        assert domain.crash_points() == ()


class TestRootPersistMutation:
    """Deleting the root-persist step must be caught by the matrix."""

    def test_matrix_catches_missing_root_persist(self, monkeypatch):
        monkeypatch.setattr(IntegrityDomain, "_persist_root", lambda self: None)
        result = run_cell("ps", point="integrity:after-persist",
                          rounds=2, seed=11, integrity=True)
        assert not result.consistent
        assert any("witness" in v for v in result.violations)

    def test_matrix_axis_catches_missing_root_persist(self, monkeypatch):
        from repro.crashsim.matrix import plan_matrix, run_matrix

        monkeypatch.setattr(IntegrityDomain, "_persist_root", lambda self: None)
        plan = plan_matrix(variants=["ps"], wpqs=["default"], rounds=2, seed=1,
                           points=["integrity:after-persist"])
        assert [point.label for point in plan] == ["ps/integrity:after-persist/default+int"]
        [outcome] = run_matrix(plan)
        assert any("witness" in v for v in outcome.result.violations)

    def test_reproducer_replays_the_missing_witness(self, monkeypatch):
        """Replay runs the cell's own crash round, integrity check included,
        so the failing cell's trace reproduces its violation."""
        from repro.crashsim.minimize import make_spec, replay

        monkeypatch.setattr(IntegrityDomain, "_persist_root", lambda self: None)
        result = run_cell("ps", point="integrity:after-persist",
                          rounds=2, seed=11, integrity=True)
        spec = make_spec("ps", "default", 6, 11, integrity=True)
        violations = replay(spec, result.trace)
        assert violations and all("witness" in v for v in violations)
        assert result.violations == [f"round 0 {v}" for v in violations]

    def test_matrix_passes_with_root_persist_intact(self):
        result = run_cell("ps", point="integrity:after-persist",
                          rounds=2, seed=11, integrity=True)
        assert result.consistent, result.violations


class TestServiceIntegrity:
    def test_service_cell_with_integrity_shards(self):
        from repro.serve.conformance import run_service_cell

        result = run_service_cell(shards=2, variant="ps", rounds=2, seed=3,
                                  integrity=True)
        assert result.supports
        assert result.consistent, result.violations
        assert result.recoveries == 2
