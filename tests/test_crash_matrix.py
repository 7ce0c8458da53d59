"""The crash matrix: every injection point x every crash-consistent variant.

This is the heart of the reproduction's correctness claim: for each
checkpoint of the PS-ORAM protocol, a crash is injected mid-access and the
consistency oracle verifies the paper's Section 3/4.3 requirements —
acknowledged writes durable, in-flight accesses atomic, everything else
untouched.
"""

import pytest

from repro.config import WPQConfig, small_config
from repro.core.variants import build_variant
from repro.crashsim.checker import ConsistencyChecker
from repro.crashsim.injector import CRASH_POINTS, CrashInjector
from repro.engine.base import PIPELINE_PHASES
from repro.errors import SimulatedCrash
from repro.util.rng import DeterministicRNG

PS_VARIANTS = ["ps", "naive-ps", "rcr-ps"]


def _populated(variant, height=6, seed=5, wpq=None):
    config = small_config(height=height, seed=seed, wpq=wpq)
    controller = build_variant(variant, config)
    checker = ConsistencyChecker(controller)
    rng = DeterministicRNG(13)
    for i in range(50):
        checker.write(rng.randrange(30), bytes([i % 256, 1]))
    return controller, checker


class TestCrashMatrix:
    @pytest.mark.parametrize("variant", PS_VARIANTS)
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_consistent_after_crash_at(self, variant, point):
        controller, checker = _populated(variant)
        injector = CrashInjector(controller)
        injector.arm(point)

        victim, payload = 7, b"mid-flight"
        try:
            checker.write(victim, payload)
        except SimulatedCrash:
            checker.note_interrupted_write(victim, payload)
        injector.disarm()
        controller.crash()
        assert controller.recover()
        report = checker.verify()
        assert report.consistent, report.violations

    @pytest.mark.parametrize("variant", PS_VARIANTS)
    def test_random_crash_campaign(self, variant):
        """Many random crash points over an evolving workload."""
        controller, checker = _populated(variant)
        injector = CrashInjector(controller, DeterministicRNG(99))
        rng = DeterministicRNG(17)
        for round_no in range(8):
            point = injector.arm_random()
            victim = rng.randrange(30)
            payload = bytes([round_no, 42])
            try:
                checker.write(victim, payload)
            except SimulatedCrash:
                checker.note_interrupted_write(victim, payload)
            injector.disarm()
            controller.crash()
            assert controller.recover()
            report = checker.verify()
            assert report.consistent, (point, report.violations)
            # verify() is pure now: adopt the interrupted op's surviving
            # value before the workload continues.
            checker.settle()
            # Keep mutating between crashes.
            for i in range(5):
                checker.write(rng.randrange(30), bytes([round_no, i]))

    def test_small_wpq_crash_matrix(self):
        """The 4-entry WPQ configuration survives the same matrix."""
        wpq = WPQConfig(data_entries=4, posmap_entries=4)
        for point in ("step5:round-open", "step5:after-end", "step5:before-end"):
            controller, checker = _populated("ps", wpq=wpq)
            injector = CrashInjector(controller)
            # Crash at the 3rd occurrence: mid-way through the round chain.
            injector.arm(point, skip_hits=2)
            try:
                checker.write(9, b"chained")
            except SimulatedCrash:
                checker.note_interrupted_write(9, b"chained")
            injector.disarm()
            controller.crash()
            assert controller.recover()
            report = checker.verify()
            assert report.consistent, (point, report.violations)


def _crash_once_at(variant, point, checker=None, controller=None):
    """One populated system, one crash at ``point``, one verification."""
    if controller is None:
        controller, checker = _populated(variant)
    injector = CrashInjector(controller)
    injector.arm(point)
    victim, payload = 7, b"mid-flight"
    try:
        checker.write(victim, payload)
    except SimulatedCrash:
        checker.note_interrupted_write(victim, payload)
    injector.disarm()
    controller.crash()
    assert controller.recover()
    return checker.verify()


class TestPipelinePhaseCrashMatrix:
    """Crashes at every label each controller announces (satellite of the
    pipeline refactor): the engine's phase boundaries are variant-
    independent, the policy points are not — so each variant is swept
    over its *own* full ``crash_points()`` set.  Rcr-PS adds the
    recursive-PosMap intent point; flat PS adds the phase boundaries to
    the step points :class:`TestCrashMatrix` sweeps."""

    PHASE_VARIANTS = ["rcr-ps", "ps"]

    @pytest.mark.parametrize("variant", PHASE_VARIANTS)
    def test_consistent_at_every_crash_point(self, variant):
        probe = build_variant(variant, small_config(height=6))
        for point in probe.crash_points():
            report = _crash_once_at(variant, point)
            assert report.consistent, (variant, point, report.violations)

    @pytest.mark.parametrize("variant", PS_VARIANTS)
    def test_crash_points_cover_every_phase(self, variant):
        controller = build_variant(variant, small_config(height=6))
        points = controller.crash_points()
        assert set(PIPELINE_PHASES).issubset(set(points))


class TestEADRCrashMatrix:
    """Pinned-seed regression for the eADR in-flight remap hazard.

    A crash between the in-place remap and the target's relabel used to
    flush a PosMap entry pointing at a path holding no copy of the block
    (the stash copy still carried the old label), losing its previously
    acknowledged content.  The policy now tracks the in-flight access
    and rolls the mapping back during the crash flush."""

    @pytest.mark.parametrize("point", PIPELINE_PHASES)
    def test_eadr_consistent_at_phase(self, point):
        report = _crash_once_at("eadr-oram", point)
        assert report.consistent, (point, report.violations)

    def test_eadr_interrupted_read_leaves_block_intact(self):
        controller, checker = _populated("eadr-oram")
        injector = CrashInjector(controller)
        injector.arm("phase:program-op")
        try:
            checker.read(7)
        except SimulatedCrash:
            checker.note_interrupted_read(7)
        injector.disarm()
        controller.crash()
        assert controller.recover()
        report = checker.verify()
        assert report.consistent, report.violations


class TestInjectorMechanics:
    def test_requires_crash_hook(self):
        # Every engine-driven controller is injectable now (crash_hook is
        # an AccessEngine class attribute); only a foreign object without
        # the hook is rejected.
        with pytest.raises(TypeError):
            CrashInjector(object())

    def test_plain_is_injectable(self):
        plain = build_variant("plain", small_config(height=6))
        CrashInjector(plain)  # no longer raises

    def test_unreached_point_crashes_at_quiescence(self):
        controller, checker = _populated("ps")
        injector = CrashInjector(controller)
        injector.arm("step2:after-intent")  # Rcr-only point: never fires
        outcome = injector.crash_during(lambda: checker.write(3, b"x"))
        assert outcome.acknowledged
        assert not outcome.fired
        assert outcome.point == "quiescent"
        assert outcome.recovered
        self_report = checker.verify()
        assert self_report.consistent, self_report.violations

    def test_skip_hits(self):
        controller, _ = _populated("ps")
        injector = CrashInjector(controller)
        injector.arm("step5:after-end", skip_hits=1)
        hits = []
        original = controller.crash_hook

        def counting(label):
            if label == "step5:after-end":
                hits.append(label)
            original(label)

        controller.crash_hook = counting
        with pytest.raises(SimulatedCrash):
            for i in range(10):
                controller.write(i, b"y")
        assert len(hits) == 2


class TestNaivePSSmallWPQOverflow:
    """Pinned-seed regression from the conformance matrix: Naive-PS
    persists one PosMap entry per written slot (Z*(L+1) of them), and the
    eviction used to dump every entry that found no room in the data
    rounds into the *final* round, overflowing a small metadata WPQ.
    Overflow entries now drain in extra metadata-only rounds."""

    # cell_seed(1, "naive-ps", "step4:before-backup", "small") — the
    # exact failing matrix cell, pinned.
    SEED = 247488439962436

    def test_failing_matrix_cell_now_conformant(self):
        from repro.crashsim.conformance import run_cell

        cell = run_cell("naive-ps", point="step4:before-backup", wpq="small",
                        rounds=3, seed=self.SEED)
        assert cell.consistent, cell.violations

    def test_small_wpq_workload_does_not_overflow(self):
        wpq = WPQConfig(data_entries=4, posmap_entries=4)
        controller, checker = _populated("naive-ps", wpq=wpq)
        controller.crash()
        assert controller.recover()
        report = checker.verify()
        assert report.consistent, report.violations


class TestBaselineFailsTheMatrix:
    """Sanity: the oracle is not vacuous — the baseline really loses data."""

    def test_baseline_loses_acknowledged_writes(self):
        config = small_config(height=6, seed=5)
        controller = build_variant("baseline", config)
        checker = ConsistencyChecker(controller)
        rng = DeterministicRNG(13)
        for i in range(40):
            checker.write(rng.randrange(25), bytes([i % 256]))
        controller.crash()
        controller.recover()  # returns False; volatile state is gone
        report = checker.verify()
        assert not report.consistent
