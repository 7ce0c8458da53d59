"""Minimizer self-test: an intentionally broken policy must yield a
minimized reproducer that replays to the same class of violation.

A test-only variant is registered whose PS policy never persists
dirty PosMap entries — acknowledged writes are lost across a crash, so
conformance cells against it fail.  The minimizer must shrink the
failing trace and the standalone reproducer must replay to a violation
through the ``repro`` CLI."""

import pytest

from repro.core.variants import build_variant
from repro.crashsim.conformance import CellSystem, run_cell
from repro.crashsim.matrix import MatrixPoint, emit_reproducers
from repro.crashsim.minimize import (
    load_reproducer,
    main as repro_main,
    make_spec,
    minimize_trace,
    replay,
    write_reproducer,
)
from repro.engine import registry
from repro.engine.registry import VariantSpec
from repro.engine.sched import WindowScheduler
from repro.exec.pool import PointOutcome

BUGGY = "buggy-ps-test"


def _buggy_factory(config, memory=None, key=b"repro-psoram-key"):
    controller = build_variant("ps", config, memory=memory, key=key)
    # The bug under test: dirty-entry persistence silently dropped, so
    # the persistent PosMap goes stale while the tree moves on.
    controller.policy._dirty_entries_for = lambda placed: []
    return controller


@pytest.fixture
def buggy_variant():
    registry.register(VariantSpec(
        name=BUGGY, hierarchy="path", policy="dirty-entry-ps (broken)",
        posmap="flat", summary="test-only: drops dirty-entry persistence",
        factory=_buggy_factory,
    ))
    try:
        yield BUGGY
    finally:
        registry.REGISTRY.pop(BUGGY, None)


def _failing_cell(variant, rounds=4, seed=3, **system):
    cell = run_cell(variant, point="step5:after-flush", rounds=rounds,
                    seed=seed, **system)
    assert not cell.consistent, "broken policy should violate the oracle"
    assert cell.trace, "violating cells must carry their trace"
    return cell


class TestMinimizer:
    def test_minimized_trace_still_reproduces(self, buggy_variant):
        cell = _failing_cell(buggy_variant)
        spec = make_spec(cell.variant, cell.wpq, cell.height, cell.seed)
        assert replay(spec, cell.trace), "full trace must replay to failure"
        minimized = minimize_trace(spec, cell.trace)
        assert len(minimized) <= len(cell.trace)
        assert minimized[-1]["op"] == "crash"  # the pinned final event
        violations = replay(spec, minimized)
        assert violations, "minimized trace must still fail"

    def test_minimize_rejects_passing_trace(self, buggy_variant):
        cell = run_cell("ps", point="step5:after-flush", rounds=2, seed=3)
        assert cell.consistent
        spec = make_spec("ps", "default", 6, 3)
        trace = [{"op": "write", "addr": 1, "data": "aa"},
                 {"op": "crash", "point": "quiescent-never", "skip": 0,
                  "victim": {"op": "read", "addr": 1}}]
        with pytest.raises(ValueError):
            minimize_trace(spec, trace)

    def test_reproducer_round_trip_and_cli(self, buggy_variant, tmp_path,
                                           capsys):
        cell = _failing_cell(buggy_variant)
        spec = make_spec(cell.variant, cell.wpq, cell.height, cell.seed)
        minimized = minimize_trace(spec, cell.trace)
        path = tmp_path / "repro.json"
        write_reproducer(path, spec, minimized, cell.violations)

        loaded_spec, events, recorded = load_reproducer(path)
        assert loaded_spec == spec
        assert events == minimized
        assert recorded == cell.violations

        assert repro_main([str(path)]) == 0  # exit 0 == reproduced
        assert "REPRODUCED" in capsys.readouterr().out

    def test_cli_exit_one_when_not_reproducing(self, tmp_path, capsys):
        spec = make_spec("ps", "default", 6, 3)
        trace = [{"op": "crash", "point": "quiescent-never", "skip": 0,
                  "victim": {"op": "write", "addr": 1, "data": "aa"}}]
        path = tmp_path / "clean.json"
        write_reproducer(path, spec, trace, ["recorded violation"])
        assert repro_main([str(path)]) == 1

    def test_spec_without_window_or_integrity_replays(self, buggy_variant,
                                                      tmp_path, capsys):
        """A reproducer whose spec predates the ``window`` and ``integrity``
        keys replays as the serial, integrity-off system it was built on."""
        cell = _failing_cell(buggy_variant)
        spec = make_spec(cell.variant, cell.wpq, cell.height, cell.seed)
        del spec["window"], spec["integrity"]
        path = tmp_path / "old.json"
        write_reproducer(path, spec, cell.trace, cell.violations)
        loaded, events, _ = load_reproducer(path)
        assert loaded["window"] == 1 and loaded["integrity"] is False
        assert repro_main([str(path)]) == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_replay_takes_a_spec_without_window_or_integrity(self, buggy_variant):
        """replay() reads an old spec itself, not only through
        load_reproducer: a spec lacking both keys builds the serial,
        integrity-off system and reproduces."""
        cell = _failing_cell(buggy_variant)
        spec = make_spec(cell.variant, cell.wpq, cell.height, cell.seed)
        del spec["window"], spec["integrity"]
        system = CellSystem(**make_spec(**spec)).controller
        assert not isinstance(system, WindowScheduler)
        assert system.integrity is None
        assert replay(spec, cell.trace), "an old spec must still reproduce"

    def test_emit_reproducers_writes_files(self, buggy_variant, tmp_path):
        cell = _failing_cell(buggy_variant)
        point = MatrixPoint(variant=cell.variant, point=cell.point,
                            wpq=cell.wpq, rounds=cell.rounds,
                            seed=cell.seed, height=cell.height)
        outcome = PointOutcome(point, result=cell)
        written = emit_reproducers([outcome], tmp_path / "repros")
        assert len(written) == 1
        spec, events, violations = load_reproducer(written[0])
        assert spec["variant"] == cell.variant
        assert replay(spec, events), "emitted reproducer must reproduce"

    def test_reproducer_keeps_window_and_integrity(self, buggy_variant, tmp_path):
        """A windowed, integrity-on cell's reproducer replays on the same
        system: the window and the integrity switch survive the round trip."""
        cell = _failing_cell(buggy_variant, window=4, integrity=True)
        point = MatrixPoint(variant=cell.variant, point=cell.point,
                            wpq=cell.wpq, rounds=cell.rounds,
                            seed=cell.seed, height=cell.height,
                            window=cell.window, integrity=cell.integrity)
        [path] = emit_reproducers([PointOutcome(point, result=cell)],
                                  tmp_path / "repros")
        spec, events, _ = load_reproducer(path)
        assert spec["window"] == 4
        assert spec["integrity"] is True
        system = CellSystem(**make_spec(**spec)).controller
        assert isinstance(system, WindowScheduler)
        assert system.controller.integrity is not None
        assert replay(spec, events), "emitted reproducer must reproduce"
