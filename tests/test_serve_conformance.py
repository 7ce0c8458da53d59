"""Tests for service-level crash conformance (repro.serve.conformance)."""

import json

import pytest

from repro.serve.__main__ import main as serve_main
from repro.serve.batcher import OP_GET
from repro.serve.conformance import run_service_cell
from repro.serve.frontend import SERVICE_QUIESCENT, ShardedKVService


def _small_cell(**kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("rounds", 2)
    kwargs.setdefault("height", 6)
    kwargs.setdefault("ops_per_burst", 16)
    kwargs.setdefault("num_keys", 8)
    return run_service_cell(**kwargs)


class TestCrashConsistentCell:
    def test_ps_cell_is_consistent(self):
        result = _small_cell(variant="ps", seed=1)
        assert result.consistent, result.violations
        assert result.supports is True
        assert result.recoveries == result.rounds
        assert result.operations == 2 * 16

    def test_crashes_actually_fire(self):
        fired = sum(
            _small_cell(variant="ps", seed=seed).crashes_fired
            for seed in (1, 2, 3)
        )
        assert fired >= 1

    def test_pinned_quiescent_point(self):
        result = _small_cell(variant="ps", point=SERVICE_QUIESCENT, seed=4)
        assert result.consistent, result.violations
        assert result.crashes_fired == 0
        assert result.quiescent_crashes == result.rounds
        # Between batches everything submitted was acknowledged, and a
        # quiescent power cut must lose none of it.
        assert result.acknowledged == result.operations

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            _small_cell(variant="ps", point="shard9:no-such-label")

    @pytest.mark.parametrize("variant", ["ps", "rcr-ps"])
    def test_windowed_cell_is_consistent(self, variant):
        """Shards behind a depth-4 shared WindowScheduler: batch loads/
        commits stream into the window, the worker drains at batch
        boundaries, and every crash cell still conforms."""
        result = _small_cell(variant=variant, seed=6, window=4)
        assert result.window == 4
        assert result.consistent, result.violations
        assert result.supports is True
        assert result.recoveries == result.rounds


class TestVolatileCell:
    def test_baseline_honestly_fails_recovery(self):
        result = _small_cell(variant="baseline", seed=3)
        assert result.supports is False
        assert result.consistent, result.violations
        assert result.recoveries == 0


class TestConformanceCommand:
    def test_height_and_batch_max_reach_the_cell(self, capsys):
        code = serve_main(["conformance", "--rounds", "1", "--seed", "1",
                           "--height", "7", "--batch-max", "2"])
        payload = json.loads(capsys.readouterr().out.split("\n}\n")[0] + "}")
        assert code == 0
        assert (payload["height"], payload["batch_max"]) == (7, 2)

    def test_cell_geometry_defaults(self, capsys):
        assert serve_main(["conformance", "--rounds", "1", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out.split("\n}\n")[0] + "}")
        assert (payload["height"], payload["batch_max"]) == (6, 4)


class TestDeterminism:
    def test_same_seed_same_cell(self):
        first = _small_cell(variant="ps", seed=9).to_dict()
        second = _small_cell(variant="ps", seed=9).to_dict()
        first.pop("wall_seconds")
        second.pop("wall_seconds")
        assert first == second

    def test_integrity_is_recorded(self):
        assert _small_cell(variant="ps", seed=1).integrity is False
        assert _small_cell(variant="ps", seed=1, integrity=True).integrity is True


def _after_recovery(monkeypatch, damage):
    """Make every whole-service recovery run ``damage(service)`` after it."""
    real_recover = ShardedKVService.recover

    def recover(self):
        recovered = real_recover(self)
        damage(self)
        return recovered

    monkeypatch.setattr(ShardedKVService, "recover", recover)


def _present_keys(service, num_keys):
    present = []
    for index in range(num_keys):
        try:
            service.get(f"key-{index}")
        except KeyError:
            continue
        present.append(f"key-{index}")
    return present


class TestNegativeCells:
    """Each of these services breaks the contract; the cell must fail."""

    def test_lost_acknowledged_put(self, monkeypatch):
        # Quiescent cut: every op of the burst was acknowledged.
        _after_recovery(monkeypatch, lambda service: service.delete(
            _present_keys(service, 8)[0]))
        result = _small_cell(variant="ps", point=SERVICE_QUIESCENT, seed=4)
        assert not result.consistent
        assert result.violations
        assert all("acknowledged value lost" in v for v in result.violations)

    def test_corrupted_bystander_key(self, monkeypatch):
        # A key universe much wider than the burst leaves untouched keys.
        def damage(service):
            missing = set(f"key-{i}" for i in range(64)) - set(
                _present_keys(service, 64))
            service.put(max(missing), b"ghost")

        _after_recovery(monkeypatch, damage)
        result = _small_cell(variant="ps", point=SERVICE_QUIESCENT, seed=4,
                             num_keys=64, ops_per_burst=4, rounds=1)
        assert not result.consistent
        assert any("untouched key corrupted" in v for v in result.violations)

    def test_stale_acknowledged_get(self, monkeypatch):
        real_run = ShardedKVService.run_batches

        def run_batches(self, requests):
            real_run(self, requests)
            if len(requests) == 1:
                return  # the sweep's one-key read-back stays honest
            for request in requests:
                if request.op == OP_GET and request.result is not None:
                    request.result = b"stale"

        monkeypatch.setattr(ShardedKVService, "run_batches", run_batches)
        result = _small_cell(variant="ps", point=SERVICE_QUIESCENT, seed=4)
        assert not result.consistent
        # The store itself is intact: only the acknowledged reads were wrong.
        assert all("read returned a value out of tolerance" in v
                   for v in result.violations)

    def test_volatile_service_claiming_recovery(self, monkeypatch):
        monkeypatch.setattr(ShardedKVService, "recover", lambda self: True)
        result = _small_cell(variant="baseline", seed=3)
        assert result.supports is False
        assert len(result.violations) == 1
        assert "volatile variant claims successful recovery" in result.violations[0]
