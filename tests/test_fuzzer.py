"""Tests for the crash-fuzzing campaign driver: ``run_cell`` with a
random crash point per round, and its CLI."""

import pytest

from repro.crashsim.conformance import run_cell
from repro.crashsim.fuzzer import main


class TestCampaign:
    @pytest.mark.parametrize("variant", ["ps", "naive-ps", "rcr-ps"])
    def test_campaign_consistent(self, variant):
        result = run_cell(variant, point=None, rounds=6, seed=3)
        assert result.consistent, result.violations
        assert result.operations > 0

    def test_mid_access_crashes_actually_fire(self):
        result = run_cell("ps", point=None, rounds=12, seed=3)
        assert result.crashes_fired >= result.rounds // 2

    def test_small_wpq_campaign(self):
        result = run_cell("ps", point=None, rounds=6, seed=3, wpq="small")
        assert result.consistent, result.violations

    def test_deterministic(self):
        a = run_cell("ps", point=None, rounds=5, seed=7)
        b = run_cell("ps", point=None, rounds=5, seed=7)
        assert a.crashes_fired == b.crashes_fired
        assert a.operations == b.operations


class TestCLI:
    def test_exit_zero_on_consistent(self, capsys):
        assert main(["--variant", "ps", "--rounds", "4"]) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_rejects_unknown_variant(self):
        with pytest.raises(SystemExit):
            main(["--variant", "no-such-variant"])

    def test_integrity_flag_attaches_the_domain(self, capsys):
        assert main(["--variant", "ps-hybrid", "--integrity", "--rounds", "2"]) == 0
        assert "ps-hybrid + integrity" in capsys.readouterr().out

    def test_accepts_every_registered_variant(self, capsys):
        # The choices used to be a hardcoded five-name subset; the CLI now
        # derives them from the registry, so volatile designs are fuzzable
        # too (their honest recovery failure is the conformant outcome).
        assert main(["--variant", "baseline", "--rounds", "2"]) == 0
        assert "CONSISTENT" in capsys.readouterr().out
