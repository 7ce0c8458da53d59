"""Smoke tests for the report CLI (fast experiments only)."""

import pytest

from repro.report import EXPERIMENTS, PAPER, main


class TestReportCLI:
    def test_experiment_registry_complete(self):
        assert {"table2", "table4", "fig5a", "fig5b", "fig6", "fig7",
                "wpq"} <= set(EXPERIMENTS)

    def test_paper_values_present(self):
        assert PAPER["ps"] == pytest.approx(1.0429)
        assert PAPER["writes.naive-ps"] == pytest.approx(2.009)

    def test_table2_runs(self, capsys):
        assert main(["--only", "table2"]) == 0
        out = capsys.readouterr().out
        assert "eADR-ORAM" in out
        assert "PS-ORAM (96)" in out

    def test_table4_runs(self, capsys):
        assert main(["--only", "table4"]) == 0
        out = capsys.readouterr().out
        assert "401.bzip2" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["--only", "nope"])

    def test_list_variants(self, capsys):
        assert main(["--list-variants"]) == 0
        out = capsys.readouterr().out
        for name in ("plain", "baseline", "ps", "naive-ps", "rcr-ps",
                     "ps-hybrid", "eadr-oram"):
            assert name in out
        assert "hierarchy" in out and "policy" in out and "posmap" in out
        assert "dirty-entry-ps" in out
