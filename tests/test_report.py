"""Tests for the report CLI, the one front end of the paper's experiments."""

import pytest

from repro import report
from repro.bench import harness
from repro.report import EXPERIMENTS, PAPER, main
from repro.sim.results import RunResult


@pytest.fixture
def exec_defaults(monkeypatch):
    """Isolate the session-wide sweep defaults the CLI installs."""
    defaults = {"jobs": 1, "use_cache": None, "journal": None}
    monkeypatch.setattr(harness, "_exec_defaults", defaults)
    return defaults


@pytest.fixture
def swept(monkeypatch):
    """Replace the sweep with a stub that records each call's config."""
    configs = []

    def fake_sweep(variants, workloads, config=None, **_):
        configs.append(config)
        return [
            RunResult(v, w, cycles=1000, instructions=1000, llc_misses=10,
                      nvm_reads=100, nvm_writes=100)
            for w in workloads for v in variants
        ]

    monkeypatch.setattr(report, "sweep", fake_sweep)
    return configs


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

    def test_defaults(self, exec_defaults, swept):
        assert main(["--only", "fig5a"]) == 0
        assert exec_defaults["jobs"] == 1
        assert exec_defaults["use_cache"] is None
        assert swept == [harness.BENCH_CONFIG]

    def test_full_jobs_no_cache(self, exec_defaults, swept, capsys):
        assert main(["--only", "fig5a", "--full", "--jobs", "3",
                     "--no-cache"]) == 0
        header = capsys.readouterr().out.splitlines()[1]
        assert all(w in header for w in harness.FULL_WORKLOADS)
        assert exec_defaults["jobs"] == 3
        assert exec_defaults["use_cache"] is False

    def test_rejects_bad_jobs(self):
        with pytest.raises(SystemExit):
            main(["--only", "fig5a", "--jobs", "0"])

    def test_rejects_bad_window(self):
        with pytest.raises(SystemExit):
            main(["--only", "fig5a", "--window", "0"])


@pytest.mark.parametrize("experiment", ["fig5a", "fig5b", "fig6", "fig7", "wpq"])
def test_window_and_integrity_reach_every_sweep(experiment, exec_defaults, swept):
    assert main(["--only", experiment, "--window", "4", "--integrity"]) == 0
    assert swept
    for config in swept:
        assert config.sched_window == 4
        assert config.integrity is True
