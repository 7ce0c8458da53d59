"""Tests for the report CLI, the one front end of the paper's experiments."""

import pytest

from repro import report
from repro.bench import harness
from repro.exec.journal import read_events
from repro.report import EXPERIMENTS, PAPER, main
from repro.sim import runner
from repro.sim.results import RunResult


@pytest.fixture(autouse=True)
def journal_dir(monkeypatch, tmp_path):
    """Every report run journals; keep the journal out of the checkout."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture
def exec_defaults(monkeypatch):
    """Isolate the session-wide sweep defaults the CLI installs."""
    defaults = {"jobs": 1, "journal": None}
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

    def test_table2_structure(self, capsys):
        from repro.energy.model import PS_ORAM

        estimates = report.table2((), harness.BENCH_CONFIG)
        assert len(estimates) == 4
        assert "eADR-ORAM" in estimates
        # The 96-entry PS-ORAM row is the reference every ratio divides by.
        reference = estimates["PS-ORAM (96)"]
        assert reference.energy_pj / PS_ORAM.energy_pj == pytest.approx(1.0)
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("PS-ORAM (96)"))
        assert row.split()[-1] == "1x"

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
        assert swept == [harness.BENCH_CONFIG]

    def test_full_jobs(self, exec_defaults, swept, capsys):
        assert main(["--only", "fig5a", "--full", "--jobs", "3"]) == 0
        header = capsys.readouterr().out.splitlines()[1]
        assert all(w in header for w in harness.FULL_WORKLOADS)
        assert exec_defaults["jobs"] == 3
        # The run's journal is closed and no longer handed to sweeps.
        assert exec_defaults["journal"] is None

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


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("experiment, failing", [
    ("fig5a", ("naive-ps", "429.mcf")),
    ("wpq", ("ps", "401.bzip2")),
])
def test_failed_point_fails_the_run(experiment, failing, jobs, exec_defaults,
                                    journal_dir, monkeypatch):
    """A point that raises fails ``python -m repro`` at every ``--jobs``,
    naming the point; no table is printed from a sweep with a hole."""
    monkeypatch.setattr(harness, "_result_cache", {})

    def flaky(variant, config, trace, warmup_references=0):
        if (variant, trace.name) == failing:
            raise RuntimeError("injected fault")
        return RunResult(variant, trace.name, cycles=1000, instructions=1000,
                         llc_misses=10, nvm_reads=100, nvm_writes=100)

    monkeypatch.setattr(runner, "run_experiment", flaky)
    with pytest.raises(RuntimeError, match="failed points") as raised:
        main(["--only", experiment, "--jobs", jobs])
    message = str(raised.value)
    assert f"{failing[0]}/{failing[1]}: exception: RuntimeError: " \
        "injected fault" in message
    assert "in flaky" in message  # the worker's traceback rides along
    failed = [e for e in read_events(journal_dir / "journal.jsonl")
              if e["event"] == "point_failed"]
    assert [(e["variant"], e["workload"]) for e in failed] == [failing]
