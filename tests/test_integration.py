"""Integration tests: end-to-end result shapes against the paper's claims.

These replicate (at reduced scale) the *orderings* the evaluation reports:
who is slower than whom, which design writes more, where recursion costs
land.  The absolute factors are checked loosely — the benches in
``benchmarks/`` measure them properly; EXPERIMENTS.md records them.
"""

import pytest

from repro.config import small_config
from repro.core.recovery import crash_and_recover
from repro.core.variants import build_variant
from repro.sim.results import geometric_mean, normalize
from repro.sim.runner import run_variants
from repro.workloads.spec import spec_workload


@pytest.fixture(scope="module")
def results():
    """One shared sweep: all key variants on one workload."""
    config = small_config(height=8, seed=7)
    return run_variants(
        ["baseline", "fullnvm", "fullnvm-stt", "naive-ps", "ps",
         "rcr-baseline", "rcr-ps"],
        config,
        ["429.mcf"],
        references=900,
        warmup_references=150,
    )


def _norm(results, metric="cycles"):
    table = normalize(results, "baseline", metric)
    return {variant: geometric_mean(row.values()) for variant, row in table.items()}


class TestFigure5Shape:
    def test_performance_ordering(self, results):
        norm = _norm(results)
        # Paper Fig 5(a): PS-ORAM ~ Baseline < FullNVM(STT) < Naive ~ FullNVM.
        assert 1.0 <= norm["ps"] < 1.20
        assert norm["ps"] < norm["fullnvm-stt"] < norm["fullnvm"]
        assert norm["ps"] < norm["naive-ps"]

    def test_ps_overhead_single_digit_percent(self, results):
        norm = _norm(results)
        assert norm["ps"] - 1.0 < 0.12  # paper: 4.29%

    def test_recursive_overheads(self, results):
        norm = _norm(results)
        # Paper Fig 5(b): Rcr-Baseline ~ +69% over Baseline; Rcr-PS within
        # a few percent of Rcr-Baseline.
        assert 1.4 < norm["rcr-baseline"] < 2.4
        assert norm["rcr-ps"] / norm["rcr-baseline"] - 1.0 < 0.12  # paper: 3.65%


class TestFigure6Shape:
    def test_read_traffic(self, results):
        norm = _norm(results, metric="nvm_reads")
        # Paper Fig 6(a): only the recursive schemes read more.
        assert norm["ps"] == pytest.approx(1.0, rel=0.02)
        assert norm["naive-ps"] == pytest.approx(1.0, rel=0.02)
        assert norm["rcr-baseline"] > 1.5
        # FullNVM's on-chip stash reads count into total NVM reads.
        assert norm["fullnvm"] > 1.0

    def test_write_traffic(self, results):
        norm = _norm(results, metric="nvm_writes")
        # Paper Fig 6(b): FullNVM ~ +112%, Naive ~ +100%, PS ~ +5%.
        assert 1.8 < norm["fullnvm"] < 2.3
        assert 1.8 < norm["naive-ps"] < 2.2
        assert 1.0 < norm["ps"] < 1.12
        assert norm["rcr-ps"] > norm["rcr-baseline"]


class TestMultiChannelShape:
    def test_channel_scaling_diminishes(self):
        """Paper Fig 7: big gain 1->2 channels, marginal 2->4."""
        trace = spec_workload("429.mcf", references=700, seed=7)
        cycles = {}
        for channels in (1, 2, 4):
            config = small_config(height=8, seed=7, channels=channels)
            from repro.sim.runner import run_experiment

            cycles[channels] = run_experiment(
                "ps", config, trace, warmup_references=100
            ).cycles
        speedup_2 = cycles[1] / cycles[2]
        speedup_4 = cycles[1] / cycles[4]
        assert speedup_2 > 1.15
        assert speedup_4 > speedup_2
        # Diminishing returns: the 2->4 step gains less than the 1->2 step.
        assert (speedup_4 / speedup_2) < speedup_2


class TestORAMOverheadClaim:
    def test_oram_vs_plain_order_of_magnitude(self):
        """Paper Section 5.1: ORAM costs ~2x-24x over non-ORAM NVM."""
        config = small_config(height=8, seed=7)
        trace = spec_workload("429.mcf", references=700, seed=7)
        from repro.sim.runner import run_experiment

        plain = run_experiment("plain", config, trace, warmup_references=100)
        oram = run_experiment("baseline", config, trace, warmup_references=100)
        ratio = oram.cycles / plain.cycles
        assert 2.0 < ratio < 30.0


class TestRecoveryIntegration:
    @pytest.mark.parametrize("variant", ["ps", "rcr-ps"])
    def test_crash_and_recover_report(self, variant):
        controller = build_variant(variant, small_config(height=6, seed=3))
        for i in range(30):
            controller.write(i % 20, bytes([i]))
        report = crash_and_recover(controller)
        assert report.recovered
        assert report.wall_seconds >= 0

    def test_crash_and_recover_baseline_honest(self):
        controller = build_variant("baseline", small_config(height=6, seed=3))
        controller.write(1, b"x")
        report = crash_and_recover(controller)
        assert not report.recovered


class TestPublicAPI:
    def test_quickstart_from_docstring(self):
        """The README/module quickstart must actually work."""
        from repro import build_variant, small_config

        config = small_config(height=8)
        oram = build_variant("ps", config)
        oram.write(7, b"hello world")
        oram.crash()
        oram.recover()
        assert oram.read(7).data.rstrip(b"\x00") == b"hello world"
