"""Tests for the benchmark harness utilities."""

from repro.bench.harness import (
    BENCH_CONFIG,
    BENCH_WORKLOADS,
    FULL_WORKLOADS,
    format_table,
    sweep,
)
from repro.workloads.spec import SPEC_WORKLOADS


class TestHarnessConstants:
    def test_full_suite_matches_table4(self):
        assert set(FULL_WORKLOADS) == set(SPEC_WORKLOADS)

    def test_subset_is_subset(self):
        assert set(BENCH_WORKLOADS) <= set(FULL_WORKLOADS)

    def test_bench_config_valid(self):
        BENCH_CONFIG.validate()


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(
            "T", ["a", "bb"], [(1, 1.23456), ("xy", 2.0)]
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.235" in text
        assert "xy" in text
        # All data rows share the header's column layout width.
        assert len(lines[1]) == len(lines[2])

    def test_empty_rows(self):
        text = format_table("T", ["a"], [])
        assert "a" in text


class TestSweepCaching:
    def test_results_memoized(self):
        first = sweep(("plain",), ("403.gcc",), references=60, warmup=10)
        second = sweep(("plain",), ("403.gcc",), references=60, warmup=10)
        assert first is second  # cache hit returns the same object

    def test_distinct_keys_not_shared(self):
        a = sweep(("plain",), ("403.gcc",), references=60, warmup=10)
        b = sweep(("plain",), ("403.gcc",), references=70, warmup=10)
        assert a is not b


class TestScaleParsing:
    def test_valid_values(self):
        from repro.bench.harness import _parse_scale

        assert _parse_scale("2.5") == 2.5
        assert _parse_scale("1") == 1.0
        assert _parse_scale(None) == 1.0

    def test_malformed_falls_back_with_warning(self):
        import pytest

        from repro.bench.harness import _parse_scale

        for bad in ("banana", "", "-3", "0", "nan", "inf"):
            with pytest.warns(RuntimeWarning, match="REPRO_BENCH_SCALE"):
                assert _parse_scale(bad) == 1.0

    def test_warning_names_the_bad_value(self):
        import pytest

        from repro.bench.harness import _parse_scale

        with pytest.warns(RuntimeWarning, match="'banana'"):
            _parse_scale("banana")

    def test_malformed_env_does_not_break_import(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ, REPRO_BENCH_SCALE="garbage")
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.bench.harness import BENCH_REFERENCES; "
             "print(BENCH_REFERENCES)"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1200"  # fell back to scale 1.0
        assert "REPRO_BENCH_SCALE" in proc.stderr
