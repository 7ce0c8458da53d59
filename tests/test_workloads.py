"""Tests for traces, generators and the Table-4 workload suite."""

import pytest

from repro.errors import TraceFormatError
from repro.workloads.spec import (
    SPEC_WORKLOADS,
    all_workload_names,
    measure_llc_misses,
    spec_workload,
)
from repro.workloads.trace import MemoryOp, Trace
from repro.workloads.tracegen import (
    mixed_trace,
    pointer_chase_trace,
    streaming_trace,
    working_set_trace,
    zipf_trace,
)


class TestTraceFormat:
    def test_append_and_stats(self):
        trace = Trace("t")
        trace.append(10, 0x40, False)
        trace.append(5, 0x80, True)
        assert trace.memory_references == 2
        assert trace.instructions == 17

    def test_negative_gap_rejected(self):
        with pytest.raises(TraceFormatError):
            MemoryOp(gap=-1, address=0, is_write=False)


class TestGenerators:
    def test_streaming_is_sequential(self):
        trace = streaming_trace("s", 100, footprint_lines=1000, seed=1)
        lines = [op.address // 64 for op in trace]
        assert lines == list(range(100))

    def test_streaming_wraps(self):
        trace = streaming_trace("s", 10, footprint_lines=4, seed=1)
        assert {op.address // 64 for op in trace} == {0, 1, 2, 3}

    def test_pointer_chase_spreads(self):
        trace = pointer_chase_trace("p", 500, footprint_lines=10_000, seed=1)
        assert len({op.address // 64 for op in trace}) > 400

    def test_working_set_hot_cold_split(self):
        trace = working_set_trace(
            "w", 1000, hot_lines=100, cold_lines=10_000, cold_fraction=0.1, seed=1
        )
        cold = sum(1 for op in trace if op.address // 64 >= 100)
        assert 50 < cold < 200

    def test_zipf_head_heavy(self):
        trace = zipf_trace("z", 1000, footprint_lines=1000, alpha=1.1, seed=1)
        head = sum(1 for op in trace if op.address // 64 < 10)
        assert head > 200

    def test_mixed_has_phases(self):
        trace = mixed_trace("m", 1024, footprint_lines=10_000, phase_length=256, seed=1)
        # First phase is sequential: consecutive deltas of one line.
        deltas = [
            (trace.ops[i + 1].address - trace.ops[i].address)
            for i in range(100)
        ]
        assert all(d == 64 for d in deltas)

    def test_generators_deterministic(self):
        a = pointer_chase_trace("p", 50, 1000, seed=9)
        b = pointer_chase_trace("p", 50, 1000, seed=9)
        assert a.ops == b.ops


class TestSpecSuite:
    def test_fourteen_workloads(self):
        assert len(SPEC_WORKLOADS) == 14
        assert all_workload_names()[0] == "401.bzip2"

    def test_table4_mpki_values_recorded(self):
        assert SPEC_WORKLOADS["458.sjeng"].mpki == pytest.approx(110.99)
        assert SPEC_WORKLOADS["403.gcc"].mpki == pytest.approx(1.19)

    @pytest.mark.parametrize("name", ["401.bzip2", "429.mcf", "403.gcc", "458.sjeng"])
    def test_calibration_hits_target(self, name):
        trace = spec_workload(name, references=8000, seed=7)
        misses = measure_llc_misses(trace)
        mpki = 1000.0 * misses / trace.instructions
        target = SPEC_WORKLOADS[name].mpki
        assert mpki == pytest.approx(target, rel=0.25), (mpki, target)

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            spec_workload("999.nope")

    def test_custom_target(self):
        trace = spec_workload("429.mcf", references=6000, target_mpki=50.0)
        misses = measure_llc_misses(trace)
        mpki = 1000.0 * misses / trace.instructions
        assert mpki == pytest.approx(50.0, rel=0.3)

    def test_deterministic_for_seed(self):
        a = spec_workload("429.mcf", references=500, seed=3)
        b = spec_workload("429.mcf", references=500, seed=3)
        assert a.ops == b.ops
