"""Parallel-vs-serial determinism regression (the harness contract).

Every experiment point is a pure function of its task tuple, so running
a sweep through the process pool must reproduce the serial results *bit
for bit* — same floats, not approximately-equal floats.  These tests pin
that for a throughput sweep (Figure 6) and a per-benchmark fan-out
(Table 1) at quick scale.
"""

from repro.experiments import ExperimentConfig, fig6, table1

QUICK = ExperimentConfig(slots=6, interval=40.0, seed=101)


def test_fig6_parallel_bit_identical(monkeypatch):
    deltas = (0.02, 0.08, 0.18)
    monkeypatch.setenv("REPRO_JOBS", "1")
    serial = fig6.run(QUICK, deltas=deltas)
    monkeypatch.setenv("REPRO_JOBS", "4")
    parallel = fig6.run(QUICK, deltas=deltas)
    assert serial.deltas == parallel.deltas
    assert serial.improvements == parallel.improvements  # exact equality


def test_table1_parallel_bit_identical(monkeypatch):
    benchmarks = ("164.gzip", "172.mgrid", "459.GemsFDTD", "473.astar")
    monkeypatch.setenv("REPRO_JOBS", "1")
    serial = table1.run(benchmarks=benchmarks)
    monkeypatch.setenv("REPRO_JOBS", "4")
    parallel = table1.run(benchmarks=benchmarks)
    assert len(serial.rows) == len(parallel.rows) == len(benchmarks)
    for s, p in zip(serial.rows, parallel.rows):
        assert s.name == p.name
        assert s.switches == p.switches
        assert s.runtime_seconds == p.runtime_seconds  # exact equality
        assert s.total_cycles == p.total_cycles
        assert s.marks == p.marks
