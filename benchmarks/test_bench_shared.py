"""Benchmarks for the cross-process shared-cache extension.

* the shared experiment table itself (the acceptance comparison);
* interleaver throughput — records/sec the production scheduler
  (``stream_segments``) interleaves across 2/4/8 process logs;
* interner throughput — content keys/sec under heavy duplication.
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.experiments import shared as shared_experiment
from repro.shared import TraceInterner, TraceKey, build_process_workloads
from repro.shared.fleet import ProcessStream, stream_segments


def test_bench_shared_table(benchmark, publish):
    """Shared-persistent strictly beats private on the heterogeneous
    mix: lower miss rate, fewer generated bytes, fewer duplicate
    resident bytes — at equal total capacity."""
    result = run_once(
        benchmark,
        lambda: shared_experiment.run(seed=42, scale_multiplier=8.0, quick=True),
    )
    publish(result)
    rows = {(r["Mix"], r["Policy"]): r for r in result.rows}
    private = rows[("heterogeneous", "private")]
    pooled = rows[("heterogeneous", "shared-persistent")]
    assert pooled["MissPct"] < private["MissPct"]
    assert pooled["GeneratedKB"] < private["GeneratedKB"]
    assert pooled["DupKB"] < private["DupKB"]
    # shared-all holds exactly one copy of everything.
    assert rows[("heterogeneous", "shared-all")]["DupKB"] == 0.0


@pytest.mark.parametrize("processes", [2, 4, 8])
def test_bench_interleave_throughput(benchmark, processes):
    """Deterministic round-robin schedule of N heterogeneous logs."""
    workloads = build_process_workloads(
        shared_experiment.mix_benchmarks("heterogeneous", processes),
        seed=42,
        scale_multiplier=4.0,
    )
    logs = [w.log for w in workloads]
    streams = [ProcessStream(length=len(log.records)) for log in logs]

    def merge() -> int:
        return sum(
            segment.stop - segment.start
            for segment in stream_segments(streams, schedule="round-robin")
        )

    total = run_once(benchmark, merge)
    assert total == sum(len(log.records) for log in logs)


@pytest.mark.parametrize("processes", [2, 4, 8])
def test_bench_interner_throughput(benchmark, processes):
    """Interning N processes' workload keys: every cross-process
    duplicate resolves to the gid minted by the first process."""
    workloads = build_process_workloads(
        shared_experiment.mix_benchmarks("homogeneous", processes),
        seed=42,
        scale_multiplier=4.0,
    )
    sizes: list[tuple[TraceKey, int]] = []
    for workload in workloads:
        by_id = {r.trace_id: r.size for r in workload.log.creates()}
        sizes.extend((key, by_id[tid]) for tid, key in workload.keys.items())

    def intern_all() -> TraceInterner:
        interner = TraceInterner()
        for key, size in sizes:
            interner.intern(key, size)
        return interner

    interner = run_once(benchmark, intern_all)
    # Homogeneous mix: identical app content across all N processes, so
    # at least the app portion of every later process deduplicates.
    assert interner.duplicate_requests > 0
    assert interner.n_unique < len(sizes)
