"""Benchmarks for the fleet-scale shared-cache stack.

Four measurements, flushed to ``benchmarks/results/BENCH_fleet.json``
by the final test in this module:

* **scaling cell** — the P=1024 heterogeneous+Zipf cell (churned,
  random schedule) end to end: events/sec and the dedup ratio the
  scaling table reports;
* **interleaver speedup** — the O(1)-amortized streaming scheduler
  vs the per-record oracle interleaver (``tests/shared/oracle.py``)
  merging the same P=256 homogeneous fleet (the CI floor is 5x);
* **memory scaling** — tracemalloc peak of a P=1024 homogeneous run
  vs P=8 at identical per-process scale: lazy synthesis keeps memory
  O(distinct workloads), so the CI ceiling is 3x despite 128x the
  processes.

The timing cells run at a deep scale divisor (tiny per-process logs);
the memory comparison runs at the experiment's own floor divisor so
the shared compiled log — the constant term lazy synthesis buys — has
its realistic weight.  The full-scale curve is
``repro-gencache run fleet``.
"""

from __future__ import annotations

import json
import time
import tracemalloc

from conftest import RESULTS_DIR, run_once

from repro.core.config import GenerationalConfig
from repro.experiments.evaluation import baseline_capacity
from repro.experiments.fleet import (
    FLEET_MIN_SCALE_MULTIPLIER,
    fleet_specs,
    simulate_fleet_cell,
)
from repro.shared import build_process_workloads, make_group, sharing_config_for
from repro.shared.fleet import (
    DEFAULT_QUANTUM,
    FleetSimulator,
    FleetWorkloads,
    ProcessStream,
    stream_segments,
)
from tests.shared.oracle import interleave_logs

#: Deep scale divisor: the process axis is the thing under test, so
#: per-process logs stay ~1k records.
FLEET_BENCH_SCALE = 256.0

#: Per-bench measurements accumulated across tests, flushed to JSON by
#: the final test in this module.
_REPORT: dict[str, dict] = {}


def test_bench_fleet_scaling_cell(benchmark):
    """P=1024 heterogeneous fleet with Zipf library reach and churn."""

    def cell():
        start = time.perf_counter()
        result = simulate_fleet_cell(
            "heterogeneous",
            1024,
            "shared-persistent",
            seed=42,
            scale_multiplier=FLEET_BENCH_SCALE,
            schedule="random",
        )
        return result, time.perf_counter() - start

    result, seconds = run_once(benchmark, cell)
    assert result["processes"] == 1024
    assert result["distinct_workloads"] < 32  # lazy dedup held
    assert result["exited_early"] > 0  # churn exercised
    assert result["dedup_ratio"] > 0
    _REPORT["scaling_cell"] = {
        "processes": 1024,
        "events": result["events"],
        "seconds": round(seconds, 3),
        "events_per_sec": round(result["events"] / seconds),
        "distinct_workloads": result["distinct_workloads"],
        "exited_early": result["exited_early"],
        "dedup_ratio": round(result["dedup_ratio"], 4),
        "miss_rate": round(result["miss_rate"], 5),
    }


def test_bench_interleaver_speedup(benchmark):
    """Streaming scheduler vs the per-record oracle interleaver, P=256.

    Both schedule the identical homogeneous fleet; the fleet scheduler
    yields one segment per turn instead of one object per record, so
    its cost is O(events / quantum).
    """
    processes = 256
    workloads = build_process_workloads(
        ["crafty"] * processes, seed=42, scale_multiplier=FLEET_BENCH_SCALE
    )
    logs = [w.log for w in workloads]
    n_records = sum(len(log.records) for log in logs)

    def reference() -> int:
        return sum(
            1
            for _ in interleave_logs(
                logs, schedule="round-robin", quantum=DEFAULT_QUANTUM
            )
        )

    streams = [ProcessStream(length=len(log.records)) for log in logs]

    def streaming() -> int:
        return sum(
            segment.stop - segment.start
            for segment in stream_segments(
                streams, schedule="round-robin", quantum=DEFAULT_QUANTUM
            )
        )

    start = time.perf_counter()
    assert reference() == n_records
    reference_seconds = time.perf_counter() - start
    start = time.perf_counter()
    total = run_once(benchmark, streaming)
    streaming_seconds = time.perf_counter() - start
    assert total == n_records
    speedup = reference_seconds / streaming_seconds
    _REPORT["interleaver"] = {
        "processes": processes,
        "records": n_records,
        "reference_seconds": round(reference_seconds, 4),
        "streaming_seconds": round(streaming_seconds, 4),
        "reference_records_per_sec": round(n_records / reference_seconds),
        "streaming_records_per_sec": round(n_records / streaming_seconds),
        "speedup": round(speedup, 2),
    }
    assert speedup >= 5.0, f"interleaver speedup regressed: {speedup:.2f}x"


def _peak_bytes(processes: int) -> int:
    """tracemalloc peak of one homogeneous shared-all fleet run."""
    specs = fleet_specs("homogeneous", processes)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        workloads = FleetWorkloads.from_specs(
            specs, seed=42, scale_multiplier=FLEET_MIN_SCALE_MULTIPLIER
        )
        capacities = tuple(
            baseline_capacity(workloads.workload_of(p).total_trace_bytes)
            for p in range(processes)
        )
        group = make_group(
            capacities, GenerationalConfig(), sharing_config_for("shared-all")
        )
        FleetSimulator(group, workloads, seed=42).run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_bench_fleet_memory(benchmark):
    """Peak memory of P=1024 stays within 3x of P=8: processes are
    cursors over one distinct compiled log, not per-process copies."""
    peak_small = _peak_bytes(8)
    peak_large = run_once(benchmark, _peak_bytes, 1024)
    ratio = peak_large / peak_small
    _REPORT["memory"] = {
        "peak_bytes_p8": peak_small,
        "peak_bytes_p1024": peak_large,
        "ratio": round(ratio, 2),
    }
    assert ratio <= 3.0, f"P=1024 peak memory is {ratio:.2f}x P=8"


def test_bench_fleet_report(benchmark):
    """Aggregate the measurements into BENCH_fleet.json.

    Takes the ``benchmark`` fixture (timing a trivial aggregation) so
    ``--benchmark-only`` — what the CI fleet-smoke job runs — still
    writes the report.
    """
    assert set(_REPORT) == {"scaling_cell", "interleaver", "memory"}, (
        "run the full module, not one test"
    )
    report = run_once(
        benchmark,
        lambda: {
            "scale_divisor": FLEET_BENCH_SCALE,
            "memory_scale_divisor": FLEET_MIN_SCALE_MULTIPLIER,
            "quantum": DEFAULT_QUANTUM,
            **_REPORT,
        },
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / "BENCH_fleet.json"
    target.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print()
    print(json.dumps({k: report[k] for k in _REPORT}, sort_keys=True))
