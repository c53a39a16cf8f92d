"""Fleet stack: scheduler semantics, lazy workloads, oracle byte-compat."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.experiments.shared import simulate_mix
from repro.shared.compose import LIBRARY_CATALOG, zipf_reaches
from repro.shared.fleet import (
    SCHEDULES,
    FleetWorkloads,
    ProcessStream,
    churn_plan,
    stream_segments,
)
from repro.shared.policy import POLICY_VARIANTS
from tests.shared.oracle import reference_cell
from tests.sim.test_interleave import (
    GOLDEN_SCHEDULE_DIGESTS,
    golden_logs,
    schedule_digest,
)

#: Fast scale for oracle-equivalence replays.
SCALE = 128.0


def expand(streams, **kwargs):
    """Flatten a segment stream into per-record (process, index) pairs."""
    out = []
    for segment in stream_segments(streams, **kwargs):
        for index in range(segment.start, segment.stop):
            out.append((segment.process, index))
    return out


class TestSchedulerGolden:
    """The fleet scheduler must reproduce the frozen oracle schedule
    when churn is off (the P <= 8 anchor)."""

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_matches_reference_digest(self, schedule):
        logs = golden_logs()
        streams = [ProcessStream(length=len(log.records)) for log in logs]

        def scheduled():
            # Recompute (process, global_time) pairs exactly as the
            # oracle interleaver defines them.
            last_time = [0] * len(logs)
            global_time = 0
            for process, index in expand(
                streams, schedule=schedule, seed=9, quantum=5
            ):
                record = logs[process].records[index]
                delta = record.time - last_time[process]
                if delta > 0:
                    global_time += delta
                last_time[process] = record.time
                yield process, global_time

        assert schedule_digest(scheduled()) == GOLDEN_SCHEDULE_DIGESTS[schedule]


class TestSchedulerSemantics:
    def test_every_record_exactly_once_in_order(self):
        streams = [ProcessStream(37), ProcessStream(11), ProcessStream(53)]
        pairs = expand(streams, schedule="round-robin", quantum=4)
        for process, stream in enumerate(streams):
            indices = [i for p, i in pairs if p == process]
            assert indices == list(range(stream.length))

    def test_deterministic(self):
        streams = [ProcessStream(40), ProcessStream(25), ProcessStream(31)]
        a = list(stream_segments(streams, schedule="random", seed=7))
        b = list(stream_segments(streams, schedule="random", seed=7))
        assert a == b

    def test_seed_changes_random_schedule(self):
        streams = [ProcessStream(40), ProcessStream(40)]
        a = list(stream_segments(streams, schedule="random", seed=1))
        b = list(stream_segments(streams, schedule="random", seed=2))
        assert a != b

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_spawn_turn_delays_admission(self, schedule):
        streams = [ProcessStream(50), ProcessStream(50, spawn_turn=6)]
        segments = list(
            stream_segments(streams, schedule=schedule, seed=3, quantum=5)
        )
        assert all(seg.process == 0 for seg in segments[:6])
        assert {seg.process for seg in segments} == {0, 1}

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_limit_truncates_stream(self, schedule):
        streams = [ProcessStream(50, limit=17), ProcessStream(50)]
        pairs = expand(streams, schedule=schedule, seed=3, quantum=5)
        assert [i for p, i in pairs if p == 0] == list(range(17))
        assert [i for p, i in pairs if p == 1] == list(range(50))

    def test_all_spawned_late_fast_forwards(self):
        streams = [ProcessStream(10, spawn_turn=40)]
        pairs = expand(streams, schedule="round-robin", quantum=4)
        assert [i for _, i in pairs] == list(range(10))

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            (dict(schedule="fifo"), "schedule"),
            (dict(quantum=0), "quantum"),
        ],
    )
    def test_bad_arguments_rejected(self, kwargs, match):
        streams = [ProcessStream(5), ProcessStream(5)]
        with pytest.raises(ConfigError, match=match):
            list(stream_segments(streams, **kwargs))

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError, match="stream"):
            list(stream_segments([]))

    def test_negative_stream_fields_rejected(self):
        for bad in (
            ProcessStream(-1),
            ProcessStream(5, spawn_turn=-2),
            ProcessStream(5, limit=-3),
        ):
            with pytest.raises(ConfigError):
                list(stream_segments([bad]))


class TestFleetWorkloads:
    def test_from_specs_dedupes_contents(self):
        reaches = zipf_reaches(32, len(LIBRARY_CATALOG), seed=42)
        palette = ["word", "gzip", "iexplore", "crafty"]
        specs = [(palette[i % 4], reaches[i]) for i in range(32)]
        fleet = FleetWorkloads.from_specs(specs, seed=42, scale_multiplier=SCALE)
        assert fleet.n_processes == 32
        # Distinct contents are bounded by palette x observed reaches,
        # never by the process count.
        assert len(fleet.distinct) <= 4 * len(set(reaches))
        assert len(fleet.distinct) < 32
        # Identical specs share one workload object.
        by_spec = {}
        for process, spec in enumerate(specs):
            workload = fleet.workload_of(process)
            assert by_spec.setdefault(spec, workload) is workload

    def test_reach_zero_is_the_bare_benchmark(self):
        fleet = FleetWorkloads.from_specs(
            [("crafty", 0), ("crafty", 1)], seed=42, scale_multiplier=SCALE
        )
        names = [w.name for w in fleet.distinct]
        assert names[0] == "crafty"
        assert names[1] == "crafty+shlib"

    def test_reach_outside_catalog_rejected(self):
        with pytest.raises(ConfigError, match="reach"):
            FleetWorkloads.from_specs([("crafty", len(LIBRARY_CATALOG) + 1)])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError, match="process"):
            FleetWorkloads.from_specs([])

    def test_zipf_reaches_shape(self):
        reaches = zipf_reaches(200, 4, seed=42)
        assert len(reaches) == 200
        assert all(1 <= r <= 4 for r in reaches)
        counts = [reaches.count(r) for r in (1, 2, 3, 4)]
        assert counts[0] == max(counts)  # rank 1 is the most popular

    def test_zipf_reaches_deterministic(self):
        assert zipf_reaches(50, 4, seed=9) == zipf_reaches(50, 4, seed=9)
        assert zipf_reaches(50, 4, seed=9) != zipf_reaches(50, 4, seed=10)


class TestChurnPlan:
    def test_deterministic(self):
        lengths = [100] * 64
        assert churn_plan(lengths, seed=1) == churn_plan(lengths, seed=1)
        assert churn_plan(lengths, seed=1) != churn_plan(lengths, seed=2)

    def test_zero_fraction_means_no_churn(self):
        streams = churn_plan([100] * 16, seed=1, fraction=0.0)
        assert all(s.spawn_turn == 0 and s.limit is None for s in streams)

    def test_limits_keep_majority_prefix(self):
        for stream in churn_plan([1000] * 64, seed=3):
            if stream.limit is not None:
                assert 500 <= stream.limit <= 900

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError, match="fraction"):
            churn_plan([10], fraction=1.5)


class TestEngineEquivalence:
    """The production cell (fleet engine) must reproduce the per-record
    oracle's cell dicts byte-for-byte on the paper-scale tables."""

    @pytest.mark.parametrize("mix", ["homogeneous", "heterogeneous"])
    @pytest.mark.parametrize("processes", [2, 4, 8])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_cells_identical_across_engines(self, mix, processes, schedule):
        for policy in POLICY_VARIANTS:
            oracle = reference_cell(
                mix,
                processes,
                policy,
                scale_multiplier=SCALE,
                schedule=schedule,
            )
            fleet = simulate_mix(
                mix,
                processes,
                policy,
                scale_multiplier=SCALE,
                schedule=schedule,
            )
            assert oracle == fleet
