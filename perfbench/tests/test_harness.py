"""Percentiles, digest checks, count checks and the child environment."""

from pathlib import Path

from harness import (
    Tally,
    child_env,
    count_drift,
    digest_mismatches,
    tail_percentile,
    text_digest,
)


def test_tail_keeps_ten_samples_beyond():
    tail = tail_percentile(range(1, 101))
    # p95 would leave only 5 samples beyond it; p90 leaves exactly 10.
    assert (tail.percentile, tail.value, tail.samples, tail.beyond) == (90.0, 90, 100, 10)


def test_tail_moves_up_with_more_samples():
    tail = tail_percentile(range(1, 1001))
    assert (tail.percentile, tail.value, tail.samples, tail.beyond) == (99.0, 990, 1000, 10)


def test_tail_of_small_sample_falls_back_to_median_or_none():
    tail = tail_percentile(range(20))
    assert (tail.percentile, tail.samples, tail.beyond) == (50.0, 20, 10)
    assert tail_percentile(range(10)) is None


def test_digest_check_catches_one_byte_change():
    table = "Benchmark  MissPct\ngzip       1.25\n"
    expected = {"figure-9": text_digest(table)}
    assert digest_mismatches({"figure-9": text_digest(table)}, expected) == []
    changed = table.replace("1.25", "1.26")
    assert digest_mismatches({"figure-9": text_digest(changed)}, expected) == ["figure-9"]


def test_digest_check_reports_missing_and_extra_tables():
    assert digest_mismatches({"a": "1"}, {"b": "2"}) == ["a", "b"]


def test_count_drift_ignores_missing_counters():
    reference = {"plans_built": 8, "plans_loaded": 0, "hits": 24}
    assert count_drift({"plans_built": 8, "hits": 24}, reference) == []
    assert count_drift({"plans_built": 9, "hits": 24}, reference) == ["plans_built"]


def test_tally_failed_frac():
    tally = Tally()
    tally.ok()
    tally.fail("fetch-404")
    tally.fail("shed-429")
    tally.ok()
    assert (tally.attempted, tally.failed, tally.failed_frac) == (4, 2, 0.5)
    assert tally.reasons == {"fetch-404": 1, "shed-429": 1}


def test_child_env_removes_repro_switches():
    base = {
        "PATH": "/usr/bin",
        "HOME": "/home/someone",
        "REPRO_ARTIFACT_DIR": "/elsewhere",
        "REPRO_FASTPATH": "batched",
        "REPRO_FASTPATH_VECTOR": "1",
        "REPRO_SCENARIO_DIR": "/x",
        "XDG_CACHE_HOME": "/home/someone/.cache",
    }
    env = child_env(base, Path("checkout/src"), Path("checkout/run"))
    assert not [key for key in env if key.startswith("REPRO_")]
    assert "XDG_CACHE_HOME" not in env
    assert env["PATH"] == "/usr/bin"
    assert env["HOME"] == env["TMPDIR"] == "checkout/run"
    assert env["PYTHONPATH"] == "checkout/src"
    assert base["REPRO_FASTPATH"] == "batched"


def test_layer_map_covers_every_declared_per_layer_metric():
    import json

    root = Path(__file__).resolve().parents[2]
    declared = json.loads((root / "BENCHMARK.json").read_text())
    mapped = json.loads((root / "perfbench" / "layers.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == list(mapped["layers"])
