"""The content-addressed workload artifact cache."""

from __future__ import annotations

import json

import pytest

from repro.experiments.dataset import WorkloadDataset
from repro.fastpath import artifacts as artifacts_module
from repro.fastpath.artifacts import (
    ARTIFACT_TOTALS,
    ArtifactCache,
    artifact_key,
    cached_log,
    configure,
    dump_compiled_container,
    load_compiled_container,
)
from repro.fastpath.compiled import compile_log
from repro.tracelog.stats import summarize_log
from repro.workloads.catalog import get_profile
from repro.workloads.synthesis import synthesize_log


@pytest.fixture
def store(tmp_path):
    """Point the process-wide store at a fresh directory."""
    previous = artifacts_module._cache
    cache = configure(tmp_path / "store")
    yield cache
    artifacts_module._cache = previous


@pytest.fixture
def no_store():
    previous = artifacts_module._cache
    configure(None)
    yield
    artifacts_module._cache = previous


def _totals():
    return dict(ARTIFACT_TOTALS)


def _delta(before):
    return {k: ARTIFACT_TOTALS[k] - before[k] for k in before}


# ----------------------------------------------------------------------
# Container codec
# ----------------------------------------------------------------------


def test_container_roundtrip(small_log):
    compiled = compile_log(small_log)
    blob = dump_compiled_container(compiled)
    restored = load_compiled_container(blob)
    assert restored is not None
    assert list(restored.rows()) == list(compiled.rows())
    assert restored.benchmark == compiled.benchmark
    assert restored.duration_seconds == compiled.duration_seconds
    assert restored.code_footprint == compiled.code_footprint


def test_container_rejects_corruption(small_log):
    blob = dump_compiled_container(compile_log(small_log))
    assert load_compiled_container(b"XXXX" + blob[4:]) is None  # bad magic
    corrupt = bytearray(blob)
    corrupt[-1] ^= 0xFF  # payload bit-flip breaks the checksum
    assert load_compiled_container(bytes(corrupt)) is None
    assert load_compiled_container(blob[:-3]) is None  # truncated


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------


def test_keys_separate_parameters():
    gzip, word = get_profile("gzip"), get_profile("word")
    base = artifact_key("compiled-log", gzip, 42, 2.0)
    assert artifact_key("compiled-log", gzip, 42, 2.0) == base
    assert artifact_key("compiled-log", gzip, 43, 2.0) != base
    assert artifact_key("compiled-log", gzip, 42, 4.0) != base
    assert artifact_key("compiled-log", word, 42, 2.0) != base
    assert artifact_key("log-stats", gzip, 42, 2.0) != base


# ----------------------------------------------------------------------
# Store behavior
# ----------------------------------------------------------------------


def test_cold_then_warm_compiled_log(store):
    profile = get_profile("gzip")
    calls = []

    def synthesize():
        calls.append(1)
        return synthesize_log(profile, seed=5, scale=2.0)

    before = _totals()
    cold, log = store.compiled_log(profile, 5, 2.0, synthesize)
    assert log is not None and calls == [1]
    assert _delta(before) == {
        "hits": 0, "misses": 1, "stores": 1, "logs_synthesized": 1,
    }
    before = _totals()
    warm, log2 = store.compiled_log(profile, 5, 2.0, synthesize)
    assert log2 is None and calls == [1]
    assert _delta(before) == {
        "hits": 1, "misses": 0, "stores": 0, "logs_synthesized": 0,
    }
    assert list(warm.rows()) == list(cold.rows())


def test_corrupt_entry_is_rewritten(store):
    profile = get_profile("gzip")
    synthesize = lambda: synthesize_log(profile, seed=5, scale=2.0)
    store.compiled_log(profile, 5, 2.0, synthesize)
    path = store._path(artifact_key("compiled-log", profile, 5, 2.0), ".rac")
    path.write_bytes(b"garbage")
    before = _totals()
    compiled, log = store.compiled_log(profile, 5, 2.0, synthesize)
    assert log is not None  # re-synthesized
    assert _delta(before)["misses"] == 1 and _delta(before)["stores"] == 1
    assert load_compiled_container(path.read_bytes()) is not None


def test_log_stats_roundtrip(store, small_log):
    profile = get_profile("gzip")
    reference = summarize_log(small_log)
    cold = store.log_stats(profile, 7, 1.0, lambda: reference)
    assert cold == reference
    warm = store.log_stats(
        profile, 7, 1.0, lambda: pytest.fail("stats recomputed on warm hit")
    )
    assert warm == reference


def test_cached_log_matches_synthesis(store):
    profile = get_profile("gzip")
    direct = synthesize_log(profile, seed=11, scale=2.0)
    cold = cached_log(profile, 11, 2.0)
    warm = cached_log(profile, 11, 2.0)  # decompiled from the artifact
    assert cold.records == direct.records
    assert warm.records == direct.records


def test_write_failure_degrades_to_miss(tmp_path, small_log):
    target = tmp_path / "not-a-dir"
    target.write_text("file in the way")
    cache = ArtifactCache(target / "store")
    profile = get_profile("gzip")
    compiled, log = cache.compiled_log(
        profile, 1, 1.0, lambda: synthesize_log(profile, seed=1, scale=1.0)
    )
    assert log is not None and len(compiled) > 0  # run still succeeded


# ----------------------------------------------------------------------
# Dataset integration
# ----------------------------------------------------------------------


def test_dataset_warm_run_skips_synthesis(store):
    kwargs = dict(seed=13, scale_multiplier=4.0, subset=["gzip"])
    first = WorkloadDataset(**kwargs)
    cold_compiled = first.compiled("gzip")
    cold_stats = first.stats("gzip")
    before = _totals()
    second = WorkloadDataset(**kwargs)
    warm_compiled = second.compiled("gzip")
    warm_stats = second.stats("gzip")
    warm_log = second.log("gzip")
    delta = _delta(before)
    assert delta["logs_synthesized"] == 0
    assert delta["misses"] == 0
    assert list(warm_compiled.rows()) == list(cold_compiled.rows())
    assert warm_stats == cold_stats
    assert warm_log.records == first.log("gzip").records


def test_dataset_without_store_still_works(no_store):
    dataset = WorkloadDataset(seed=13, scale_multiplier=4.0, subset=["gzip"])
    compiled = dataset.compiled("gzip")
    assert compiled.decompile().records == dataset.log("gzip").records
    assert dataset.stats("gzip").n_traces == compiled.n_traces


def test_stats_json_is_plain(store, small_log):
    profile = get_profile("gzip")
    store.log_stats(profile, 7, 1.0, lambda: summarize_log(small_log))
    path = store._path(artifact_key("log-stats", profile, 7, 1.0), ".json")
    fields = json.loads(path.read_text())
    assert fields["benchmark"] == "tiny"
    assert fields["n_traces"] == 6


def test_quick_evaluation_stores_only_logs_and_stats(store):
    """The quick Figure 9 evaluation writes one compiled log (``.rac``)
    and one log-stats entry (``.json``) per benchmark and nothing else;
    a rerun on the warm store reads everything and writes nothing."""
    from repro.experiments.dataset import quick_subset
    from repro.experiments.runner import run_all

    def evaluate():
        # A coarse scale keeps the cold synthesis cheap; the artifact
        # traffic per benchmark does not depend on it.
        return run_all(
            subset=quick_subset(),
            experiment_ids=("figure-9",),
            scale_multiplier=8.0,
        )

    before = _totals()
    cold = evaluate()
    entries = [path for path in store.root.rglob("*") if path.is_file()]
    suffixes = sorted(path.suffix for path in entries)
    n_benches = len(quick_subset())
    assert suffixes == [".json"] * n_benches + [".rac"] * n_benches
    assert _delta(before)["stores"] == 2 * n_benches

    before = _totals()
    warm = evaluate()
    delta = _delta(before)
    assert delta["stores"] == 0
    assert delta["misses"] == 0
    assert delta["logs_synthesized"] == 0
    assert [result.rows for result in warm] == [result.rows for result in cold]
