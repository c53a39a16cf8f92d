"""Scheduler and worker-pool behaviour tests.

These tests swap the real simulation worker for tiny injectable
targets (echo, sleep, crash) so pool mechanics — dispatch, memoization,
retry, timeout — are exercised in milliseconds.  One end-to-end test at
the bottom runs a real replay job through the real worker.
"""

from __future__ import annotations

import base64
import os
import threading
import time

import pytest

from repro.errors import ConfigError, JobQueueFullError, JobNotFoundError
from repro.service.jobs import JobSpec, job_id
from repro.service.scheduler import (
    DONE,
    FAILED,
    RUNNING,
    Scheduler,
    run_jobs,
)
from repro.service.store import ResultStore, ResultStoreBase
from repro.tracelog.binary import dumps_binary

#: A cheap, always-valid spec for pool-mechanics tests.
SPEC = JobSpec(kind="experiment", experiment_id="figure-1")


def _spec(n: int) -> JobSpec:
    return JobSpec(kind="experiment", experiment_id="figure-1", seed=n)


def echo_worker(slot: int, tasks, events) -> None:
    """Completes every job instantly with an echo payload."""
    while True:
        item = tasks.get()
        if item is None:
            return
        jid, spec = item
        events.put(("done", jid, {"echo": spec["experiment_id"], "slot": slot}))


def sleepy_worker(slot: int, tasks, events) -> None:
    """Accepts jobs and never finishes them."""
    import time

    while True:
        item = tasks.get()
        if item is None:
            return
        time.sleep(600)


def crashy_worker(slot: int, tasks, events) -> None:
    """Dies with exit code 17 on every job."""
    item = tasks.get()
    if item is None:
        return
    os._exit(17)


def rejecting_worker(slot: int, tasks, events) -> None:
    """Fails every job with a (never retried) configuration error."""
    while True:
        item = tasks.get()
        if item is None:
            return
        events.put(("failed", item[0], "ConfigError: rejected"))


def flaky_worker(slot: int, tasks, events) -> None:
    """Crashes until the marker file exists, then echoes."""
    marker = os.environ["REPRO_TEST_FLAKY_MARKER"]
    item = tasks.get()
    if item is None:
        return
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("crashed once")
        os._exit(23)
    jid, spec = item
    events.put(("done", jid, {"echo": spec["experiment_id"]}))


class TestLifecycle:
    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            Scheduler(workers=0)
        with pytest.raises(ConfigError):
            Scheduler(timeout=0)
        with pytest.raises(ConfigError):
            Scheduler(max_retries=-1)
        with pytest.raises(ConfigError):
            Scheduler(queue_size=0)

    def test_submit_before_start_rejected(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            Scheduler(worker_target=echo_worker).submit(SPEC)

    def test_unknown_job_id(self):
        with Scheduler(workers=1, worker_target=echo_worker) as scheduler:
            with pytest.raises(JobNotFoundError):
                scheduler.status("jdeadbeef")


class TestDispatch:
    def test_jobs_complete_in_spec_order(self):
        specs = [_spec(n) for n in range(6)]
        payloads = run_jobs(specs, workers=3, worker_target=echo_worker)
        assert [p["echo"] for p in payloads] == ["figure-1"] * 6

    def test_duplicate_submission_dedups(self):
        with Scheduler(workers=1, worker_target=echo_worker) as scheduler:
            first = scheduler.submit(SPEC)
            second = scheduler.submit(SPEC)
            assert first is second
            scheduler.wait([first.job_id])
            assert scheduler.metrics.submitted == 1

    def test_metrics_shape(self):
        with Scheduler(workers=2, worker_target=echo_worker) as scheduler:
            record = scheduler.submit(SPEC)
            scheduler.wait([record.job_id])
            metrics = scheduler.metrics_dict()
        assert metrics["jobs_completed"] == 1
        assert metrics["workers_total"] == 2
        assert 0.0 <= metrics["worker_utilization"] <= 1.0
        assert set(metrics) >= {
            "queue_depth",
            "cache_hit_rate",
            "jobs_failed",
            "job_timeouts",
            "worker_crashes",
        }

    def test_bounded_admission(self):
        with Scheduler(
            workers=1, queue_size=1, worker_target=sleepy_worker, timeout=60
        ) as scheduler:
            first = scheduler.submit(_spec(0))
            # Wait for the first job to occupy the only worker, then
            # fill the single admission slot.
            deadline = time.monotonic() + 10
            while scheduler.status(first.job_id).state != RUNNING:
                assert time.monotonic() < deadline, "dispatch never happened"
                time.sleep(0.01)
            scheduler.submit(_spec(1))
            with pytest.raises(JobQueueFullError):
                scheduler.submit(_spec(2))


class TestMemoization:
    def test_store_hit_skips_worker(self, tmp_path):
        store = ResultStore(tmp_path)
        payloads = run_jobs(
            [SPEC], workers=1, store=store, worker_target=echo_worker
        )
        assert payloads[0]["echo"] == "figure-1"
        # Second pool: the worker would crash if ever dispatched, so a
        # completed record proves the job was served from the store
        # with zero simulated events.
        with Scheduler(
            workers=1, store=store, worker_target=crashy_worker
        ) as scheduler:
            record = scheduler.submit(SPEC)
            assert record.state == DONE
            assert record.cached
            assert record.payload == payloads[0]
            assert scheduler.metrics.cache_hits == 1

    def test_corrupt_blob_recomputes(self, tmp_path):
        store = ResultStore(tmp_path)
        run_jobs([SPEC], workers=1, store=store, worker_target=echo_worker)
        store.path_for(job_id(SPEC)).write_text("garbage", encoding="utf-8")
        payloads = run_jobs(
            [SPEC], workers=1, store=store, worker_target=echo_worker
        )
        assert payloads[0]["echo"] == "figure-1"


class TestFailureHandling:
    def test_crash_retries_then_fails(self):
        with Scheduler(
            workers=1,
            worker_target=crashy_worker,
            max_retries=1,
            backoff_base=0.01,
        ) as scheduler:
            record = scheduler.submit(SPEC)
            assert scheduler.wait([record.job_id], timeout=30)
            assert record.state == FAILED
            assert record.attempts == 2
            assert "exit code 17" in record.error
            assert scheduler.metrics.worker_crashes >= 2

    def test_crash_then_recovery(self, tmp_path, monkeypatch):
        marker = tmp_path / "crashed-once"
        monkeypatch.setenv("REPRO_TEST_FLAKY_MARKER", str(marker))
        with Scheduler(
            workers=1,
            worker_target=flaky_worker,
            max_retries=2,
            backoff_base=0.01,
        ) as scheduler:
            record = scheduler.submit(SPEC)
            assert scheduler.wait([record.job_id], timeout=30)
            assert record.state == DONE
            assert record.attempts == 2
            assert marker.exists()

    def test_timeout_kills_and_fails(self):
        with Scheduler(
            workers=1,
            worker_target=sleepy_worker,
            timeout=0.3,
            max_retries=0,
        ) as scheduler:
            record = scheduler.submit(SPEC)
            assert scheduler.wait([record.job_id], timeout=30)
            assert record.state == FAILED
            assert "timed out" in record.error
            assert scheduler.metrics.timeouts == 1

    def test_run_jobs_raises_on_failure(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="failed"):
            run_jobs(
                [SPEC],
                workers=1,
                worker_target=crashy_worker,
                max_retries=0,
                backoff_base=0.01,
            )


class TestDrainAndListeners:
    def test_drain_then_submit_is_draining_error(self):
        from repro.errors import DrainingError

        with Scheduler(workers=1, worker_target=echo_worker) as scheduler:
            record = scheduler.submit(SPEC)
            assert scheduler.drain(timeout=30)
            assert not scheduler.accepting
            assert scheduler.status(record.job_id).state == DONE
            with pytest.raises(DrainingError):
                scheduler.submit(_spec(1))

    def test_resume_admission_reopens_submit(self):
        with Scheduler(workers=1, worker_target=echo_worker) as scheduler:
            scheduler.pause_admission()
            scheduler.resume_admission()
            record = scheduler.submit(SPEC)
            assert scheduler.wait([record.job_id], timeout=30)

    def test_listener_sees_terminal_transitions(self):
        seen = []
        with Scheduler(workers=1, worker_target=echo_worker) as scheduler:
            scheduler.add_listener(
                lambda jid, state, cached: seen.append((jid, state, cached))
            )
            record = scheduler.submit(SPEC)
            assert scheduler.drain(timeout=30)
        assert (record.job_id, DONE, False) in seen

    def test_listener_exception_does_not_break_dispatch(self):
        def bad_listener(jid, state, cached):
            raise RuntimeError("listener bug")

        with Scheduler(workers=1, worker_target=echo_worker) as scheduler:
            scheduler.add_listener(bad_listener)
            record = scheduler.submit(SPEC)
            assert scheduler.drain(timeout=30)
            assert scheduler.status(record.job_id).state == DONE


class TestCompletedRetention:
    def test_retention_validation(self):
        with pytest.raises(ConfigError, match="completed_retention"):
            Scheduler(
                workers=1, worker_target=echo_worker, completed_retention=0
            )

    def test_old_terminal_records_are_evicted(self):
        with Scheduler(
            workers=1, worker_target=echo_worker, completed_retention=1
        ) as scheduler:
            records = [scheduler.submit(_spec(n)) for n in range(3)]
            assert scheduler.drain(timeout=30)
            survivors = [
                record
                for record in records
                if _still_known(scheduler, record.job_id)
            ]
            # The bound holds; the newest terminal record survives.
            assert len(survivors) == 1

    def test_evicted_done_job_is_answered_from_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with Scheduler(
            workers=1,
            store=store,
            worker_target=echo_worker,
            completed_retention=1,
        ) as scheduler:
            first = scheduler.submit(_spec(0))
            assert scheduler.wait([first.job_id], timeout=30)
            scheduler.submit(_spec(1))
            assert scheduler.drain(timeout=30)
            status = scheduler.status_dict(first.job_id)
            assert (status["state"], status["cached"]) == (DONE, True)
            assert scheduler.result(first.job_id)["echo"] == "figure-1"
            with pytest.raises(JobNotFoundError):
                scheduler.status(job_id(_spec(2)))

    def test_completion_is_stored_before_it_can_be_evicted(self):
        """A record only turns terminal once its payload is in the
        store, so a second terminal transition that evicts it cannot
        leave status queries with neither a record nor a payload."""
        first, second = _spec(0), _spec(1)
        store = _GatedStore(gated=job_id(first))
        store.blobs[job_id(second)] = {"echo": "figure-1"}
        with Scheduler(
            workers=1,
            store=store,
            worker_target=echo_worker,
            completed_retention=1,
        ) as scheduler:
            scheduler.submit(first)
            try:
                assert store.entered.wait(timeout=30)
                # A store hit is a terminal transition: with retention 1
                # it evicts every older terminal record.
                assert scheduler.submit(second).state == DONE
                assert scheduler.status_dict(job_id(first))["state"] == RUNNING
            finally:
                store.release.set()
            assert scheduler.wait([job_id(first)], timeout=30)
            assert scheduler.result(job_id(first))["echo"] == "figure-1"

    def test_evicted_failed_job_stays_unknown(self, tmp_path):
        with Scheduler(
            workers=1,
            store=ResultStore(tmp_path / "store"),
            worker_target=rejecting_worker,
            completed_retention=1,
        ) as scheduler:
            first = scheduler.submit(_spec(0))
            assert scheduler.wait([first.job_id], timeout=30)
            scheduler.submit(_spec(1))
            assert scheduler.drain(timeout=30)
            with pytest.raises(JobNotFoundError):
                scheduler.status(first.job_id)

    def test_unbounded_by_default(self):
        with Scheduler(workers=1, worker_target=echo_worker) as scheduler:
            records = [scheduler.submit(_spec(n)) for n in range(5)]
            assert scheduler.drain(timeout=30)
            for record in records:
                assert scheduler.status(record.job_id).state == DONE


class _GatedStore(ResultStoreBase):
    """In-memory store whose ``put`` of one id blocks until released."""

    def __init__(self, gated: str) -> None:
        self.blobs: dict[str, dict] = {}
        self.gated = gated
        self.entered = threading.Event()
        self.release = threading.Event()

    def get(self, job_id: str) -> dict | None:
        return self.blobs.get(job_id)

    def put(self, job_id: str, payload: dict) -> None:
        if job_id == self.gated:
            self.entered.set()
            self.release.wait(timeout=30)
        self.blobs[job_id] = payload

    def discard(self, job_id: str) -> None:
        self.blobs.pop(job_id, None)


def _still_known(scheduler: Scheduler, jid: str) -> bool:
    try:
        scheduler.status(jid)
    except JobNotFoundError:
        return False
    return True


class TestRealWorker:
    def test_replay_job_end_to_end(self, small_log):
        """One inline replay through the real simulation worker."""
        spec = JobSpec(
            kind="replay",
            manager="unified",
            capacity=300,
            log_inline=base64.b64encode(dumps_binary(small_log)).decode(),
        )
        payloads = run_jobs([spec], workers=1)
        result = payloads[0]["result"]
        assert result["benchmark"] == "tiny"
        assert result["manager"].startswith("unified")
        assert result["capacity"] == 300
        assert result["misses"] >= 1
        assert 0.0 <= result["miss_rate"] <= 1.0
