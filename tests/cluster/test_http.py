"""Cluster HTTP front end tests: JSON API, SSE streams, 429 shedding.

Runs the real asyncio server on a free port with echo/slow workers and
drives it through the hardened ServiceClient.
"""

from __future__ import annotations

import json
import logging
import urllib.error
import urllib.request

import pytest

from repro.cluster.admission import AdmissionController
from repro.cluster.events import EventBus
from repro.cluster.http import ClusterServer
from repro.cluster.shards import ClusterScheduler
from repro.cluster.store_tier import TieredResultStore
from repro.errors import ConfigError, OverloadedError, ServiceError
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec, job_id
from repro.service.store import ResultStore
from tests.cluster.test_shards import slow_worker
from tests.service.test_scheduler import echo_worker

SPEC = JobSpec(kind="experiment", experiment_id="figure-1")


def _spec(n: int) -> JobSpec:
    return JobSpec(kind="experiment", experiment_id="figure-1", seed=n)


@pytest.fixture
def service(tmp_path):
    """A live 2-shard cluster server over a disk store at
    ``tmp_path / "store"``; yields (client, cluster)."""
    store = TieredResultStore(ResultStore(tmp_path / "store"))
    cluster = ClusterScheduler(
        shards=2,
        store=store,
        admission=AdmissionController(watermark=64),
        bus=EventBus(),
        worker_target=echo_worker,
    )
    cluster.start()
    server = ClusterServer(cluster, port=0)
    host, port = server.start()
    client = ServiceClient(f"http://{host}:{port}", tenant="tester")
    try:
        yield client, cluster
    finally:
        client.close()
        server.stop()
        cluster.shutdown()


class TestEndpoints:
    def test_healthz(self, service):
        client, _ = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health["shards"]) == {"shard-0", "shard-1"}
        for shard in health["shards"].values():
            assert shard["workers_alive"] == shard["workers_total"] == 1

    def test_submit_and_result_round_trip(self, service):
        client, _ = service
        status = client.submit(SPEC)
        assert status["job_id"] == job_id(SPEC)
        status = client.wait(status["job_id"], timeout=30)
        assert status["state"] == "done"
        payload = client.result(status["job_id"])
        assert payload["echo"] == "figure-1"

    def test_metrics_exposes_shards_admission_store(self, service):
        client, _ = service
        client.submit_and_wait(SPEC, timeout=30)
        metrics = client.metrics()
        for shard in metrics["shards"].values():
            assert "queue_depth" in shard
            assert shard["ring_state"] == "live"
        assert metrics["admission"]["accepted"] >= 1
        assert "nursery_insertions" in metrics["store"]
        assert metrics["cluster"]["jobs_completed"] >= 1

    def test_metrics_shape(self, service):
        client, _ = service
        client.submit_and_wait(SPEC, timeout=30)
        metrics = client.metrics()
        assert metrics["cluster"]["jobs_completed"] == 1
        for shard in metrics["shards"].values():
            assert shard["workers_total"] == 1
            assert set(shard) >= {
                "queue_depth",
                "cache_hit_rate",
                "worker_utilization",
                "jobs_failed",
            }

    def test_cached_resubmission_after_restart(self, service, tmp_path):
        client, _ = service
        client.submit_and_wait(SPEC, timeout=30)
        # A new cluster over the same disk store, as after a restart:
        # its hot tier is empty, so the hit comes from disk.
        cluster = ClusterScheduler(
            shards=2,
            store=TieredResultStore(ResultStore(tmp_path / "store")),
            bus=EventBus(),
            worker_target=echo_worker,
        )
        cluster.start()
        server = ClusterServer(cluster, port=0)
        host, port = server.start()
        try:
            with ServiceClient(f"http://{host}:{port}") as restarted:
                status = restarted.submit(SPEC)
                assert status["state"] == "done"
                assert status["cached"] is True
                metrics = restarted.metrics()["cluster"]
                assert metrics["cache_hits"] == 1
                assert metrics["jobs_completed"] == 0
        finally:
            server.stop()
            cluster.shutdown()

    def test_invalid_spec_is_400(self, service):
        client, _ = service
        with pytest.raises(ConfigError, match="HTTP 400"):
            client.submit({"kind": "experiment"})

    def test_unknown_field_is_400(self, service):
        client, _ = service
        with pytest.raises(ConfigError, match="HTTP 400"):
            client.submit({**SPEC.to_dict(), "bogus": 1})

    def test_bad_json_body_is_400(self, service):
        client, _ = service
        request = urllib.request.Request(
            client.base_url + "/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read().decode())

    def test_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.status("j" + "0" * 31)
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.result("j" + "0" * 31)

    def test_unfinished_result_is_409(self, tmp_path):
        cluster = ClusterScheduler(shards=1, worker_target=slow_worker)
        cluster.start()
        server = ClusterServer(cluster, port=0)
        host, port = server.start()
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                status = client.submit(SPEC)
                with pytest.raises(ServiceError, match="HTTP 409"):
                    client.result(status["job_id"])
        finally:
            server.stop()
            cluster.shutdown()

    def test_unknown_endpoint_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="HTTP 404"):
            client._request("GET", "/nope")

    def test_connection_reuse_across_requests(self, service):
        client, _ = service
        client.healthz()
        first = client._conn
        client.metrics()
        assert client._conn is first


def blocked_worker(slot: int, tasks, events) -> None:
    """Takes jobs and never finishes them, but still honours the
    shutdown sentinel: once its first job runs, every later one waits
    in the queue however fast the machine is."""
    while tasks.get() is not None:
        pass


class TestOverload:
    def test_shed_is_429_with_retry_after(self, tmp_path):
        cluster = ClusterScheduler(
            shards=1,
            workers_per_shard=1,
            admission=AdmissionController(watermark=1),
            worker_target=blocked_worker,
        )
        cluster.start()
        server = ClusterServer(cluster, port=0)
        host, port = server.start()
        try:
            with ServiceClient(f"http://{host}:{port}", tenant="t") as client:
                sheds = []
                for n in range(12):
                    try:
                        client.submit(_spec(n))
                    except OverloadedError as exc:
                        sheds.append(exc)
                assert sheds, "the deliberate overload never shed"
                assert all(exc.retry_after > 0 for exc in sheds)
                assert all(exc.reason == "queue" for exc in sheds)
                # The raw response carries the Retry-After header too.
                shed = None
                for n in range(50, 100):
                    request = urllib.request.Request(
                        f"http://{host}:{port}/jobs",
                        data=json.dumps(_spec(n).to_dict()).encode(),
                        method="POST",
                        headers={"Content-Type": "application/json"},
                    )
                    try:
                        urllib.request.urlopen(request, timeout=10).read()
                    except urllib.error.HTTPError as exc:
                        shed = exc
                        break
                assert shed is not None, "raw overload burst never shed"
                assert shed.code == 429
                assert int(shed.headers["Retry-After"]) >= 1
                body = json.load(shed)
                assert body["reason"] == "queue"
                assert body["retry_after"] > 0
        finally:
            server.stop()
            cluster.shutdown()


class TestEventStream:
    def test_stream_reaches_terminal_state(self, service):
        client, _ = service
        status = client.submit(SPEC)
        states = [event["state"] for event in client.events(status["job_id"])]
        assert states[-1] == "done"
        # No duplicate terminal events despite the replay/live overlap.
        assert states.count("done") == 1

    def test_subscribe_after_done_replays_terminal_event(self, service):
        client, _ = service
        status = client.submit_and_wait(SPEC, timeout=30)[0]
        events = list(client.events(status["job_id"]))
        assert len(events) == 1
        assert events[0]["state"] == "done"
        assert events[0]["job_id"] == status["job_id"]

    def test_stream_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="HTTP 404"):
            list(client.events("j" + "0" * 31))

    def test_stream_on_evicted_job_yields_terminal_event(self):
        """A job whose terminal record left the shard's retention table
        is still done: its status, event stream and result are answered
        from the tiered store instead of 404."""
        cluster = ClusterScheduler(
            shards=1,
            store=TieredResultStore(),
            bus=EventBus(),
            completed_retention=1,
            worker_target=echo_worker,
        )
        cluster.start()
        server = ClusterServer(cluster, port=0)
        host, port = server.start()
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                evicted = client.submit_and_wait(SPEC, timeout=30)[0]
                client.submit_and_wait(_spec(1), timeout=30)
                events = list(client.events(evicted["job_id"]))
                assert [(e["state"], e["cached"]) for e in events] == [
                    ("done", True)
                ]
                assert client.status(evicted["job_id"])["state"] == "done"
                assert client.result(evicted["job_id"])["echo"] == "figure-1"
        finally:
            server.stop()
            cluster.shutdown()

    def test_live_stream_sees_running_then_done(self, tmp_path):
        cluster = ClusterScheduler(
            shards=1, bus=EventBus(), worker_target=slow_worker
        )
        cluster.start()
        server = ClusterServer(cluster, port=0)
        host, port = server.start()
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                status = client.submit(SPEC)
                seen: list[str] = []
                for event in client.events(status["job_id"]):
                    seen.append(event["state"])
                assert seen[-1] == "done"
                assert seen[0] in ("queued", "running")
        finally:
            server.stop()
            cluster.shutdown()


class TestServerLifecycle:
    def test_double_start_rejected(self, service):
        _, cluster = service
        server = ClusterServer(cluster, port=0)
        server.start()
        try:
            with pytest.raises(ServiceError, match="already started"):
                server.start()
        finally:
            server.stop()

    def test_clean_stop_logs_no_error(self, caplog):
        """Stopping with an idle keep-alive connection and a live event
        stream open ends both quietly: no ERROR record (the asyncio
        loop logs unretrieved task exceptions there)."""
        cluster = ClusterScheduler(
            shards=1, bus=EventBus(), worker_target=blocked_worker
        )
        cluster.start()
        server = ClusterServer(cluster, port=0)
        host, port = server.start()
        client = ServiceClient(f"http://{host}:{port}")
        streamer = ServiceClient(f"http://{host}:{port}")
        try:
            client.healthz()  # leaves one keep-alive connection idle
            status = client.submit(SPEC)
            events = streamer.events(status["job_id"])
            assert next(events)["state"] in ("queued", "running")
            with caplog.at_level(logging.DEBUG):
                server.stop()
            events.close()
            errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
            assert errors == [], [r.getMessage() for r in errors]
        finally:
            client.close()
            streamer.close()
            server.stop()
            cluster.shutdown()

    def test_stop_is_idempotent(self, tmp_path):
        cluster = ClusterScheduler(shards=1, worker_target=echo_worker)
        cluster.start()
        try:
            server = ClusterServer(cluster, port=0)
            server.start()
            server.stop()
            server.stop()
        finally:
            cluster.shutdown()
