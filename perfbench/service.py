"""The service-mix workload: a closed loop of clients against a cluster.

Two client threads each keep one job in flight and hold at most one
connection at a time.  A job is: ``POST /jobs``; unless the reply is
already terminal, follow ``GET /jobs/<id>/events`` to the terminal
event; then ``GET /results/<id>`` and compare the payload with the one
serial ``execute_job`` produced for the same spec.  Any other outcome
(429 shed, a failed job, a transport error, a different payload) is a
failed operation.

Known defect, kept visible: ``GET /jobs/<id>/events`` and ``GET
/results/<id>`` answer 404 once the job's terminal record has left its
shard's ``completed_retention`` table, although the payload is in the
tiered store.  The client counts each such 404 (``retention_404``) and
then does what a client of a content-addressed service can do: submit
the spec again, which the cluster answers from the tiered store, and
fetch once more.  The recovery's time is part of the job's latency; a
job still without its payload after :data:`RECOVERIES` resubmissions
fails.

The population is a fixed set of sweep-point specs, larger than the
shard's retained-record table, so repeats are read back from the tiered
store.  A fixed Zipf-skewed multiset of requests is drawn from it once;
the benchmark seed only orders the multiset and splits it between the
clients, so every seed computes the same specs and replays the same
records.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random
import threading
import time
from dataclasses import asdict, dataclass

from harness import Tally, counter_delta, median, ratio, tail_percentile

#: Benchmarks, layouts and job seeds the population crosses.
BENCHMARKS = ("gzip", "crafty", "eon", "art", "mcf", "word", "iexplore", "solitaire")
LAYOUTS = ((0.1, 0.3, 0.6, 1), (0.1, 0.3, 0.6, 2), (0.2, 0.4, 0.4, 2), (0.3, 0.3, 0.4, 4))
JOB_SEEDS = (11, 12, 13)

#: Scale divisor of every spec: large enough that replay is a visible
#: share of a computed job, small enough that a run completes hundreds.
JOB_SCALE = 32.0

#: Requests in the multiset, and the seed that draws it.
REQUESTS = 360
DRAW_SEED = "perfbench.service-mix"

CLIENTS = 2
WORKERS = 2
#: Terminal records each shard retains.  Smaller than the population,
#: so repeats reach the tiered store; it also exposes the known defect
#: that a fetch after the record left the table answers 404.
RETENTION = 4

TERMINAL = ("done", "failed")
HTTP_TIMEOUT = 60.0
#: Resubmissions a job may make after a retention 404.
RECOVERIES = 3


def population() -> list[dict]:
    """The spec dicts of every job the clients may submit."""
    specs = []
    for seed in JOB_SEEDS:
        for benchmark in BENCHMARKS:
            base = {
                "kind": "sweep-point",
                "benchmark": benchmark,
                "seed": seed,
                "scale_multiplier": JOB_SCALE,
            }
            specs.append({**base, "manager": "unified"})
            for nursery, probation, persistent, threshold in LAYOUTS:
                specs.append(
                    {
                        **base,
                        "manager": "generational",
                        "nursery": nursery,
                        "probation": probation,
                        "persistent": persistent,
                        "threshold": threshold,
                    }
                )
    return specs


def request_multiset(specs: list) -> list:
    """The fixed Zipf-skewed request multiset (weight ``1/(rank+1)``
    over a fixed shuffle of *specs*)."""
    rng = random.Random(DRAW_SEED)
    ranked = list(specs)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=REQUESTS)


def client_plans(requests: list, seed: int) -> list[list]:
    """Order the multiset by *seed* and deal it round-robin to clients."""
    order = list(requests)
    random.Random(seed).shuffle(order)
    return [order[index::CLIENTS] for index in range(CLIENTS)]


# ----------------------------------------------------------------------
# One job over HTTP
# ----------------------------------------------------------------------


@dataclass
class JobResult:
    """Outcome of one job; timings are seconds, None when it failed."""

    failure: str | None = None
    instant: bool = False
    submit: float | None = None
    wait: float | None = None
    fetch: float | None = None
    latency: float | None = None
    retention_404: int = 0


def _call(conn, method: str, path: str, body: bytes | None = None, headers=None):
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    raw = response.read()
    try:
        data = json.loads(raw.decode("utf-8")) if raw else None
    except ValueError:
        data = None
    return response.status, data


def _follow_events(conn, job_id: str) -> tuple[int, str | None]:
    """Read the job's event stream to its terminal event.

    Returns the HTTP status and the terminal state (None if the stream
    ended first).  The server closes a stream connection; so does this.
    """
    try:
        conn.request(
            "GET", f"/jobs/{job_id}/events", headers={"Accept": "text/event-stream"}
        )
        response = conn.getresponse()
        if response.status != 200:
            response.read()
            return response.status, None
        while True:
            line = response.readline()
            if not line:
                return 200, None
            if line.startswith(b"data: "):
                state = json.loads(line[6:].decode("utf-8"))["state"]
                if state in TERMINAL:
                    return 200, state
    finally:
        conn.close()


def _submit(conn, spec: dict, tenant: str):
    return _call(
        conn,
        "POST",
        "/jobs",
        json.dumps(spec).encode("utf-8"),
        {"Content-Type": "application/json", "X-Tenant": tenant},
    )


def _recover(conn, spec: dict, job_id: str, tenant: str, result: JobResult, span):
    """After a retention 404: resubmit the spec (answered from the
    tiered store) and fetch its payload, up to :data:`RECOVERIES` times.

    Returns the failure reason (None on success) and the payload.
    """
    while result.retention_404 <= RECOVERIES:
        with span("service.recover"):
            status, body = _submit(conn, spec, tenant)
            if status != 200:
                return f"resubmit-{status}", None
            if body["state"] != "done":
                return f"resubmit-{body['state']}", None
            status, payload = _call(conn, "GET", f"/results/{job_id}")
        if status != 404:
            return (None if status == 200 else f"fetch-{status}"), payload
        result.retention_404 += 1
    return "fetch-404", None


def run_job(conn, spec: dict, job_id: str, tenant: str, expected, tracer=None) -> JobResult:
    """Submit one job, wait for it, fetch and check its payload."""
    span = tracer.span if tracer is not None else _no_span
    result = JobResult()
    began = time.perf_counter()
    with span("service.job", job_id=job_id):
        with span("service.submit"):
            status, body = _submit(conn, spec, tenant)
        submitted = time.perf_counter()
        result.submit = submitted - began
        if status == 429:
            return _failed(result, "shed-429")
        if status != 200:
            return _failed(result, f"submit-{status}")
        state = body["state"]
        result.instant = state in TERMINAL
        if not result.instant:
            with span("service.wait"):
                status, state = _follow_events(conn, job_id)
            if status == 404:
                # The job ended and left the retention table before
                # its stream was opened.
                result.retention_404 += 1
                state = "done"
            elif status != 200:
                return _failed(result, f"events-{status}")
            result.wait = time.perf_counter() - submitted
        if state != "done":
            return _failed(result, f"job-{state}")
        fetch_began = time.perf_counter()
        failure = payload = None
        if not result.retention_404:
            with span("service.fetch"):
                status, payload = _call(conn, "GET", f"/results/{job_id}")
            if status == 404:
                result.retention_404 += 1
            elif status != 200:
                failure = f"fetch-{status}"
        if result.retention_404:
            failure, payload = _recover(conn, spec, job_id, tenant, result, span)
        finished = time.perf_counter()
        if failure is not None:
            return _failed(result, failure)
        if payload != expected:
            return _failed(result, "payload-mismatch")
        result.fetch = finished - fetch_began
        result.latency = finished - began
    return result


def _failed(result: JobResult, reason: str) -> JobResult:
    result.failure = reason
    return result


@contextlib.contextmanager
def _no_span(name, **attrs):
    yield None


def client_loop(address, tenant: str, plan: list, expected: dict, results: list, gate, tracer=None) -> None:
    """One closed-loop client: its jobs in order, one connection."""
    conn = http.client.HTTPConnection(*address, timeout=HTTP_TIMEOUT)
    gate.wait()
    try:
        for spec, job_id in plan:
            try:
                results.append(run_job(conn, spec, job_id, tenant, expected[job_id], tracer))
            except (OSError, http.client.HTTPException, ValueError) as exc:
                conn.close()
                results.append(JobResult(failure=f"error-{type(exc).__name__}"))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


class ServiceMix:
    """An in-process cluster (1 shard x 2 workers) behind a loopback
    HTTP front end, driven by :data:`CLIENTS` closed-loop clients."""

    def __init__(self, run_dir, payloads: dict, seed: int, tracer=None) -> None:
        self.run_dir = run_dir
        self.payloads = payloads
        self.seed = seed
        self.tracer = tracer
        self.cluster = None
        self.server = None
        self.address = None

    def setup(self) -> None:
        from repro.cluster import AdmissionController, ClusterScheduler, EventBus, TieredResultStore
        from repro.cluster.http import ClusterServer
        from repro.service.store import ResultStore

        self.cluster = ClusterScheduler(
            shards=1,
            workers_per_shard=WORKERS,
            store=TieredResultStore(ResultStore(self.run_dir / "results")),
            admission=AdmissionController(),
            bus=EventBus(),
            completed_retention=RETENTION,
        )
        self.cluster.start()
        self.server = ClusterServer(self.cluster, host="127.0.0.1", port=0)
        self.address = self.server.start()
        self._wait_healthy()

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        conn = http.client.HTTPConnection(*self.address, timeout=HTTP_TIMEOUT)
        deadline = time.monotonic() + timeout
        try:
            while _call(conn, "GET", "/healthz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("cluster did not become healthy")
                time.sleep(0.01)
        finally:
            conn.close()

    def metrics(self) -> dict:
        conn = http.client.HTTPConnection(*self.address, timeout=HTTP_TIMEOUT)
        try:
            return _call(conn, "GET", "/metrics")[1]
        finally:
            conn.close()

    def compute_ms(self, job_ids) -> float:
        """Median ms of serial ``execute_job`` over *job_ids* (set-up of
        a traced run: the reference for ``service.wait_ms``)."""
        from repro.service.jobs import spec_from_dict
        from repro.service.workers import execute_job

        times = []
        for job_id in sorted(job_ids):
            spec = spec_from_dict(self.payloads[job_id]["spec"])
            began = time.perf_counter()
            execute_job(spec)
            times.append(time.perf_counter() - began)
        return median(times) * 1000.0

    def plans(self) -> list[list]:
        """Each client's ``(spec, job id)`` sequence for this seed."""
        from repro.service.jobs import job_id, spec_from_dict

        return [
            [(spec, job_id(spec_from_dict(spec))) for spec in plan]
            for plan in client_plans(request_multiset(population()), self.seed)
        ]

    def run(self, plans: list[list]) -> dict:
        """The timed phase: every client's plan to completion."""
        expected = {job_id: entry["payload"] for job_id, entry in self.payloads.items()}
        before = self.metrics()
        gate = threading.Event()
        outcomes: list[list[JobResult]] = [[] for _ in plans]
        threads = [
            threading.Thread(
                target=client_loop,
                args=(self.address, f"client-{index}", plan, expected, outcomes[index], gate, self.tracer),
                name=f"perfbench-client-{index}",
            )
            for index, plan in enumerate(plans)
        ]
        for thread in threads:
            thread.start()
        began = time.perf_counter()
        gate.set()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - began
        after = self.metrics()
        return {
            "wall_s": wall,
            "jobs": [asdict(result) for outcome in outcomes for result in outcome],
            "store": counter_delta(before.get("store"), after.get("store")),
            "admission": counter_delta(before.get("admission"), after.get("admission")),
            "fastpath": _shard_fastpath(before, after),
        }

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
        if self.cluster is not None:
            self.cluster.shutdown()


def job_tally(jobs: list[dict]) -> Tally:
    """Attempted and failed jobs, by reason."""
    counts = Tally()
    for job in jobs:
        if job["failure"] is None:
            counts.ok()
        else:
            counts.fail(job["failure"])
    return counts


def _ms(jobs: list[dict], key: str) -> list[float]:
    return [job[key] * 1000.0 for job in jobs if job[key] is not None]


def service_e2e(jobs: list[dict], wall: float) -> dict:
    """Job latency (median and tail, ms) and verified jobs per second."""
    latency = _ms(jobs, "latency")
    tail = tail_percentile(latency)
    return {
        "job_latency_p50_ms": median(latency) if latency else None,
        "job_latency_tail": tail,
        "jobs_per_s": len(latency) / wall,
        "retention_404": sum(job["retention_404"] for job in jobs),
    }


def service_layers(jobs: list[dict], store: dict, admission: dict) -> dict:
    """Per-layer figures of the job path and the cluster's store tier."""
    waits = _ms(jobs, "wait")
    wait_tail = tail_percentile(waits)
    done = [job for job in jobs if job["failure"] is None]
    layers = {
        "service.submit_ms": median(_ms(done, "submit")) if done else 0.0,
        "service.wait_ms.p50": median(waits) if waits else 0.0,
        "service.wait_ms.tail": wait_tail.value if wait_tail else 0.0,
        "service.fetch_ms": median(_ms(done, "fetch")) if done else 0.0,
        "service.instant_share": ratio(sum(job["instant"] for job in jobs), len(jobs)),
        "service.retention_404": sum(job["retention_404"] for job in jobs),
    }
    if "shed" in admission:
        layers["cluster.admission.shed"] = admission["shed"]
    if "hot_hits" in store and "nursery_misses" in store:
        layers["cluster.store_tier.hot_hit_rate"] = ratio(
            store["hot_hits"], store["hot_hits"] + store["nursery_misses"]
        )
    for key, name in (("nursery_insertions", "insertions"), ("promotions", "promotions")):
        if key in store:
            layers[f"cluster.store_tier.{name}"] = store[key]
    return layers


def _shard_fastpath(before: dict, after: dict) -> dict:
    """Worker-side replay counter deltas, summed over shards."""
    totals: dict = {}
    for name, shard in after.get("shards", {}).items():
        old = before.get("shards", {}).get(name, {})
        for key, value in counter_delta(old.get("fastpath", {}), shard.get("fastpath")).items():
            totals[key] = totals.get(key, 0) + value
    return totals
