"""Synthetic service load generator (``repro-gencache loadgen``).

Drives a cluster (in-process or over the network) with many concurrent
synthetic clients issuing a *mixed, skewed* spec population — small
sweep-point jobs across the quick benchmark subset, both cache
managers, several layouts and seeds — and reports what a service
operator would ask of it:

* **throughput** — accepted submissions per second of wall clock;
* **latency** — p50/p95/p99/max of the submit round-trip (cache hits
  complete inline, so the hot tier shows up directly here);
* **shed rate** — fraction of submissions the admission layer turned
  into 429s, by reason;
* **hot-tier hit rate** — the generational store's nursery+probation
  hit fraction, straight from ``/metrics``.

The population is drawn with a Zipf-like skew (weight ``1/(rank+1)``)
from a deterministic seed, so repeated ranks exercise the nursery →
probation promotion path exactly the way repeated trace execution
exercises the paper's cache generations.  Every client thread owns its
own hardened :class:`~repro.service.client.ServiceClient` (connection
reuse; a client instance is not thread-safe) and its own derived RNG,
so a run is reproducible for a fixed (seed, clients, requests) triple
up to scheduling noise in the latency numbers.

Results land in ``BENCH_service.json`` plus a human-readable
``BENCH_service.txt`` table.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

from repro.errors import ConfigError, OverloadedError, ServiceError
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec

#: Benchmarks the population mixes over (the --quick subset: cheap,
#: diverse, always present in the catalog).
POPULATION_BENCHMARKS = (
    "gzip",
    "crafty",
    "eon",
    "art",
    "mcf",
    "word",
    "iexplore",
    "solitaire",
)

#: Generational layouts the population cycles through.
POPULATION_LAYOUTS = (
    (0.1, 0.3, 0.6, 1),
    (0.1, 0.3, 0.6, 2),
    (0.2, 0.4, 0.4, 2),
    (0.3, 0.3, 0.4, 4),
)

#: Scale divisor making each job a few milliseconds of simulation.
DEFAULT_SCALE = 512.0

#: JSON/text report basenames.
BENCH_JSON = "BENCH_service.json"
BENCH_TEXT = "BENCH_service.txt"


def build_population(
    size: int, seed: int = 42, scale: float = DEFAULT_SCALE
) -> list[JobSpec]:
    """A deterministic mixed population of *size* cheap specs.

    Cycles benchmarks × (unified + generational layouts) × seeds, so
    any prefix is already benchmark- and manager-diverse.
    """
    if size < 1:
        raise ConfigError(f"population size must be >= 1, got {size}")
    specs: list[JobSpec] = []
    round_index = 0
    while len(specs) < size:
        for benchmark in POPULATION_BENCHMARKS:
            job_seed = seed + round_index
            specs.append(
                JobSpec(
                    kind="sweep-point",
                    benchmark=benchmark,
                    seed=job_seed,
                    scale_multiplier=scale,
                    manager="unified",
                )
            )
            for nursery, probation, persistent, threshold in POPULATION_LAYOUTS:
                specs.append(
                    JobSpec(
                        kind="sweep-point",
                        benchmark=benchmark,
                        seed=job_seed,
                        scale_multiplier=scale,
                        manager="generational",
                        nursery=nursery,
                        probation=probation,
                        persistent=persistent,
                        threshold=threshold,
                    )
                )
        round_index += 1
    return specs[:size]


class _ClientStats:
    """One synthetic client's tally."""

    __slots__ = ("latencies", "accepted", "shed", "errors", "error_samples")

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.accepted = 0
        self.shed = 0
        self.errors = 0
        self.error_samples: list[str] = []


def _client_loop(
    base_url: str,
    tenant: str,
    population: list[JobSpec],
    requests: int,
    rng: random.Random,
    stats: _ClientStats,
    start_gate: threading.Event,
) -> None:
    weights = [1.0 / (rank + 1) for rank in range(len(population))]
    with ServiceClient(base_url, tenant=tenant) as client:
        start_gate.wait()
        for _ in range(requests):
            spec = rng.choices(population, weights=weights, k=1)[0]
            began = time.perf_counter()
            try:
                client.submit(spec)
            except OverloadedError as exc:
                stats.shed += 1
                # Honor the hint, but never stall the generator: the
                # point of shedding is that the client comes back.
                time.sleep(min(exc.retry_after, 0.02))
            except ServiceError as exc:
                stats.errors += 1
                if len(stats.error_samples) < 3:
                    stats.error_samples.append(str(exc))
            else:
                stats.accepted += 1
                stats.latencies.append(time.perf_counter() - began)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = round(q * (len(sorted_values) - 1))
    return sorted_values[int(rank)]


def run_load(
    base_url: str,
    clients: int = 100,
    requests: int = 20,
    population: list[JobSpec] | None = None,
    tenants: int = 4,
    seed: int = 42,
    wait_timeout: float = 120.0,
    rounds: int = 1,
) -> dict:
    """Run the load phase against a live server; returns the bench doc.

    Args:
        base_url: Server to drive (``serve`` or ``cluster-serve``).
        clients: Concurrent synthetic client threads.
        requests: Submissions per client.
        population: Spec population (default: :func:`build_population`
            of ``4 * clients`` capped at 64).
        tenants: Distinct ``X-Tenant`` names cycled across clients.
        seed: Master seed for population draw order.
        wait_timeout: How long to wait for accepted jobs to finish
            before snapshotting ``/metrics`` (and between rounds).
        rounds: Identical load bursts separated by a drain.  Each round
            replays the same per-client draw sequence, so round *n+1*
            resubmits exactly what round *n* completed — jobs evicted
            from shard tables in between must resolve through the
            tiered store, which is what moves the hot-tier counters.
    """
    if clients < 1:
        raise ConfigError(f"client count must be >= 1, got {clients}")
    if requests < 1:
        raise ConfigError(f"requests per client must be >= 1, got {requests}")
    if rounds < 1:
        raise ConfigError(f"round count must be >= 1, got {rounds}")
    if population is None:
        population = build_population(min(4 * clients, 64), seed=seed)
    probe = ServiceClient(base_url)
    stats = [_ClientStats() for _ in range(clients)]
    elapsed = 0.0
    for _round in range(rounds):
        start_gate = threading.Event()
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(
                    base_url,
                    f"tenant-{index % tenants}",
                    population,
                    requests,
                    random.Random(seed * 1_000_003 + index),
                    stats[index],
                    start_gate,
                ),
                name=f"repro-loadgen-{index}",
                daemon=True,
            )
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        began = time.perf_counter()
        start_gate.set()
        for thread in threads:
            thread.join()
        elapsed += time.perf_counter() - began
        _wait_for_drain(probe, timeout=wait_timeout)
    metrics = probe.metrics()
    probe.close()

    latencies = sorted(
        latency for stat in stats for latency in stat.latencies
    )
    accepted = sum(stat.accepted for stat in stats)
    shed = sum(stat.shed for stat in stats)
    errors = sum(stat.errors for stat in stats)
    total = accepted + shed + errors
    error_samples = [
        sample for stat in stats for sample in stat.error_samples
    ][:5]
    document = {
        "config": {
            "base_url": base_url,
            "clients": clients,
            "requests_per_client": requests,
            "population_size": len(population),
            "tenants": tenants,
            "seed": seed,
            "rounds": rounds,
        },
        "elapsed_seconds": round(elapsed, 3),
        "throughput_rps": round(accepted / elapsed, 2) if elapsed else 0.0,
        "requests": {
            "total": total,
            "accepted": accepted,
            "shed": shed,
            "errors": errors,
            "error_samples": error_samples,
        },
        "shed_rate": round(shed / total, 4) if total else 0.0,
        "latency_ms": {
            "p50": round(percentile(latencies, 0.50) * 1000, 3),
            "p95": round(percentile(latencies, 0.95) * 1000, 3),
            "p99": round(percentile(latencies, 0.99) * 1000, 3),
            "max": round(latencies[-1] * 1000, 3) if latencies else 0.0,
            "mean": round(
                sum(latencies) / len(latencies) * 1000, 3
            ) if latencies else 0.0,
        },
    }
    store = metrics.get("store")
    if store:
        document["hot_tier"] = {
            "hit_rate": round(store["hot_hit_rate"], 4),
            "hits": store["hot_hits"],
            "promotions": store["promotions"],
            "nursery_evictions": store["nursery_evictions"],
            "probation_evictions": store["probation_evictions"],
        }
    if "admission" in metrics:
        document["admission"] = metrics["admission"]
    if "cluster" in metrics:
        document["cluster"] = metrics["cluster"]
    return document


def _wait_for_drain(
    probe: ServiceClient, timeout: float, poll: float = 0.1
) -> None:
    """Wait until no shard has queued or running jobs (accepted work
    must finish before counters are snapshotted)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        metrics = probe.metrics()
        shards = metrics.get("shards")
        views = list(shards.values()) if shards else [metrics]
        if all(
            view["queue_depth"] == 0 and view["jobs_running"] == 0
            for view in views
        ):
            return
        time.sleep(poll)
    raise ServiceError(
        f"cluster did not drain within {timeout:g}s after the load phase "
        "(an accepted job was dropped or wedged)"
    )


def render_bench(document: dict) -> str:
    """The human-readable table for ``BENCH_service.txt``."""
    config = document["config"]
    requests = document["requests"]
    latency = document["latency_ms"]
    lines = [
        "service load benchmark",
        "======================",
        f"clients              {config['clients']}",
        f"requests/client      {config['requests_per_client']}",
        f"population           {config['population_size']} specs",
        f"elapsed              {document['elapsed_seconds']:.3f} s",
        f"throughput           {document['throughput_rps']:.2f} accepted/s",
        f"latency p50          {latency['p50']:.3f} ms",
        f"latency p95          {latency['p95']:.3f} ms",
        f"latency p99          {latency['p99']:.3f} ms",
        f"latency max          {latency['max']:.3f} ms",
        f"accepted             {requests['accepted']}",
        f"shed (429)           {requests['shed']}",
        f"errors               {requests['errors']}",
        f"shed rate            {document['shed_rate'] * 100:.2f}%",
    ]
    hot = document.get("hot_tier")
    if hot:
        lines += [
            f"hot-tier hit rate    {hot['hit_rate'] * 100:.2f}%",
            f"hot-tier promotions  {hot['promotions']}",
        ]
    return "\n".join(lines) + "\n"


def run_inprocess(
    shards: int = 3,
    workers_per_shard: int = 1,
    store_dir: str | None = None,
    watermark: int = 64,
    rate: float | None = None,
    retention: int = 4,
    clients: int = 100,
    requests: int = 20,
    population_size: int = 64,
    tenants: int = 4,
    seed: int = 42,
    scale: float = DEFAULT_SCALE,
    job_timeout: float = 120.0,
    rounds: int = 2,
) -> dict:
    """Spin up a full cluster in-process, load it, and tear it down.

    The small default *retention* deliberately forces shard job tables
    to forget old completions, so repeated population draws resolve
    through the tiered store and the hot-tier generational counters
    actually move (exactly the reuse pattern the paper's generations
    exploit).
    """
    # Imported here, not at module top: driving a *remote* server with
    # this module must not require the server-side machinery.
    from repro.cluster.admission import AdmissionController
    from repro.cluster.events import EventBus
    from repro.cluster.http import ClusterServer
    from repro.cluster.shards import ClusterScheduler
    from repro.cluster.store_tier import TieredResultStore
    from repro.service.store import ResultStore

    disk = ResultStore(store_dir) if store_dir else None
    store = TieredResultStore(disk)
    cluster = ClusterScheduler(
        shards=shards,
        workers_per_shard=workers_per_shard,
        store=store,
        admission=AdmissionController(watermark=watermark, rate=rate),
        bus=EventBus(),
        completed_retention=retention,
        timeout=job_timeout,
    )
    cluster.start()
    server = ClusterServer(cluster, port=0)
    host, port = server.start()
    try:
        document = run_load(
            f"http://{host}:{port}",
            clients=clients,
            requests=requests,
            population=build_population(population_size, seed=seed, scale=scale),
            tenants=tenants,
            seed=seed,
            rounds=rounds,
        )
        document["config"]["shards"] = shards
        document["config"]["workers_per_shard"] = workers_per_shard
        document["config"]["watermark"] = watermark
        document["config"]["retention"] = retention
        return document
    finally:
        server.stop()
        cluster.shutdown()


def write_bench(document: dict, out_dir: str) -> tuple[str, str]:
    """Write the JSON + text reports; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, BENCH_JSON)
    text_path = os.path.join(out_dir, BENCH_TEXT)
    with open(json_path, "w", encoding="utf-8") as stream:
        stream.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    with open(text_path, "w", encoding="utf-8") as stream:
        stream.write(render_bench(document))
    return json_path, text_path
