"""Job scheduler and multiprocessing worker pool.

The :class:`Scheduler` fans :class:`~repro.service.jobs.JobSpec`s out
over a pool of worker *processes* (simulation is CPU-bound, so threads
would serialize on the GIL) while keeping all bookkeeping in the parent:

* **Bounded admission.** Pending jobs wait in a bounded queue;
  overflowing it raises :class:`~repro.errors.JobQueueFullError`
  (surfaced as HTTP 503) instead of growing without limit.
* **Kill-safe queues.** Every worker owns a private task queue and a
  private event queue.  Killing a timed-out worker can therefore never
  corrupt a queue that other workers share — its queues are discarded
  and rebuilt along with the process.
* **Timeouts and retry-with-backoff.** A monitor thread kills workers
  whose job exceeds the per-job timeout and respawns workers that
  crashed; the victim job is requeued with exponential backoff until
  its retry budget is exhausted, then marked failed.
* **Memoization.** When a :class:`~repro.service.store.ResultStore` is
  attached, submissions whose content-addressed id already has a blob
  complete instantly (``cached=True``) without touching a worker.
* **Graceful shutdown.** ``shutdown()`` (or leaving the context
  manager) sends each worker a sentinel, waits briefly, and terminates
  stragglers.
"""

from __future__ import annotations

import collections
import multiprocessing
import queue as queue_module
import threading
import time
from dataclasses import dataclass

from repro.errors import (
    ConfigError,
    DrainingError,
    JobNotFoundError,
    JobQueueFullError,
    ServiceError,
)
from repro.fastpath import FASTPATH_TOTALS
from repro.service import workers as workers_module
from repro.service.jobs import JobSpec, job_id as compute_job_id
from repro.service.store import ResultStoreBase

#: Per-job wall-clock budget; full-scale figure jobs run minutes.
DEFAULT_TIMEOUT = 900.0
#: Extra attempts after the first before a job is marked failed.
DEFAULT_RETRIES = 2
#: First retry delay; doubles per attempt.
DEFAULT_BACKOFF = 0.5
#: Bounded admission: queued-but-unassigned jobs beyond this fail fast.
DEFAULT_QUEUE_SIZE = 1024

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: States in which a job will make no further progress.
TERMINAL_STATES = (DONE, FAILED)


@dataclass
class JobRecord:
    """The scheduler's view of one submitted job."""

    job_id: str
    spec: JobSpec
    state: str = QUEUED
    cached: bool = False
    attempts: int = 0
    error: str | None = None
    worker: int | None = None
    payload: dict | None = None
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None

    def to_dict(self) -> dict:
        """Public JSON form (what ``GET /jobs/<id>`` returns)."""
        runtime = None
        if self.started_at is not None:
            end = self.finished_at
            if end is None:
                end = time.monotonic()
            runtime = round(end - self.started_at, 3)
        return {
            "job_id": self.job_id,
            "kind": self.spec.kind,
            "state": self.state,
            "cached": self.cached,
            "attempts": self.attempts,
            "error": self.error,
            "runtime_seconds": runtime,
        }


@dataclass
class SchedulerMetrics:
    """Monotonic counters the ``/metrics`` endpoint exposes."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    retried: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    cache_hits: int = 0
    store_errors: int = 0


@dataclass
class _WorkerSlot:
    """One pool slot: a process plus its private queues."""

    process: multiprocessing.process.BaseProcess
    tasks: object
    events: object
    job_id: str | None = None


class Scheduler:
    """Concurrent simulation-job scheduler.

    Args:
        workers: Worker process count.
        store: Optional result store for memoization; completed
            payloads are written through to it.
        timeout: Per-job wall-clock limit in seconds.
        max_retries: Extra attempts after a crash/timeout.
        backoff_base: First retry delay (doubles per attempt).
        queue_size: Bounded-admission limit for waiting jobs.
        completed_retention: Keep at most this many terminal job
            records in memory; older ones are evicted from the job
            table (their payloads live in the store, which then answers
            status and result queries and resubmissions).  None (the
            default) retains everything — the long-running cluster
            shards set a bound so the job table cannot grow without
            limit.
        mp_context: ``multiprocessing`` start method; defaults to fork
            where available (fast) and spawn elsewhere.
        worker_target: Worker entry point, injectable for tests.
    """

    def __init__(
        self,
        workers: int = 2,
        store: ResultStoreBase | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        max_retries: int = DEFAULT_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        completed_retention: int | None = None,
        mp_context: str | None = None,
        worker_target=None,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"worker count must be >= 1, got {workers}")
        if timeout <= 0:
            raise ConfigError(f"job timeout must be > 0, got {timeout}")
        if max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {max_retries}")
        if queue_size < 1:
            raise ConfigError(f"queue size must be >= 1, got {queue_size}")
        if completed_retention is not None and completed_retention < 1:
            raise ConfigError(
                f"completed_retention must be >= 1, got {completed_retention}"
            )
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self.n_workers = workers
        self.store = store
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.queue_size = queue_size
        self.completed_retention = completed_retention
        self.metrics = SchedulerMetrics()
        self._ctx = multiprocessing.get_context(mp_context)
        self._worker_target = worker_target or workers_module.worker_main
        self._slots: list[_WorkerSlot] = []
        self._jobs: dict[str, JobRecord] = {}
        self._pending: collections.deque[str] = collections.deque()
        self._retry_at: dict[str, float] = {}
        # Fast-path replay counters aggregated across every completed
        # job's worker-side delta (the "fastpath" block of /metrics).
        self._fastpath_totals = {key: 0 for key in FASTPATH_TOTALS}
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._started = False
        self._accepting = True
        # Terminal-transition listeners (the cluster's event bridge):
        # transitions queue under the lock and are delivered outside it.
        self._listeners: list = []
        self._notifications: collections.deque[tuple[str, str, bool]] = (
            collections.deque()
        )
        # Terminal records in completion order, for bounded retention.
        self._terminal_order: collections.deque[str] = collections.deque()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "Scheduler":
        """Spawn the worker pool and bookkeeping threads."""
        if self._started:
            return self
        self._started = True
        for slot_index in range(self.n_workers):
            self._slots.append(self._spawn_slot(slot_index))
        for name, target in (
            ("repro-service-collector", self._collector_loop),
            ("repro-service-monitor", self._monitor_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self, grace: float = 5.0) -> None:
        """Stop threads, drain workers with sentinels, kill stragglers."""
        if not self._started or self._stop.is_set():
            self._stop.set()
            return
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=grace)
        for slot in self._slots:
            try:
                slot.tasks.put_nowait(None)
            except queue_module.Full:
                pass  # worker is wedged; terminated below
        deadline = time.monotonic() + grace
        for slot in self._slots:
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1.0)

    def drain(self, timeout: float | None = None, poll: float = 0.05) -> bool:
        """Stop admitting new jobs and wait for in-flight ones.

        After this returns (True when everything reached a terminal
        state before *timeout*), :meth:`submit` raises
        :class:`~repro.errors.DrainingError`; the pool itself keeps
        running so completed results stay queryable until
        :meth:`shutdown`.  Graceful shutdown (``serve`` under SIGTERM)
        and cluster shard drains both go through here.
        """
        self.pause_admission()
        drained = self.wait(timeout=timeout, poll=poll)
        self._flush_notifications()
        return drained

    def pause_admission(self) -> None:
        """Make :meth:`submit` raise DrainingError until resumed."""
        with self._lock:
            self._accepting = False

    def resume_admission(self) -> None:
        """Re-open :meth:`submit` after a drain (shard restore)."""
        with self._lock:
            self._accepting = True

    @property
    def accepting(self) -> bool:
        """Whether :meth:`submit` currently admits new jobs."""
        with self._lock:
            return self._accepting

    def add_listener(self, listener) -> None:
        """Register ``listener(job_id, state, cached)`` for terminal
        transitions (DONE/FAILED, including instant store hits).

        Listeners run on the scheduler's own bookkeeping threads (or
        the submitting thread for cache hits), always *outside* the
        scheduler lock, so they may call back into ``status``/
        ``result`` freely but must be quick and must not raise.
        """
        with self._lock:
            self._listeners.append(listener)

    def _queue_notify(self, record: JobRecord) -> None:
        """Queue a terminal transition for delivery.  Caller holds the
        lock; delivery happens later via :meth:`_flush_notifications`."""
        if self._listeners:
            self._notifications.append(
                (record.job_id, record.state, record.cached)
            )

    def _note_terminal(self, record: JobRecord) -> None:
        """Bookkeeping for a record entering a terminal state: queue
        listener delivery, then enforce the completed-record retention
        bound.  Caller holds the lock."""
        self._queue_notify(record)
        if self.completed_retention is None:
            return
        self._terminal_order.append(record.job_id)
        while len(self._terminal_order) > self.completed_retention:
            jid = self._terminal_order.popleft()
            old = self._jobs.get(jid)
            # A content-identical resubmission of a failed job replaces
            # its record with a live one; never evict those.
            if old is not None and old.state in TERMINAL_STATES:
                del self._jobs[jid]

    def _flush_notifications(self) -> None:
        """Deliver queued terminal transitions outside the lock."""
        while True:
            with self._lock:
                if not self._notifications:
                    return
                job_id, state, cached = self._notifications.popleft()
                listeners = list(self._listeners)
            for listener in listeners:
                try:
                    listener(job_id, state, cached)
                except Exception:  # noqa: BLE001 — a listener bug must
                    # not take down dispatch; the transition is still
                    # visible through status().
                    continue

    def __enter__(self) -> "Scheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _spawn_slot(self, slot_index: int) -> _WorkerSlot:
        tasks = self._ctx.Queue(2)
        events = self._ctx.Queue()
        process = self._ctx.Process(
            target=self._worker_target,
            args=(slot_index, tasks, events),
            name=f"repro-worker-{slot_index}",
            daemon=True,
        )
        process.start()
        return _WorkerSlot(process=process, tasks=tasks, events=events)

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit one job; returns its (possibly pre-existing) record.

        Identical in-flight or completed submissions deduplicate onto
        the same record; a store hit completes the job immediately with
        ``cached=True`` and zero simulated events.

        Raises:
            ConfigError: for an invalid spec.
            DrainingError: when the scheduler is draining.
            JobQueueFullError: when the admission queue is full.
        """
        if not self._started:
            raise ServiceError("scheduler is not started")
        spec.validate()
        jid = compute_job_id(spec)
        hit = False
        with self._lock:
            if not self._accepting:
                raise DrainingError(
                    "scheduler is draining; not accepting new jobs"
                )
            existing = self._jobs.get(jid)
            if existing is not None and existing.state != FAILED:
                return existing
            now = time.monotonic()
            self.metrics.submitted += 1
            if self.store is not None:
                payload = self.store.get(jid)
                if payload is not None:
                    self.metrics.cache_hits += 1
                    record = JobRecord(
                        job_id=jid,
                        spec=spec,
                        state=DONE,
                        cached=True,
                        payload=payload,
                        submitted_at=now,
                        finished_at=now,
                    )
                    self._jobs[jid] = record
                    self._note_terminal(record)
                    hit = True
            if not hit:
                if len(self._pending) >= self.queue_size:
                    self.metrics.submitted -= 1
                    raise JobQueueFullError(
                        f"admission queue is full ({self.queue_size} jobs "
                        "waiting)"
                    )
                record = JobRecord(job_id=jid, spec=spec, submitted_at=now)
                self._jobs[jid] = record
                self._pending.append(jid)
        if hit:
            self._flush_notifications()
        return record

    def status(self, job_id: str) -> JobRecord:
        """The record for *job_id*.

        A terminal record that ``completed_retention`` evicted is
        answered from the store: a stored payload means the job is done
        (``cached=True``, ``kind`` read from the payload).  The store
        only holds successful payloads, so an evicted failed job is as
        unknown as a never-submitted id.  The store read may touch the
        disk; it happens outside the lock.

        Raises:
            JobNotFoundError: for an unknown id.
        """
        with self._lock:
            record = self._jobs.get(job_id)
        if record is not None:
            return record
        payload = self.store.get(job_id) if self.store is not None else None
        if payload is None:
            raise JobNotFoundError(f"unknown job id {job_id!r}")
        return JobRecord(
            job_id=job_id,
            spec=JobSpec(kind=payload.get("kind")),
            state=DONE,
            cached=True,
            payload=payload,
        )

    def status_dict(self, job_id: str) -> dict:
        """JSON status for *job_id*, snapshotted under the lock so the
        HTTP threads never see a record mid-update.

        Raises:
            JobNotFoundError: for an unknown id.
        """
        return self.record_dict(self.status(job_id))

    def record_dict(self, record: JobRecord) -> dict:
        """JSON snapshot of *record* under the lock.

        Unlike :meth:`status_dict` this needs no table lookup, so it
        stays valid for a record that ``completed_retention`` has
        already evicted (a submit response races its own eviction when
        retention is tiny and jobs are fast).
        """
        with self._lock:
            return record.to_dict()

    def result(self, job_id: str) -> dict:
        """The completed payload for *job_id*.

        Like :meth:`status`, falls back to the store for an evicted id.

        Raises:
            JobNotFoundError: unknown id.
            ServiceError: job not (successfully) finished.
        """
        record = self.status(job_id)
        with self._lock:
            state = record.state
            error = record.error
            payload = record.payload
        if state != DONE:
            raise ServiceError(
                f"job {job_id} is {state}" + (f": {error}" if error else "")
            )
        if payload is not None:
            return payload
        if self.store is not None:
            payload = self.store.get(job_id)
            if payload is not None:
                return payload
        raise ServiceError(f"result for job {job_id} was lost from the store")

    def wait(
        self,
        job_ids: list[str] | None = None,
        timeout: float | None = None,
        poll: float = 0.05,
    ) -> bool:
        """Block until the listed jobs (default: all) reach a terminal
        state; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                ids = list(self._jobs) if job_ids is None else job_ids
                done = all(
                    self._jobs[jid].state in TERMINAL_STATES
                    for jid in ids
                    if jid in self._jobs
                )
            if done:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(poll)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        """Jobs admitted but not yet running (includes retry backlog)."""
        with self._lock:
            return len(self._pending) + len(self._retry_at)

    def workers_alive(self) -> int:
        """Worker processes currently alive."""
        with self._lock:
            return sum(
                1 for slot in self._slots if slot.process.is_alive()
            )

    def metrics_dict(self) -> dict:
        """Everything ``GET /metrics`` exposes.

        The whole snapshot is taken under the lock (it is an RLock, so
        the nested ``workers_alive`` call is fine): the counters must be
        mutually consistent — a hit rate computed from a torn
        submitted/cache_hits pair is exactly the kind of divergence the
        service promises not to produce.
        """
        with self._lock:
            running = sum(
                1 for record in self._jobs.values() if record.state == RUNNING
            )
            depth = len(self._pending) + len(self._retry_at)
            submitted = self.metrics.submitted
            busy = sum(1 for slot in self._slots if slot.job_id is not None)
            return {
                "accepting": self._accepting,
                "queue_depth": depth,
                "jobs_running": running,
                "jobs_submitted": submitted,
                "jobs_completed": self.metrics.completed,
                "jobs_failed": self.metrics.failed,
                "jobs_retried": self.metrics.retried,
                "job_timeouts": self.metrics.timeouts,
                "worker_crashes": self.metrics.worker_crashes,
                "cache_hits": self.metrics.cache_hits,
                "cache_hit_rate": (
                    self.metrics.cache_hits / submitted if submitted else 0.0
                ),
                "store_errors": self.metrics.store_errors,
                "workers_total": self.n_workers,
                "workers_alive": self.workers_alive(),
                "workers_busy": busy,
                "worker_utilization": busy / self.n_workers,
                "fastpath": dict(self._fastpath_totals),
            }

    # ------------------------------------------------------------------
    # Bookkeeping threads
    # ------------------------------------------------------------------

    def _collector_loop(self) -> None:
        """Drain every worker's event queue into the job table."""
        while not self._stop.is_set():
            drained = False
            with self._lock:
                slots = list(self._slots)
            for slot_index, slot in enumerate(slots):
                try:
                    event = slot.events.get_nowait()
                except (queue_module.Empty, OSError):
                    continue
                drained = True
                self._handle_event(slot_index, event)
            self._flush_notifications()
            if not drained:
                time.sleep(0.01)

    def _handle_event(self, slot_index: int, event: tuple) -> None:
        kind, jid = event[0], event[1]
        # Store first: once the record turns terminal, another terminal
        # transition may evict it from the retention table, and status
        # and result queries then go to the store.  Payloads are
        # content-addressed, so storing one for a stale event is
        # harmless.
        if kind == "done" and self.store is not None:
            try:
                self.store.put(jid, event[2])
            except OSError:
                with self._lock:
                    self.metrics.store_errors += 1
        with self._lock:
            record = self._jobs.get(jid)
            slot = self._slots[slot_index]
            if record is None or slot.job_id != jid:
                return  # stale event from a superseded assignment
            slot.job_id = None
            record.worker = None
            record.finished_at = time.monotonic()
            if kind == "done":
                record.payload = event[2]
                record.state = DONE
                self.metrics.completed += 1
                self._note_terminal(record)
                # Workers append their FASTPATH_TOTALS delta as a
                # fourth element (older/injected worker targets may
                # still send three-tuples).
                if len(event) > 3 and event[3]:
                    totals = self._fastpath_totals
                    for key, value in event[3].items():
                        totals[key] = totals.get(key, 0) + value
            else:
                self._register_failure(record, str(event[2]))

    def _register_failure(self, record: JobRecord, message: str) -> None:
        """Retry with backoff, or give up.  Caller holds the lock.

        Configuration errors fail immediately: a spec the worker
        rejected as invalid is deterministic, so retrying it would only
        burn ``max_retries`` worker slots producing the same message.
        """
        record.error = message
        if message.startswith("ConfigError:"):
            record.state = FAILED
            self.metrics.failed += 1
            self._note_terminal(record)
            return
        if record.attempts <= self.max_retries:
            record.state = QUEUED
            self.metrics.retried += 1
            delay = self.backoff_base * (2 ** (record.attempts - 1))
            self._retry_at[record.job_id] = time.monotonic() + delay
        else:
            record.state = FAILED
            self.metrics.failed += 1
            self._note_terminal(record)

    def _monitor_loop(self) -> None:
        """Dispatch pending jobs, enforce timeouts, heal the pool."""
        while not self._stop.is_set():
            now = time.monotonic()
            with self._lock:
                self._requeue_due_retries(now)
                self._dispatch_pending(now)
                self._enforce_timeouts(now)
                self._heal_crashed_workers()
            self._flush_notifications()
            time.sleep(0.02)

    def _requeue_due_retries(self, now: float) -> None:
        due = [jid for jid, when in self._retry_at.items() if when <= now]
        for jid in due:
            del self._retry_at[jid]
            self._pending.append(jid)

    def _dispatch_pending(self, now: float) -> None:
        for slot_index, slot in enumerate(self._slots):
            if not self._pending:
                return
            if slot.job_id is not None or not slot.process.is_alive():
                continue
            jid = self._pending.popleft()
            record = self._jobs[jid]
            try:
                slot.tasks.put_nowait((jid, record.spec.to_dict()))
            except queue_module.Full:
                self._pending.appendleft(jid)
                continue
            slot.job_id = jid
            record.state = RUNNING
            record.worker = slot_index
            record.attempts += 1
            record.started_at = now

    def _enforce_timeouts(self, now: float) -> None:
        for slot_index, slot in enumerate(self._slots):
            jid = slot.job_id
            if jid is None:
                continue
            record = self._jobs[jid]
            if record.started_at is None or now - record.started_at <= self.timeout:
                continue
            self.metrics.timeouts += 1
            self._replace_slot(slot_index)
            record.finished_at = now
            record.worker = None
            self._register_failure(
                record, f"timed out after {self.timeout:g}s"
            )

    def _heal_crashed_workers(self) -> None:
        for slot_index, slot in enumerate(self._slots):
            if slot.process.is_alive():
                continue
            # A worker that finished its assignment and then died may
            # still have the result sitting in its event queue; collect
            # it before judging the death a crash, so completed work is
            # never retried (the lock is re-entrant).
            while True:
                try:
                    event = slot.events.get_nowait()
                except (queue_module.Empty, OSError):
                    break
                self._handle_event(slot_index, event)
            exitcode = slot.process.exitcode
            self.metrics.worker_crashes += 1
            jid = slot.job_id
            self._replace_slot(slot_index)
            if jid is not None:
                record = self._jobs[jid]
                record.finished_at = time.monotonic()
                record.worker = None
                self._register_failure(
                    record, f"worker crashed (exit code {exitcode})"
                )

    def _replace_slot(self, slot_index: int) -> None:
        """Kill (if needed) and rebuild one pool slot, recovering any
        assignment still sitting unread in its private task queue."""
        old = self._slots[slot_index]
        if old.process.is_alive():
            old.process.terminate()
            old.process.join(timeout=1.0)
            if old.process.is_alive():
                old.process.kill()
                old.process.join(timeout=1.0)
        # A dispatched-but-unstarted assignment (still in the dead
        # worker's queue) must not be lost: put it back in front.
        while True:
            try:
                item = old.tasks.get_nowait()
            except (queue_module.Empty, OSError):
                break
            if item is not None and item[0] != old.job_id:
                self._pending.appendleft(item[0])
                self._jobs[item[0]].state = QUEUED
        old.job_id = None
        self._slots[slot_index] = self._spawn_slot(slot_index)


def run_jobs(
    specs: list[JobSpec],
    workers: int = 2,
    store: ResultStoreBase | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    raise_on_failure: bool = True,
    **scheduler_kwargs,
) -> list[dict | None]:
    """Run *specs* through a temporary pool; payloads in spec order.

    The synchronous convenience the CLI's ``--jobs N`` paths use:
    spins up a scheduler, submits everything, waits, shuts down.

    Raises:
        ServiceError: when *raise_on_failure* and any job failed.
    """
    with Scheduler(
        workers=workers, store=store, timeout=timeout, **scheduler_kwargs
    ) as scheduler:
        records = [scheduler.submit(spec) for spec in specs]
        scheduler.wait([record.job_id for record in records])
        payloads: list[dict | None] = []
        failures: list[str] = []
        for record in records:
            current = scheduler.status(record.job_id)
            if current.state == DONE:
                payloads.append(scheduler.result(record.job_id))
            else:
                payloads.append(None)
                failures.append(f"{current.job_id}: {current.error}")
        if failures and raise_on_failure:
            raise ServiceError(
                f"{len(failures)} job(s) failed: " + "; ".join(failures)
            )
        return payloads
