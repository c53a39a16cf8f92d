"""Stdlib HTTP front end for the simulation service.

A thin JSON layer over one :class:`~repro.service.scheduler.Scheduler`
using :class:`http.server.ThreadingHTTPServer` (request threads only
touch scheduler bookkeeping, which is lock-protected; the simulation
work itself happens in worker processes).

Endpoints::

    POST /jobs          submit a JobSpec (JSON body) -> job status
    GET  /jobs/<id>     job status
    GET  /results/<id>  completed payload
    GET  /healthz       liveness + worker pool health
    GET  /metrics       queue depth, completion/failure counters,
                        cache hit rate, worker utilization

Failure semantics: invalid specs are 400 with the ``ConfigError``
message, unknown ids are 404, asking for the result of an unfinished
job is 409, and a full admission queue is 503 (back off and retry).
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import (
    ConfigError,
    JobNotFoundError,
    JobQueueFullError,
    ServiceError,
)
from repro.service.jobs import spec_from_dict
from repro.service.scheduler import DONE, Scheduler
from repro.units import MB

#: Hard cap on request bodies (inline logs included).
MAX_BODY_BYTES = 64 * MB

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8350

#: How long :func:`serve_until_signal` blocks between signal checks.
_SIGNAL_POLL_SECONDS = 0.2


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the scheduler reference."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], scheduler: Scheduler) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.scheduler = scheduler


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes the five service endpoints; all responses are JSON."""

    server: ServiceServer
    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; the service
    # exposes counters via /metrics instead.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # quiet by design; see /metrics

    # ------------------------------------------------------------------
    # HTTP verbs
    # ------------------------------------------------------------------

    def do_POST(self) -> None:
        if self._route() != ("jobs",):
            self._send_error(404, "no such endpoint")
            return
        try:
            spec = spec_from_dict(self._read_json_body())
            record = self.server.scheduler.submit(spec)
        except ConfigError as exc:
            self._send_error(400, str(exc))
        except JobQueueFullError as exc:
            self._send_error(503, str(exc))
        else:
            self._send_json(
                200, self.server.scheduler.status_dict(record.job_id)
            )

    def do_GET(self) -> None:
        route = self._route()
        scheduler = self.server.scheduler
        try:
            if route == ("healthz",):
                alive = scheduler.workers_alive()
                healthy = alive == scheduler.n_workers
                self._send_json(
                    200 if healthy else 503,
                    {
                        "status": "ok" if healthy else "degraded",
                        "workers_alive": alive,
                        "workers_total": scheduler.n_workers,
                    },
                )
            elif route == ("metrics",):
                self._send_json(200, scheduler.metrics_dict())
            elif len(route) == 2 and route[0] == "jobs":
                self._send_json(200, scheduler.status_dict(route[1]))
            elif len(route) == 2 and route[0] == "results":
                status = scheduler.status_dict(route[1])
                if status["state"] != DONE:
                    error = status["error"]
                    self._send_error(
                        409,
                        f"job is {status['state']}"
                        + (f": {error}" if error else ""),
                        state=status["state"],
                    )
                else:
                    self._send_json(200, scheduler.result(route[1]))
            else:
                self._send_error(404, "no such endpoint")
        except JobNotFoundError as exc:
            self._send_error(404, str(exc))
        except ServiceError as exc:
            self._send_error(500, str(exc))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _route(self) -> tuple[str, ...]:
        path = self.path.split("?", 1)[0]
        return tuple(part for part in path.split("/") if part)

    def _read_json_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ConfigError("request body is required")
        if length > MAX_BODY_BYTES:
            raise ConfigError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}") from exc

    def _send_json(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_error(self, status: int, message: str, **extra: object) -> None:
        self._send_json(status, {"error": message, **extra})


def make_server(
    scheduler: Scheduler,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
) -> ServiceServer:
    """Bind a server (``port=0`` picks a free port; see
    ``server.server_address``).  Call ``serve_forever()`` to run."""
    return ServiceServer((host, port), scheduler)


def serve_until_signal(server: ServiceServer, grace: float = 30.0) -> int:
    """Serve until SIGTERM/SIGINT, then drain gracefully.

    On the first signal the scheduler stops admitting (new submissions
    get 503) while the server keeps answering status/result queries, so
    every *accepted* job finishes — up to *grace* seconds — before the
    listener closes.  ``serve_forever`` runs on a helper thread because
    ``HTTPServer.shutdown`` deadlocks when called from the serving
    thread itself.

    Returns the signal number received.  Must run on the main thread
    (signal handlers can only be installed there).
    """
    stop = threading.Event()
    received = {"signum": 0}

    def _handle(signum, frame) -> None:
        received["signum"] = signum
        stop.set()

    previous = {
        signum: signal.signal(signum, _handle)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    try:
        # Timed waits, not one untimed wait: when the kernel delivers
        # the signal to a worker thread, the untimed lock wait on the
        # main thread is never interrupted, so the Python handler (which
        # only runs on the main thread) would never get to set *stop*.
        while not stop.wait(_SIGNAL_POLL_SECONDS):
            pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.scheduler.drain(timeout=grace)
        server.shutdown()
        thread.join(timeout=grace)
        server.server_close()
    return received["signum"]
