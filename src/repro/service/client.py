"""HTTP client for the simulation service (stdlib http.client only).

Mirrors the server's endpoints and adds :meth:`ServiceClient.wait`
(poll until a job reaches a terminal state) — what the CLI ``submit``,
``status`` and ``fetch`` verbs, the ``run --server URL`` path and the
cluster load generator use.

Transport hardening:

* **Connection reuse.** One persistent keep-alive
  :class:`http.client.HTTPConnection` per client instead of a fresh TCP
  handshake per request (a client instance is therefore *not*
  thread-safe — give each thread its own, as the load generator does).
* **Bounded retries for idempotent GETs.** A keep-alive connection the
  server closed between requests surfaces as ``ConnectionResetError``
  or ``RemoteDisconnected`` mid-exchange; GETs are retried on a fresh
  connection with exponential backoff up to ``max_retries`` times.
  POSTs are never silently resent — the server may have processed them.
* **Typed overload errors.** HTTP 429 raises
  :class:`~repro.errors.OverloadedError` carrying the server's
  ``Retry-After``/``retry_after`` hint and shed reason, so callers can
  back off precisely instead of pattern-matching messages.
"""

from __future__ import annotations

import http.client
import json
import time
from urllib.parse import urlsplit

from repro.errors import ConfigError, OverloadedError, ServiceError
from repro.service.jobs import JobSpec
from repro.service.scheduler import TERMINAL_STATES

#: Where ``repro-gencache serve``/``cluster-serve`` listen by default
#: (kept here, not beside the asyncio server, so the client verbs can
#: name the default URL without importing the cluster layer).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8350

#: Extra attempts for idempotent GETs after a transient failure.
DEFAULT_MAX_RETRIES = 3
#: First retry delay in seconds; doubles per attempt.
DEFAULT_BACKOFF = 0.05

#: Failures worth retrying on a fresh connection: the reused socket
#: died under us (includes http.client.RemoteDisconnected, which
#: subclasses ConnectionResetError).
_TRANSIENT = (ConnectionResetError, BrokenPipeError)


class ServiceClient:
    """Talk to one ``repro-gencache serve`` or ``cluster-serve``
    instance (both run :mod:`repro.cluster.http`) over a persistent
    connection.

    Args:
        base_url: e.g. ``"http://127.0.0.1:8350"``.
        timeout: Per-request socket timeout in seconds.
        tenant: Admission tenant name sent as ``X-Tenant`` (the
            server's fair-share gate; None sends no header and lands in
            the ``default`` tenant).
        max_retries: Extra attempts for idempotent GETs after a
            transient connection failure.
        backoff_base: First GET-retry delay (doubles per attempt).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        tenant: str | None = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.tenant = tenant
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        parsed = urlsplit(self.base_url)
        try:
            port = parsed.port
        except ValueError:
            port = None
        if parsed.scheme != "http" or not parsed.hostname or port is None:
            raise ConfigError(
                f"service URL must look like http://host:port, got "
                f"{base_url!r}"
            )
        self._host = parsed.hostname
        self._port = port
        self._prefix = parsed.path.rstrip("/")
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # Endpoint wrappers
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec | dict) -> dict:
        """POST a job; returns its status dict (instant on cache hit)."""
        body = spec.to_dict() if isinstance(spec, JobSpec) else dict(spec)
        return self._request("POST", "/jobs", body)

    def status(self, job_id: str) -> dict:
        """GET one job's status dict."""
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """GET one completed job's payload."""
        return self._request("GET", f"/results/{job_id}")

    def healthz(self) -> dict:
        """GET the health summary."""
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        """GET the scheduler metrics."""
        return self._request("GET", "/metrics")

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------

    def wait(
        self,
        job_id: str,
        timeout: float = 1800.0,
        poll: float = 0.25,
    ) -> dict:
        """Poll until *job_id* is done/failed; returns its final status.

        Raises:
            ServiceError: if the deadline passes first.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status.get("state") in TERMINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout:g}s waiting for job {job_id}"
                )
            time.sleep(poll)

    def submit_and_wait(
        self, spec: JobSpec | dict, timeout: float = 1800.0
    ) -> tuple[dict, dict]:
        """Submit, wait, and fetch: returns ``(status, payload)``.

        Raises:
            ServiceError: on job failure or wait timeout.
        """
        status = self.submit(spec)
        if status.get("state") not in TERMINAL_STATES:
            status = self.wait(status["job_id"], timeout=timeout)
        if status.get("state") != "done":
            raise ServiceError(
                f"job {status.get('job_id')} failed: {status.get('error')}"
            )
        return status, self.result(status["job_id"])

    def events(self, job_id: str, timeout: float | None = None):
        """Yield the ``/jobs/<id>/events`` SSE stream as dicts.

        The stream (and this generator) ends after the job's terminal
        event.  Uses its own connection: the stream holds it until the
        job finishes, which would starve the client's persistent
        connection.
        """
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=timeout or self.timeout
        )
        try:
            conn.request(
                "GET",
                f"{self._prefix}/jobs/{job_id}/events",
                headers={"Accept": "text/event-stream"},
            )
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read()
                self._raise_for_status(
                    "GET", f"/jobs/{job_id}/events", response, raw
                )
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line.startswith(b"data: "):
                    yield json.loads(line[len(b"data: "):].decode("utf-8"))
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drop the persistent connection (reopened on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
        return self._conn

    def _request(
        self, method: str, path: str, body: dict | None = None
    ) -> dict:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        retries = self.max_retries if method == "GET" else 0
        delay = self.backoff_base
        attempt = 0
        while True:
            try:
                return self._roundtrip(method, path, data)
            except _TRANSIENT as exc:
                # The reused socket died; never resend a POST (the
                # server may have processed it), retry GETs afresh.
                self.close()
                if attempt >= retries:
                    raise ServiceError(
                        f"{method} {path} failed: cannot reach "
                        f"{self.base_url}: {exc}"
                    ) from exc
                attempt += 1
                time.sleep(delay)
                delay *= 2
            except (http.client.HTTPException, OSError, ValueError) as exc:
                self.close()
                raise ServiceError(
                    f"{method} {path} failed: cannot reach "
                    f"{self.base_url}: {exc}"
                ) from exc

    def _roundtrip(self, method: str, path: str, data: bytes | None) -> dict:
        headers = {"Accept": "application/json"}
        if data is not None:
            headers["Content-Type"] = "application/json"
        if self.tenant is not None:
            headers["X-Tenant"] = self.tenant
        conn = self._connection()
        conn.request(method, self._prefix + path, body=data, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        if response.will_close:
            self.close()
        if response.status >= 400:
            self._raise_for_status(method, path, response, raw)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(
                f"{method} {path} failed: invalid JSON response: {exc}"
            ) from exc

    def _raise_for_status(
        self, method: str, path: str, response, raw: bytes
    ) -> None:
        detail = ""
        fields: dict = {}
        try:
            fields = json.loads(raw.decode("utf-8"))
            detail = fields.get("error", "")
        except (UnicodeDecodeError, ValueError):
            detail = response.reason or ""
        message = f"{method} {path} failed: HTTP {response.status}" + (
            f" ({detail})" if detail else ""
        )
        if response.status == 400:
            # The server rejected the request as malformed (e.g. an
            # unknown policy name in a submitted spec): that is the
            # caller's configuration error, not a service failure.
            raise ConfigError(message)
        if response.status == 429:
            retry_after = fields.get("retry_after")
            if retry_after is None:
                retry_after = response.getheader("Retry-After") or 1.0
            raise OverloadedError(
                message,
                retry_after=float(retry_after),
                reason=fields.get("reason"),
            )
        raise ServiceError(message)
