"""The service-mix client against a scripted stand-in server."""

import json
import threading
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from service import RECOVERIES, client_loop, client_plans, job_tally, request_multiset, population


class _Handler(BaseHTTPRequestHandler):
    """``shed`` is shed; ``gone`` is terminal and never fetchable;
    ``evicted`` 404s on its first fetch, like a job whose record left
    the retention table, and is served after a resubmission."""

    protocol_version = "HTTP/1.1"
    posts: dict = {}

    def log_message(self, *args):
        pass

    def _json(self, status, body, close=False):
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):
        spec = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        name = spec["benchmark"]
        self.posts[name] = self.posts.get(name, 0) + 1
        if name == "shed":
            self._json(429, {"error": "overloaded", "reason": "queue", "retry_after": 1})
        elif name == "gone" or (name == "evicted" and self.posts[name] > 1):
            self._json(200, {"job_id": name, "state": "done", "cached": True})
        else:
            self._json(200, {"job_id": name, "state": "queued", "cached": False})

    def do_GET(self):
        parts = self.path.strip("/").split("/")
        if parts[0] == "jobs" and parts[2:] == ["events"]:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Connection", "close")
            self.end_headers()
            for state in ("queued", "running", "done"):
                event = {"job_id": parts[1], "state": state, "cached": False}
                self.wfile.write(b"data: " + json.dumps(event).encode() + b"\n\n")
            self.close_connection = True
        elif parts == ["results", "gone"] or (
            parts == ["results", "evicted"] and self.posts["evicted"] == 1
        ):
            self._json(404, {"error": f"unknown job id {parts[1]!r}"})
        elif parts[0] == "results":
            self._json(200, {"result": parts[1]})
        else:
            self._json(404, {"error": "no such endpoint"})


@pytest.fixture
def server():
    _Handler.posts = {}
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd.server_address
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def _drive(address, names, expected):
    gate = threading.Event()
    gate.set()
    results = []
    plan = [({"kind": "sweep-point", "benchmark": name}, name) for name in names]
    client_loop(address, "tenant", plan, expected, results, gate)
    return [asdict(result) for result in results]


def test_failed_frac_counts_a_404_and_a_429(server):
    jobs = _drive(server, ["shed", "gone", "fine"], {
        "shed": None, "gone": {"result": "gone"}, "fine": {"result": "fine"},
    })
    tally = job_tally(jobs)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failed_frac == pytest.approx(2 / 3)
    assert tally.reasons == {"shed-429": 1, "fetch-404": 1}
    assert jobs[1]["retention_404"] == RECOVERIES + 1
    fine = jobs[2]
    assert fine["failure"] is None and not fine["instant"]
    assert fine["wait"] is not None and fine["latency"] >= fine["wait"]


def test_retention_404_is_counted_and_recovered_by_resubmitting(server):
    jobs = _drive(server, ["evicted"], {"evicted": {"result": "evicted"}})
    assert job_tally(jobs).failed == 0
    assert jobs[0]["retention_404"] == 1
    assert jobs[0]["latency"] >= jobs[0]["fetch"]


def test_payload_that_differs_from_serial_execution_fails(server):
    jobs = _drive(server, ["fine"], {"fine": {"result": "something else"}})
    assert job_tally(jobs).reasons == {"payload-mismatch": 1}


def test_seed_orders_a_fixed_multiset():
    requests = request_multiset(population())
    first, second = client_plans(requests, seed=1), client_plans(requests, seed=2)
    key = lambda spec: json.dumps(spec, sort_keys=True)
    assert first != second
    assert sorted(map(key, sum(first, []))) == sorted(map(key, sum(second, [])))
    assert client_plans(requests, seed=1) == first
    assert len({key(spec) for spec in requests}) < len(population())
