"""In-memory spans recorded around calls into the program's layers.

A span has a name, a start and an end (``time.perf_counter``), the span
that was open on the same thread when it began (its parent), and the id
of the run that recorded it.  Spans stay in memory until the run ends.

The program is instrumented only from outside: :func:`patch_function`
rebinds a public function wherever a ``repro`` module looks it up, and
:func:`wrap_method` replaces a method on its class.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time


class Tracer:
    """Collects spans for one run; safe to use from several threads."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record a span around the ``with`` body; yields its record so
        the body can add attributes."""
        stack = self._stack()
        record = {
            "name": name,
            "run": self.run_id,
            "parent": stack[-1] if stack else None,
            "attrs": attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of *intervals*, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def unspanned_share(spans: list[dict], start: float, end: float) -> float:
    """Share of [start, end] that no top-level span covers."""
    if end <= start:
        return 0.0
    roots = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    return 1.0 - covered(roots, start, end) / (end - start)


def repro_modules() -> list:
    """Every loaded module of the program."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def patch_function(original, replacement) -> int:
    """Rebind *original* to *replacement* wherever a loaded ``repro``
    module refers to it: module globals, and values of module-level
    dicts (dispatch tables).  Returns the number of references rebound.

    Callers that import the function inside a function body read the
    defining module's attribute at call time, so they see the
    replacement too.
    """
    rebound = 0
    for module in repro_modules():
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if value is original:
                setattr(module, name, replacement)
                rebound += 1
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        rebound += 1
    return rebound


def wrap_function(original, around):
    """A function that calls ``around(original, args, kwargs)``."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return around(original, args, kwargs)

    return wrapper


def wrap_method(cls, name: str, around) -> None:
    """Replace method *name* of *cls* with a wrapper calling
    ``around(original, args, kwargs)`` (``args[0]`` is the instance)."""
    setattr(cls, name, wrap_function(getattr(cls, name), around))
