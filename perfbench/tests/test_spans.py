"""Span recording, self time and rebinding of program functions."""

import sys
import threading
import types

from spans import Tracer, patch_function, self_times, unspanned_share, wrap_function


def _span(id, parent, start, end):
    return {"id": id, "parent": parent, "start": start, "end": end, "name": str(id)}


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),  # overlaps span 1: counted once
        _span(3, 2, 2.5, 4.5),  # grandchild: only reduces span 2
        _span(4, 0, 8.0, 12.0),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == 10.0 - (4.0 + 2.0)
    assert own[2] == 3.0 - 2.0
    assert own[3] == 2.0
    assert own[1] == 2.0


def test_unspanned_share_counts_gaps_between_roots():
    spans = [_span(0, None, 1.0, 4.0), _span(1, None, 3.0, 6.0), _span(2, 0, 1.0, 2.0)]
    assert unspanned_share(spans, 0.0, 10.0) == 0.5


def test_tracer_nests_per_thread():
    tracer = Tracer("run-1")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        other = threading.Thread(target=lambda: tracer.span("other").__enter__())
        other.start()
        other.join(timeout=5)
    outer, inner, side = tracer.spans
    assert inner["parent"] == outer["id"]
    assert outer["parent"] is None and side["parent"] is None
    assert {span["run"] for span in tracer.spans} == {"run-1"}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_patch_function_rebinds_globals_and_dispatch_tables():
    def layer(x):
        return x + 1

    module = types.ModuleType("repro._perfbench_probe")
    module.layer = layer
    module.TABLE = {"a": layer, "b": len}
    sys.modules[module.__name__] = module
    try:
        calls = []

        def around(original, args, kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        assert patch_function(layer, wrap_function(layer, around)) == 2
        assert module.layer(1) == 2 and module.TABLE["a"](2) == 3
        assert module.TABLE["b"] is len
        assert calls == [(1,), (2,)]
    finally:
        del sys.modules[module.__name__]
