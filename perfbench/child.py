"""One fresh interpreter of the benchmark: set up, then optionally run.

Usage: ``python3 perfbench/child.py CONFIG.json`` — started by
``run.py`` with ``PYTHONPATH`` at the checkout's ``src``.  The config
names the mode:

* ``setup``: set up the workload, record when it was ready, tear down;
* ``run``: set up, run the timed phase once, verify its outputs;
* ``prepare``: fill the warm artifact store and record the expected
  service payloads, using the program under test.

The child writes its observations as JSON to the config's ``out`` path.
The moment set-up finished is ``ready_at`` on ``time.monotonic``, which
the parent compares with the moment it started the interpreter.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from harness import counter_delta, digest_mismatches, fastpath_metrics, text_digest
from spans import Tracer, unspanned_share

#: The experiment ids each batch workload runs over the quick subset,
#: and whether it starts from the warm store or an empty one.
BATCH = {
    "eval-warm": (("figure-9", "figure-10", "figure-11"), True),
    "characterize-cold": (
        ("figure-1", "figure-2", "figure-3", "figure-4", "figure-6"),
        False,
    ),
    "shared-mix": (("shared",), True),
}


def _open_store(cfg: dict, warm: bool) -> None:
    """The run's private artifact store: a hard-linked copy of the warm
    store (entries are replaced, never written in place) or empty."""
    from repro.fastpath import artifacts

    store = Path(cfg["run_dir"]) / "artifacts"
    if warm:
        shutil.copytree(cfg["warm"], store, copy_function=os.link)
    else:
        store.mkdir()
    artifacts.configure(store)


def _counters() -> dict:
    """Snapshots of the program's own counter dicts (absent ones: {})."""
    from repro import fastpath
    from repro.fastpath import artifacts

    return {
        "fastpath": dict(getattr(fastpath, "FASTPATH_TOTALS", {})),
        "artifacts": dict(getattr(artifacts, "ARTIFACT_TOTALS", {})),
    }


def _peak_rss_mb() -> float:
    """Peak resident memory of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_batch(cfg: dict) -> dict:
    ids, warm = BATCH[cfg["workload"]]
    tracer = Tracer(cfg["run_id"]) if cfg["trace"] else None
    import layers
    from repro.experiments.base import render_table
    from repro.experiments.dataset import quick_subset
    from repro.experiments.runner import render_all, run_all

    probe = layers.Probe(tracer)
    probe.install()
    _open_store(cfg, warm)
    ready_at = time.monotonic()
    if cfg["mode"] == "setup":
        return {"ready_at": ready_at}

    before = _counters()
    began = time.perf_counter()
    results = run_all(subset=quick_subset(), experiment_ids=ids)
    render_all(results)
    digests = {
        experiment_id: text_digest(render_table(result))
        for experiment_id, result in zip(ids, results)
    }
    mismatched = digest_mismatches(digests, cfg["expected"].get("tables", {}))
    ended = time.perf_counter()
    after = _counters()
    counters = {group: counter_delta(before[group], after[group]) for group in after}

    out = {
        "ready_at": ready_at,
        "wall_s": ended - began,
        "peak_rss_mb": _peak_rss_mb(),
        "records": probe.counts["cachesim.records_replayed"],
        "attempted": len(digests),
        "failed": len(mismatched),
        "reasons": {f"digest-{name}": 1 for name in mismatched},
        "digests": digests,
        "modelled": probe.modelled(),
        "implementation": {
            "fastpath.plans_built": counters["fastpath"].get("plans_built"),
            "fastpath.plans_loaded": counters["fastpath"].get("plans_loaded"),
            "fastpath.artifacts.hits": counters["artifacts"].get("hits"),
        },
    }
    if tracer is not None:
        out["layers"] = {
            **probe.span_metrics(),
            **probe.modelled(),
            **fastpath_metrics(counters["fastpath"], counters["artifacts"]),
        }
        out["unspanned_frac"] = unspanned_share(tracer.spans, began, ended)
        out["spans"] = tracer.spans
    return out


def run_service(cfg: dict) -> dict:
    from service import ServiceMix

    tracer = Tracer(cfg["run_id"]) if cfg["trace"] else None
    state = Path(cfg["state"])
    payloads = json.loads((state / "payloads.json").read_text())
    _open_store(cfg, True)
    mix = ServiceMix(Path(cfg["run_dir"]), payloads, cfg["seed"], tracer)
    try:
        mix.setup()
        plans = mix.plans()
        ready_at = time.monotonic()
        if cfg["mode"] == "setup":
            return {"ready_at": ready_at}
        compute_ms = None
        if tracer is not None:
            compute_ms = mix.compute_ms({job_id for plan in plans for _, job_id in plan})
        began = time.perf_counter()
        observed = mix.run(plans)
        ended = time.perf_counter()
    finally:
        mix.teardown()
    distinct = {job_id for plan in plans for _, job_id in plan}
    out = {
        "ready_at": ready_at,
        "peak_rss_mb": _peak_rss_mb(),
        "records": sum(payloads[job_id]["records"] for job_id in distinct),
        **observed,
    }
    if tracer is not None:
        out["compute_ms"] = compute_ms
        out["unspanned_frac"] = unspanned_share(tracer.spans, began, ended)
        out["spans"] = tracer.spans
    return out


def prepare(cfg: dict) -> dict:
    """Fill the warm store with everything eval-warm, shared-mix and the
    service jobs read, and record each service spec's serial payload."""
    import layers
    from repro.experiments.dataset import quick_subset
    from repro.experiments.runner import run_all
    from repro.fastpath import artifacts
    from repro.service.jobs import job_id, spec_from_dict
    from repro.service.workers import execute_job
    from service import population

    probe = layers.Probe()
    probe.install()
    artifacts.configure(cfg["warm"])
    for workload in ("eval-warm", "shared-mix"):
        run_all(subset=quick_subset(), experiment_ids=BATCH[workload][0])
    payloads = {}
    for spec in population():
        before = probe.counts["cachesim.records_replayed"]
        payload = execute_job(spec_from_dict(spec))
        payloads[job_id(spec_from_dict(spec))] = {
            "spec": spec,
            "payload": json.loads(json.dumps(payload)),
            "records": probe.counts["cachesim.records_replayed"] - before,
        }
    (Path(cfg["state"]) / "payloads.json").write_text(json.dumps(payloads))
    return {}


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    if cfg["mode"] == "prepare":
        out = prepare(cfg)
    elif cfg["workload"] in BATCH:
        out = run_batch(cfg)
    else:
        out = run_service(cfg)
    Path(cfg["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
