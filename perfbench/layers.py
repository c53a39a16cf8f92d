"""Counting taps and layer spans around the program's public functions.

:class:`Probe` always installs cheap taps that read the modelled outcome
of each replay (records, misses, evictions, promotions, dedup bytes,
the Figure 11 overhead ratios), so every run checks them.  Given
a :class:`~spans.Tracer` it also records a span around each layer call
named in :data:`SPAN_METRICS`.
"""

from __future__ import annotations

import contextlib
import importlib
import math

from harness import ratio
from spans import patch_function, self_times, wrap_function, wrap_method

import repro.experiments.runner as runner
from repro.cachesim import simulator
from repro.core.generational import GenerationalCacheManager
from repro.experiments import (
    evaluation,
    fig09_miss_rates,
    fig10_misses_eliminated,
    fig11_overhead,
)
from repro.experiments.base import render_table
from repro.fastpath import CompiledTraceLog, compile_log
from repro.fastpath.artifacts import ArtifactCache
from repro.shared import compose
from repro.workloads.synthesis import synthesize_log


def optional(module: str, name: str):
    """``module.name``, or None once a simplification has removed it."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


# Layers a planned simplification may delete (the kernel tier's plans,
# either multi-process simulator) are instrumented only while present.
prepare_plan = optional("repro.fastpath", "prepare_plan")
SHARED_SIMULATORS = [
    cls
    for cls in (
        optional("repro.shared.simulator", "MultiProcessSimulator"),
        optional("repro.shared.fleet", "FleetSimulator"),
    )
    if cls is not None
]

#: Span name -> per-layer metric that sums the spans' self times.
SPAN_METRICS = {
    "workloads.synthesize": "workloads.synthesize_s",
    "fastpath.compile": "fastpath.compile_s",
    "fastpath.artifacts.read": "fastpath.artifacts.read_s",
    "fastpath.plan": "fastpath.plan_s",
    "tracelog.decompile": "tracelog.decompile_s",
    "cachesim.replay.unified": "cachesim.replay_s.unified",
    "cachesim.replay.generational": "cachesim.replay_s.generational",
    "cachesim.replay.unbounded": "cachesim.replay_s.unbounded",
    "experiments.characterize": "experiments.characterize_s",
    "experiments.tables": "experiments.tables_s",
    "experiments.render": "experiments.tables_s",
    "shared.compose": "shared.compose_s",
    "shared.replay": "shared.replay_s",
}

#: Modelled counts every replay contributes to; they must repeat exactly.
MODELLED = (
    "cachesim.records_replayed",
    "core.misses.unified",
    "core.misses.generational",
    "core.evictions",
    "core.promotions",
    "shared.dedup_bytes",
)


def family(manager) -> str:
    """The family a cache manager's replay time and misses count under:
    ``unified``, ``generational`` or ``unbounded``."""
    if isinstance(manager, GenerationalCacheManager):
        return "generational"
    if any(cache.name == "unbounded" for cache in manager.caches()):
        return "unbounded"
    return "unified"


def record_count(log) -> int:
    """Records in an object or compiled trace log."""
    return len(log.records) if hasattr(log, "records") else len(log)


class Probe:
    """Taps (always) and spans (with a tracer) on the program's layers."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.counts = dict.fromkeys(MODELLED, 0)
        self.shared_misses = 0
        self.shared_accesses = 0
        self.overhead_ratios: list[float] = []

    def _span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext({"name": name})
        return self.tracer.span(name)

    def _spanned(self, name: str):
        def around(original, args, kwargs):
            with self._span(name):
                return original(*args, **kwargs)

        return around

    def install(self) -> None:
        """Wrap the layer functions where the program looks them up;
        call once, after the imports above."""
        arounds = [
            (simulator.simulate_log, self._simulate),
            (evaluation.run_evaluation, self._evaluation),
            (compose.build_process_workloads, self._compose),
        ]
        for cls in SHARED_SIMULATORS:
            wrap_method(cls, "run", self._shared_run)
        if self.tracer is not None:
            spanned = [
                (synthesize_log, "workloads.synthesize"),
                (compile_log, "fastpath.compile"),
                (prepare_plan, "fastpath.plan"),
                (render_table, "experiments.render"),
                *((run, "experiments.characterize") for run in set(runner.CHARACTERIZATION.values())),
                *((module.run, "experiments.tables")
                  for module in (fig09_miss_rates, fig10_misses_eliminated, fig11_overhead)),
            ]
            arounds += [(function, self._spanned(name)) for function, name in spanned if function is not None]
            wrap_method(CompiledTraceLog, "decompile", self._spanned("tracelog.decompile"))
            wrap_method(ArtifactCache, "compiled_log", self._artifact)
            wrap_method(ArtifactCache, "log_stats", self._artifact)
        for function, around in arounds:
            patch_function(function, wrap_function(function, around))

    # -- taps ------------------------------------------------------------

    def _simulate(self, original, args, kwargs):
        log, manager = args[0], args[1]
        kind = family(manager)
        with self._span(f"cachesim.replay.{kind}"):
            result = original(*args, **kwargs)
        counts = self.counts
        counts["cachesim.records_replayed"] += record_count(log)
        if kind != "unbounded":
            counts[f"core.misses.{kind}"] += result.stats.misses
        counts["core.evictions"] += result.stats.evictions
        counts["core.promotions"] += result.stats.promotions
        return result

    def _compose(self, original, args, kwargs):
        """Every composed process log is replayed once, whichever
        simulator replays the mix."""
        with self._span("shared.compose"):
            workloads = original(*args, **kwargs)
        self.counts["cachesim.records_replayed"] += sum(
            record_count(workload.log) for workload in workloads
        )
        return workloads

    def _shared_run(self, original, args, kwargs):
        with self._span("shared.replay"):
            result = original(*args, **kwargs)
        self.counts["shared.dedup_bytes"] += result.dedup_bytes
        self.shared_misses += result.misses
        self.shared_accesses += result.accesses
        return result

    def _evaluation(self, original, args, kwargs):
        evaluations = original(*args, **kwargs)
        label = fig11_overhead.BEST_CONFIG.label()
        self.overhead_ratios.extend(
            evaluations[name].ratio(label) for name in sorted(evaluations)
        )
        return evaluations

    def _artifact(self, original, args, kwargs):
        """A store lookup is a hit when it never calls the callback that
        produces the value on a miss (its last positional argument)."""
        called = []
        produce = args[-1]

        def tracked():
            called.append(True)
            return produce()

        with self._span("fastpath.artifacts") as record:
            result = original(*args[:-1], tracked, **kwargs)
            record["name"] = (
                "fastpath.artifacts.miss" if called else "fastpath.artifacts.read"
            )
        return result

    # -- results -----------------------------------------------------------

    def modelled(self) -> dict:
        """The exact counts the run must reproduce."""
        counts = dict(self.counts)
        counts["overhead.instructions_ratio_geomean"] = self.geomean()
        counts["shared.miss_rate"] = ratio(self.shared_misses, self.shared_accesses)
        return counts

    def geomean(self) -> float:
        ratios = self.overhead_ratios
        if not ratios:
            return 0.0
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    def span_metrics(self) -> dict:
        """Per-layer self time, summed over each metric's spans."""
        totals = dict.fromkeys(SPAN_METRICS.values(), 0.0)
        if self.tracer is None:
            return totals
        own = self_times(self.tracer.spans)
        for span in self.tracer.spans:
            metric = SPAN_METRICS.get(span["name"])
            if metric is not None:
                totals[metric] += own[span["id"]]
        return totals

