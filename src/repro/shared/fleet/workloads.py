"""Lazy per-process workloads over shared compiled logs (fleet internals).

``build_process_workloads`` materializes one object ``TraceLog`` per
process — O(P) record objects even when all P processes run the same
binary.  A fleet holds the *distinct* workload contents instead:

* each distinct ``(benchmark, library reach)`` pair is synthesized
  once (through the artifact cache), composed once, and compiled once
  into one columnar log (:class:`DistinctWorkload`);
* every process is an *assignment* to a distinct workload — its replay
  state is just a cursor over the shared columns, so fleet memory is
  O(distinct workloads) + O(P) integers, not O(P) logs.

Because per-process library sets are nested catalog prefixes (the
Zipf *reach* model — :func:`repro.shared.compose.zipf_reaches`), the
distinct count is bounded by ``len(palette) * len(catalog)`` however
large the fleet grows.

Churn plans live here too: :func:`churn_plan` draws which processes
spawn late and which are killed early from a seeded substream, so a
churned fleet remains a pure function of its cell parameters.

This module is fleet-internal (``fleet-api`` lint rule): other layers
import the package root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError
from repro.fastpath import OP_CREATE, log_columns
from repro.fastpath.artifacts import cached_log
from repro.rand import substream
from repro.shared.compose import (
    LIBRARY_CATALOG,
    ProcessWorkload,
    build_library_catalog,
    compose_with_libraries,
    workload_keys,
)
from repro.shared.fleet.scheduler import ProcessStream
from repro.shared.identity import TraceKey
from repro.workloads.catalog import get_profile

#: Fraction of fleet processes subject to each churn event kind.
DEFAULT_CHURN_FRACTION = 0.25


@dataclass
class DistinctWorkload:
    """One distinct workload content, compiled and shared by cursors.

    Attributes:
        name: Display name (mirrors :class:`ProcessWorkload` naming).
        columns: The packed ``(op, time, trace_id, size, module,
            repeat)`` columns every assigned process replays.
        keys: Content key per created trace id.
        n_records: Packed record count.
        total_trace_bytes: Sum of created trace sizes (capacity sizing).
        modules: Sorted module ids the workload creates traces in
            (early-exit cleanup unmaps exactly these).
        traces_by_module: Created trace ids grouped by module.
    """

    name: str
    columns: tuple
    keys: dict[int, TraceKey]
    n_records: int
    total_trace_bytes: int
    modules: tuple[int, ...]
    traces_by_module: dict[int, frozenset[int]]


def _distill(workload: ProcessWorkload) -> DistinctWorkload:
    """Compile one workload's log and index its create structure."""
    columns = log_columns(workload.log)
    op, _time, trace_id, size, module, _repeat = columns
    by_module: dict[int, set[int]] = {}
    total = 0
    for index, code in enumerate(op):
        if code == OP_CREATE:
            by_module.setdefault(module[index], set()).add(trace_id[index])
            total += size[index]
    return DistinctWorkload(
        name=workload.name,
        columns=columns,
        keys=workload.keys,
        n_records=len(op),
        total_trace_bytes=total,
        modules=tuple(sorted(by_module)),
        traces_by_module={
            mod: frozenset(traces) for mod, traces in by_module.items()
        },
    )


class FleetWorkloads:
    """P processes assigned onto D ≤ P distinct compiled workloads."""

    def __init__(
        self, distinct: list[DistinctWorkload], assignment: list[int]
    ) -> None:
        if not assignment:
            raise ConfigError("a fleet needs at least one process")
        for index in assignment:
            if not 0 <= index < len(distinct):
                raise ConfigError(
                    f"assignment references distinct workload {index} of "
                    f"{len(distinct)}"
                )
        self.distinct = distinct
        self.assignment = assignment

    @property
    def n_processes(self) -> int:
        return len(self.assignment)

    def workload_of(self, process: int) -> DistinctWorkload:
        """The distinct workload process *process* replays."""
        return self.distinct[self.assignment[process]]

    def lengths(self) -> list[int]:
        """Per-process stream lengths (scheduler input)."""
        return [self.workload_of(p).n_records for p in range(self.n_processes)]

    @classmethod
    def from_process_workloads(
        cls, workloads: Sequence[ProcessWorkload]
    ) -> "FleetWorkloads":
        """Wrap eagerly built workloads (the shared table's path).

        ``build_process_workloads`` reuses one ``ProcessWorkload``
        object per distinct benchmark, so identity-dedup recovers the
        distinct set without hashing any content.
        """
        distinct: list[DistinctWorkload] = []
        index_of: dict[int, int] = {}
        assignment: list[int] = []
        for workload in workloads:
            key = id(workload)
            if key not in index_of:
                index_of[key] = len(distinct)
                distinct.append(_distill(workload))
            assignment.append(index_of[key])
        return cls(distinct, assignment)

    @classmethod
    def from_specs(
        cls,
        specs: Sequence[tuple[str, int]],
        seed: int = 42,
        scale_multiplier: float = 1.0,
        catalog: Sequence[str] = LIBRARY_CATALOG,
    ) -> "FleetWorkloads":
        """Lazily synthesize a fleet from ``(benchmark, reach)`` specs.

        Each distinct spec is synthesized/composed/compiled exactly
        once; the remaining P − D processes only record an assignment.
        App logs are synthesized once per distinct *benchmark* and the
        library catalog once per distinct *rank*, so total synthesis
        work is independent of the process count.

        Raises:
            ConfigError: for an empty fleet or a reach outside the
                catalog.
        """
        if not specs:
            raise ConfigError("a fleet needs at least one process")
        max_reach = 0
        for benchmark, reach in specs:
            if not 0 <= reach <= len(catalog):
                raise ConfigError(
                    f"library reach must be in [0, {len(catalog)}], got "
                    f"{reach} for {benchmark!r}"
                )
            max_reach = max(max_reach, reach)
        libraries = build_library_catalog(
            seed=seed,
            scale_multiplier=scale_multiplier,
            reach=max_reach,
            catalog=catalog,
        )
        app_logs: dict[str, object] = {}
        distinct: list[DistinctWorkload] = []
        index_of: dict[tuple[str, int], int] = {}
        assignment: list[int] = []
        for benchmark, reach in specs:
            key = (benchmark, reach)
            if key not in index_of:
                if benchmark not in app_logs:
                    profile = get_profile(benchmark)
                    app_logs[benchmark] = cached_log(
                        profile,
                        seed=seed,
                        scale=profile.default_scale * scale_multiplier,
                    )
                app_log = app_logs[benchmark]
                if reach:
                    workload = compose_with_libraries(
                        benchmark, app_log, libraries[:reach]
                    )
                else:
                    workload = ProcessWorkload(
                        name=benchmark,
                        log=app_log,
                        keys=workload_keys(benchmark, app_log),
                    )
                index_of[key] = len(distinct)
                distinct.append(_distill(workload))
            assignment.append(index_of[key])
        return cls(distinct, assignment)


def churn_plan(
    lengths: Sequence[int],
    seed: int = 42,
    fraction: float = DEFAULT_CHURN_FRACTION,
) -> list[ProcessStream]:
    """Deterministic spawn/exit churn over a fleet's streams.

    Each process independently spawns late with probability *fraction*
    (uniform spawn turn within the fleet's first ``2 P`` turns) and is
    killed early with probability *fraction* (keeping a uniform
    50–90% prefix of its records).  All draws come from one seeded
    substream, so the plan is a pure function of ``(lengths, seed,
    fraction)``.

    Raises:
        ConfigError: for a fraction outside ``[0, 1]``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"churn fraction must be in [0, 1], got {fraction:g}")
    rng = substream(seed, "shared.fleet.churn")
    horizon = max(1, 2 * len(lengths))
    streams: list[ProcessStream] = []
    for length in lengths:
        spawn_turn = 0
        limit = None
        if rng.random() < fraction:
            spawn_turn = rng.randrange(1, horizon + 1)
        if rng.random() < fraction:
            limit = int(length * (0.5 + 0.4 * rng.random()))
        streams.append(
            ProcessStream(length=length, spawn_turn=spawn_turn, limit=limit)
        )
    return streams
