"""Multi-process shared-cache simulation.

This package is the one engine behind both shared-cache experiments:
the paper-scale 2–8 process table (:mod:`repro.experiments.shared`)
and the fleet scaling curve up to P = 1024 and beyond
(:mod:`repro.experiments.fleet`).  Three ideas make it scale:

* **streaming scheduler** (:func:`stream_segments`): deterministic
  ``round-robin`` or seeded ``random`` schedules (:data:`SCHEDULES`)
  with O(1)-amortized turns over stream *shapes*, yielding index-range
  :class:`Segment`\\ s instead of per-record objects, with spawn/exit
  churn (:class:`ProcessStream`, :func:`churn_plan`);
* **lazy workloads** (:class:`FleetWorkloads`): each distinct
  (benchmark, library-reach) content is synthesized and compiled
  once; processes are assignments plus cursors, so memory scales with
  *distinct* workloads, not the process count;
* **columnar replay** (:class:`FleetSimulator`): per-record
  multi-process semantics driven over shared compiled columns,
  reporting a :class:`SharedSimulationResult` with one
  :class:`ProcessSummary` per process.

The per-record interleaver and simulator this engine replaced live on
in the test suite as the oracle it is pinned against.

The Zipf library-popularity model feeding heterogeneous fleets lives
with the composition code (:func:`repro.shared.compose.zipf_reaches`).

This package root is the public surface; the ``fleet-api`` cachelint
rule confines the scheduler/workload/simulator internals to it.
"""

from repro.shared.fleet.scheduler import (
    DEFAULT_QUANTUM,
    SCHEDULES,
    ProcessStream,
    Segment,
    stream_segments,
)
from repro.shared.fleet.simulator import (
    FleetSimulator,
    ProcessSummary,
    SharedSimulationResult,
)
from repro.shared.fleet.workloads import (
    DEFAULT_CHURN_FRACTION,
    DistinctWorkload,
    FleetWorkloads,
    churn_plan,
)

__all__ = [
    "DEFAULT_CHURN_FRACTION",
    "DEFAULT_QUANTUM",
    "DistinctWorkload",
    "FleetSimulator",
    "FleetWorkloads",
    "ProcessStream",
    "ProcessSummary",
    "SCHEDULES",
    "Segment",
    "SharedSimulationResult",
    "churn_plan",
    "stream_segments",
]
