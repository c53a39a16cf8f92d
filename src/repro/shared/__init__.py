"""Cross-process shared code caches (ShareJIT-style extension).

The paper models one process owning one cache hierarchy.  This package
extends the reproduction to multi-tenant scenarios: N processes replay
concurrently (deterministically interleaved and replayed by
:mod:`repro.shared.fleet`) against per-process nursery/probation
generations backed by one reference-counted
:class:`~repro.shared.cache.SharedPersistentCache`.
Trace identity is content-addressed (:class:`~repro.shared.identity.TraceKey`),
so structurally identical traces generated by different processes
intern to one shared copy — the footprint/compilation savings ShareJIT
(Xu et al., 2018) reports for Android JIT caches.  An optional
TRRIP-style reuse-temperature signal (Kao et al., 2025) can replace the
paper's fixed promotion threshold.

See ``docs/shared.md`` for the sharing model and invalidation
semantics.
"""

from repro.shared.cache import SHARED_PERSISTENT, SharedPersistentCache
from repro.shared.compose import ProcessWorkload, build_process_workloads
from repro.shared.identity import TraceInterner, TraceKey
from repro.shared.manager import InsertOutcome, SharedCacheGroup, make_group
from repro.shared.policy import (
    MIX_KINDS,
    POLICY_VARIANTS,
    SharingConfig,
    SharingPolicy,
    TemperatureTracker,
    sharing_config_for,
)

__all__ = [
    "InsertOutcome",
    "MIX_KINDS",
    "SHARED_PERSISTENT",
    "POLICY_VARIANTS",
    "ProcessWorkload",
    "SharedCacheGroup",
    "SharedPersistentCache",
    "SharingConfig",
    "SharingPolicy",
    "TemperatureTracker",
    "TraceInterner",
    "TraceKey",
    "build_process_workloads",
    "make_group",
    "sharing_config_for",
]
