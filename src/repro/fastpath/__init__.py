"""Compiled replay fast path.

Three pieces, built for the ROADMAP goal of replaying the same verbose
trace log against many cache configurations at production scale:

* :mod:`repro.fastpath.compiled` — the packed struct-of-arrays trace
  log (:class:`CompiledTraceLog`), built once from the record objects
  and losslessly decompilable;
* :mod:`repro.fastpath.replay` — the batched replay loop
  :func:`replay_compiled`, selected automatically by
  :class:`repro.cachesim.simulator.CacheSimulator` when the manager is
  ``fastpath_safe`` and no sanitizer is attached;
* :mod:`repro.fastpath.artifacts` — the content-addressed on-disk
  cache of synthesized workloads (imported on demand:
  ``from repro.fastpath import artifacts``).

This package root is the public surface.  The packed-column internals
(``repro.fastpath.compiled`` / ``repro.fastpath.replay`` module
imports, direct ``CompiledTraceLog(...)`` construction) are reserved
for this package and the RTL2 codec — enforced by the
``fastpath-api`` cachelint rule.
"""

from repro.fastpath.compiled import (
    OP_ACCESS,
    OP_CREATE,
    OP_END,
    OP_PIN,
    OP_UNMAP,
    OP_UNPIN,
    CompiledTraceLog,
    compile_log,
    ensure_compiled,
    log_columns,
)
from repro.fastpath.replay import (
    FASTPATH_TOTALS,
    disable_fastpath,
    enable_fastpath,
    fastpath_enabled,
    object_path,
    replay_compiled,
)

__all__ = [
    "CompiledTraceLog",
    "FASTPATH_TOTALS",
    "OP_ACCESS",
    "OP_CREATE",
    "OP_END",
    "OP_PIN",
    "OP_UNMAP",
    "OP_UNPIN",
    "log_columns",
    "compile_log",
    "disable_fastpath",
    "enable_fastpath",
    "ensure_compiled",
    "fastpath_enabled",
    "object_path",
    "replay_compiled",
]
