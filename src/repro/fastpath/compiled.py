"""Packed struct-of-arrays trace logs (the compiled representation).

The object representation (:class:`~repro.tracelog.records.TraceLog`)
stores one frozen dataclass per record — ideal for construction and
inspection, but replay touches every record of a multi-hundred-thousand
event log once per cache configuration, and the per-object attribute
and ``isinstance`` overhead dominates the replay loop.

:class:`CompiledTraceLog` packs the same information into six parallel
``array`` columns (one machine word per field instead of one Python
object per record):

======== ========== ==================================================
column   type code  meaning
======== ========== ==================================================
op       ``B``      record opcode (same numbering as the RTL2 binary
                    format tags: 1=create 2=access 3=unmap 4=pin
                    5=unpin 6=end)
time     ``q``      virtual timestamp
trace_id ``q``      trace id (0 for unmap/end records)
size     ``q``      trace size in bytes (create records, else 0)
module   ``q``      module id (create/unmap records, else 0)
repeat   ``q``      compressed consecutive-entry count (access
                    records, else 0)
======== ========== ==================================================

The compilation is a one-time pass over the record objects and is
**lossless**: :meth:`CompiledTraceLog.decompile` reproduces a
``TraceLog`` whose records compare equal to the source, and the RTL2
binary serialization of both forms is byte-identical (see
:mod:`repro.tracelog.binary`).

Everything that reads or writes the columns directly lives in this
package (plus the sanctioned RTL2 codec); other layers use the public
constructors, the ``TraceLog``-compatible summary properties, and the
row iterators.  The ``fastpath-api`` cachelint rule enforces this.
"""

from __future__ import annotations

from array import array
from typing import Iterator

from repro.errors import LogFormatError
from repro.tracelog.records import (
    EndOfLog,
    LogRecord,
    ModuleUnmap,
    TraceAccess,
    TraceCreate,
    TraceLog,
    TracePin,
    TraceUnpin,
)

#: Opcodes — deliberately identical to the RTL2 binary record tags so
#: the compiled form serializes without a translation table.
OP_CREATE = 1
OP_ACCESS = 2
OP_UNMAP = 3
OP_PIN = 4
OP_UNPIN = 5
OP_END = 6

#: One row of a compiled log: (op, time, trace_id, size, module, repeat).
Row = tuple[int, int, int, int, int, int]


class CompiledTraceLog:
    """A trace log packed into parallel columns.

    Build one with :func:`compile_log` (or
    :meth:`repro.tracelog.records.TraceLog.compile`), or row by row via
    :meth:`append_row` when decoding a serialized log directly into
    packed form.

    The summary properties mirror :class:`TraceLog`'s so replay and
    reporting code can accept either representation.
    """

    __slots__ = (
        "benchmark",
        "duration_seconds",
        "code_footprint",
        "op",
        "time",
        "trace_id",
        "size",
        "module",
        "repeat",
    )

    def __init__(
        self,
        benchmark: str,
        duration_seconds: float,
        code_footprint: int,
    ) -> None:
        self.benchmark = benchmark
        self.duration_seconds = duration_seconds
        self.code_footprint = code_footprint
        self.op = array("B")
        self.time = array("q")
        self.trace_id = array("q")
        self.size = array("q")
        self.module = array("q")
        self.repeat = array("q")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def append_row(
        self,
        op: int,
        time: int,
        trace_id: int = 0,
        size: int = 0,
        module: int = 0,
        repeat: int = 0,
    ) -> None:
        """Append one packed record."""
        self.op.append(op)
        self.time.append(time)
        self.trace_id.append(trace_id)
        self.size.append(size)
        self.module.append(module)
        self.repeat.append(repeat)

    # ------------------------------------------------------------------
    # TraceLog-compatible summary API
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.op)

    @property
    def n_records(self) -> int:
        """Number of packed records."""
        return len(self.op)

    @property
    def end_time(self) -> int:
        """Total virtual execution time (EndOfLog record, or the last
        record's time if the log is unterminated)."""
        ops = self.op
        for index in range(len(ops) - 1, -1, -1):
            if ops[index] == OP_END:
                return self.time[index]
        return self.time[-1] if ops else 0

    @property
    def n_traces(self) -> int:
        """Number of distinct traces created."""
        return self.op.count(OP_CREATE)

    @property
    def total_trace_bytes(self) -> int:
        """Total bytes of traces created over the whole run."""
        return sum(self.size)

    @property
    def n_accesses(self) -> int:
        """Total trace entries including compressed repeats."""
        return sum(self.repeat)

    # ------------------------------------------------------------------
    # Row/record iteration
    # ------------------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        """Yield every packed record as a plain tuple."""
        return zip(
            self.op, self.time, self.trace_id, self.size, self.module, self.repeat
        )

    def iter_records(self) -> Iterator[LogRecord]:
        """Yield record *objects* lazily (the object-path fallback for
        sanitized replays, without materializing a full list)."""
        for op, time, trace_id, size, module, repeat in self.rows():
            yield _REBUILD[op](time, trace_id, size, module, repeat)

    def decompile(self) -> TraceLog:
        """Reconstruct the object representation (lossless)."""
        log = TraceLog(
            benchmark=self.benchmark,
            duration_seconds=self.duration_seconds,
            code_footprint=self.code_footprint,
        )
        log.records = list(self.iter_records())
        return log

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompiledTraceLog(benchmark={self.benchmark!r}, "
            f"records={len(self.op)})"
        )


# ----------------------------------------------------------------------
# Record object <-> row conversion tables
# ----------------------------------------------------------------------


def _rebuild_create(time: int, trace_id: int, size: int, module: int, _r: int):
    return TraceCreate(time=time, trace_id=trace_id, size=size, module_id=module)


def _rebuild_access(time: int, trace_id: int, _s: int, _m: int, repeat: int):
    return TraceAccess(time=time, trace_id=trace_id, repeat=repeat)


def _rebuild_unmap(time: int, _t: int, _s: int, module: int, _r: int):
    return ModuleUnmap(time=time, module_id=module)


def _rebuild_pin(time: int, trace_id: int, _s: int, _m: int, _r: int):
    return TracePin(time=time, trace_id=trace_id)


def _rebuild_unpin(time: int, trace_id: int, _s: int, _m: int, _r: int):
    return TraceUnpin(time=time, trace_id=trace_id)


def _rebuild_end(time: int, _t: int, _s: int, _m: int, _r: int):
    return EndOfLog(time=time)


_REBUILD = {
    OP_CREATE: _rebuild_create,
    OP_ACCESS: _rebuild_access,
    OP_UNMAP: _rebuild_unmap,
    OP_PIN: _rebuild_pin,
    OP_UNPIN: _rebuild_unpin,
    OP_END: _rebuild_end,
}


def compile_log(log: TraceLog) -> CompiledTraceLog:
    """Pack *log* into the columnar representation (one pass).

    Raises:
        LogFormatError: on a record type outside the closed LogRecord
            union.
    """
    compiled = CompiledTraceLog(
        benchmark=log.benchmark,
        duration_seconds=log.duration_seconds,
        code_footprint=log.code_footprint,
    )
    append = compiled.append_row
    for record in log.records:
        kind = type(record)
        if kind is TraceAccess:
            append(OP_ACCESS, record.time, record.trace_id, 0, 0, record.repeat)
        elif kind is TraceCreate:
            append(
                OP_CREATE,
                record.time,
                record.trace_id,
                record.size,
                record.module_id,
                0,
            )
        elif kind is ModuleUnmap:
            append(OP_UNMAP, record.time, 0, 0, record.module_id, 0)
        elif kind is TracePin:
            append(OP_PIN, record.time, record.trace_id, 0, 0, 0)
        elif kind is TraceUnpin:
            append(OP_UNPIN, record.time, record.trace_id, 0, 0, 0)
        elif kind is EndOfLog:
            append(OP_END, record.time, 0, 0, 0, 0)
        else:
            raise LogFormatError(
                f"cannot compile record type {type(record).__name__}"
            )
    return compiled


def ensure_compiled(log: TraceLog | CompiledTraceLog) -> CompiledTraceLog:
    """Return *log* packed, compiling the object form if necessary."""
    if isinstance(log, CompiledTraceLog):
        return log
    return compile_log(log)


#: One compiled log's parallel columns, in schema order.
Columns = tuple[array, array, array, array, array, array]


def log_columns(log: TraceLog | CompiledTraceLog) -> Columns:
    """The packed ``(op, time, trace_id, size, module, repeat)`` columns.

    The sanctioned *read-only* view for replay loops outside this
    package (the fleet simulator walks scheduler-issued index ranges
    over these arrays): callers get column speed without constructing
    or mutating a :class:`CompiledTraceLog` themselves, so the
    ``fastpath-api`` confinement of the column writers still holds.
    """
    compiled = ensure_compiled(log)
    return (
        compiled.op,
        compiled.time,
        compiled.trace_id,
        compiled.size,
        compiled.module,
        compiled.repeat,
    )
