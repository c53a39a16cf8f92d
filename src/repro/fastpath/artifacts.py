"""Content-addressed on-disk cache of workload artifacts.

Synthesizing a benchmark log is deterministic in (profile, seed,
scale) — yet every ``run-all``, sweep, service worker, and benchmark
process re-synthesizes the same logs from scratch.  This module
memoizes the two derived artifacts the experiment layer actually
consumes:

* the **compiled log** (:class:`~repro.fastpath.compiled.CompiledTraceLog`),
  stored in a raw columnar container (``array.tobytes`` per column) so
  a warm load is a handful of C-speed ``frombytes`` calls — far faster
  than re-synthesizing *or* re-parsing the RTL2 varint format;
* the **log statistics** (:class:`~repro.tracelog.stats.LogStatistics`),
  stored as JSON.

Keys are sha256 digests over a canonical JSON description of the
request: the full profile contents (not just its name), seed, scale,
artifact kind, container version, and a fingerprint of the synthesis
source modules.  Editing the synthesizer, the profile tables, or the
packed representation therefore invalidates every stale entry by
construction — there is no mtime or TTL logic to get wrong.

Entries are written atomically (temp file + ``os.replace``) and carry
a payload checksum verified on load; a corrupt or foreign entry is
treated as a miss and rewritten.  Any OSError degrades to a miss as
well — the cache can never fail an experiment.

The store location comes from ``REPRO_ARTIFACT_DIR`` (set it to an
empty string, ``0``, or ``off`` to disable caching), defaulting to
``~/.cache/repro-gencache/artifacts``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Callable

from repro.fastpath.compiled import CompiledTraceLog
from repro.tracelog.records import TraceLog
from repro.tracelog.stats import LogStatistics

#: Bumped whenever the container layout changes.
CONTAINER_VERSION = 1

CONTAINER_MAGIC = b"RAC1"

#: Environment variable overriding (or disabling) the store location.
ENV_DIR = "REPRO_ARTIFACT_DIR"

#: Process-wide counters surfaced by the timing JSON and the perf-smoke
#: CI job.  ``logs_synthesized`` counts actual synthesis runs — a fully
#: warm cache keeps it at zero.
ARTIFACT_TOTALS = {
    "hits": 0,
    "misses": 0,
    "stores": 0,
    "logs_synthesized": 0,
}

#: The columns of the container payload, in serialization order.
_COLUMNS = ("op", "time", "trace_id", "size", "module", "repeat")


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------

_source_fingerprint: str | None = None


def _fingerprint_sources() -> str:
    """Digest of the modules whose behavior the artifacts depend on.

    Any edit to the synthesizer, the profile tables, or the packed
    representation changes this fingerprint and thereby every key.
    """
    global _source_fingerprint
    if _source_fingerprint is None:
        from repro.fastpath import compiled
        from repro.workloads import catalog, profiles, synthesis

        digest = hashlib.sha256()
        for module in (synthesis, profiles, catalog, compiled):
            digest.update(Path(module.__file__).read_bytes())
        _source_fingerprint = digest.hexdigest()
    return _source_fingerprint


def artifact_key(kind: str, profile, seed: int, scale: float) -> str:
    """Content digest identifying one artifact.

    *profile* is serialized in full (every calibrated knob), so two
    profiles sharing a name but not behavior can never collide.
    """
    description = {
        "kind": kind,
        "version": CONTAINER_VERSION,
        "profile": asdict(profile),
        "seed": seed,
        "scale": scale,
        "sources": _fingerprint_sources(),
    }
    blob = json.dumps(description, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Columnar container codec
# ----------------------------------------------------------------------


def dump_compiled_container(compiled: CompiledTraceLog) -> bytes:
    """Serialize *compiled* column-by-column with a payload checksum.

    Unlike RTL2 this is not portable (native endianness and itemsize)
    — it is a machine-local cache format optimized for load speed, and
    the header records both so a foreign file reads as a miss.
    """
    payload = b"".join(getattr(compiled, column).tobytes() for column in _COLUMNS)
    header = json.dumps(
        {
            "benchmark": compiled.benchmark,
            "duration_seconds": compiled.duration_seconds,
            "code_footprint": compiled.code_footprint,
            "n": len(compiled),
            "byteorder": sys.byteorder,
            "itemsize": compiled.time.itemsize,
            "sha256": hashlib.sha256(payload).hexdigest(),
        },
        sort_keys=True,
    ).encode("utf-8")
    return (
        CONTAINER_MAGIC
        + len(header).to_bytes(4, "little")
        + header
        + payload
    )


def load_compiled_container(blob: bytes) -> CompiledTraceLog | None:
    """Deserialize a container, or None if it is corrupt or foreign."""
    if len(blob) < 8 or blob[:4] != CONTAINER_MAGIC:
        return None
    header_len = int.from_bytes(blob[4:8], "little")
    try:
        header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    compiled = CompiledTraceLog(
        benchmark=header["benchmark"],
        duration_seconds=header["duration_seconds"],
        code_footprint=header["code_footprint"],
    )
    if (
        header["byteorder"] != sys.byteorder
        or header["itemsize"] != compiled.time.itemsize
    ):
        return None
    n = header["n"]
    payload = memoryview(blob)[8 + header_len :]
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        return None
    widths = [getattr(compiled, column).itemsize * n for column in _COLUMNS]
    if len(payload) != sum(widths):
        return None
    offset = 0
    for column, width in zip(_COLUMNS, widths):
        getattr(compiled, column).frombytes(payload[offset : offset + width])
        offset += width
    return compiled


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class ArtifactCache:
    """A content-addressed directory of workload artifacts."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _path(self, key: str, suffix: str) -> Path:
        return self.root / key[:2] / f"{key}{suffix}"

    def _read(self, path: Path) -> bytes | None:
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        return blob

    def _write(self, path: Path, blob: bytes) -> None:
        """Atomic publish: readers see the old entry or the new one,
        never a torn write (workers share the store concurrently)."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{path.name}."
            )
            try:
                with os.fdopen(fd, "wb") as stream:
                    stream.write(blob)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return  # a full or read-only disk must not fail the run
        ARTIFACT_TOTALS["stores"] += 1

    # -- compiled logs -------------------------------------------------

    def compiled_log(
        self,
        profile,
        seed: int,
        scale: float,
        synthesize: Callable[[], TraceLog],
    ) -> tuple[CompiledTraceLog, TraceLog | None]:
        """The compiled log for (profile, seed, scale).

        On a miss, *synthesize* produces the object log, which is
        compiled, stored, and returned alongside (so a caller that
        also wants the object form need not decompile).  On a hit the
        second element is None.
        """
        from repro.fastpath.compiled import compile_log

        path = self._path(artifact_key("compiled-log", profile, seed, scale), ".rac")
        blob = self._read(path)
        if blob is not None:
            compiled = load_compiled_container(blob)
            if compiled is not None:
                ARTIFACT_TOTALS["hits"] += 1
                return compiled, None
        ARTIFACT_TOTALS["misses"] += 1
        ARTIFACT_TOTALS["logs_synthesized"] += 1
        log = synthesize()
        compiled = compile_log(log)
        self._write(path, dump_compiled_container(compiled))
        return compiled, log

    # -- log statistics ------------------------------------------------

    def log_stats(
        self,
        profile,
        seed: int,
        scale: float,
        compute: Callable[[], LogStatistics],
    ) -> LogStatistics:
        """The summary statistics for (profile, seed, scale)."""
        path = self._path(artifact_key("log-stats", profile, seed, scale), ".json")
        blob = self._read(path)
        if blob is not None:
            try:
                fields = json.loads(blob.decode("utf-8"))
                stats = LogStatistics(**fields)
            except (ValueError, TypeError, UnicodeDecodeError):
                stats = None
            if stats is not None:
                ARTIFACT_TOTALS["hits"] += 1
                return stats
        ARTIFACT_TOTALS["misses"] += 1
        stats = compute()
        self._write(
            path, json.dumps(asdict(stats), sort_keys=True).encode("utf-8")
        )
        return stats


# ----------------------------------------------------------------------
# Process-wide configuration
# ----------------------------------------------------------------------

_UNSET = object()
_cache: object = _UNSET


def get_cache() -> ArtifactCache | None:
    """The process-wide store, or None when caching is disabled.

    Resolved once from ``REPRO_ARTIFACT_DIR`` (empty/``0``/``off``
    disables; unset uses the default under ``~/.cache``); override
    with :func:`configure`.
    """
    global _cache
    if _cache is _UNSET:
        env = os.environ.get(ENV_DIR)
        if env is not None and env.strip().lower() in ("", "0", "off", "none"):
            _cache = None
        elif env is not None:
            _cache = ArtifactCache(env)
        else:
            _cache = ArtifactCache(
                Path.home() / ".cache" / "repro-gencache" / "artifacts"
            )
    return _cache  # type: ignore[return-value]


def configure(root: str | Path | None) -> ArtifactCache | None:
    """Point the process at *root* (None disables caching)."""
    global _cache
    _cache = None if root is None else ArtifactCache(root)
    return _cache


def cached_log(profile, seed: int, scale: float) -> TraceLog:
    """Synthesize (profile, seed, scale) through the artifact store.

    A warm store reconstructs the object log from the compiled
    artifact (lossless) instead of re-running the synthesizer — used
    by callers outside :class:`~repro.experiments.dataset.WorkloadDataset`
    (e.g. shared-cache workload composition) that need record objects.
    """
    from repro.workloads.synthesis import synthesize_log

    store = get_cache()
    if store is None:
        ARTIFACT_TOTALS["logs_synthesized"] += 1
        return synthesize_log(profile, seed=seed, scale=scale)
    compiled, log = store.compiled_log(
        profile,
        seed,
        scale,
        lambda: synthesize_log(profile, seed=seed, scale=scale),
    )
    return log if log is not None else compiled.decompile()
