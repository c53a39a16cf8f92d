"""On-disk, content-addressed result store.

Completed job payloads are persisted as JSON blobs keyed by job id, so
any later submission of the identical job — same experiment, workload,
cache config, policy and seed — is served from disk instead of being
re-simulated.

Durability model:

* **Atomic writes.** A blob is written to a temporary file in the same
  directory and ``os.replace``-d into place, so readers only ever see
  a missing blob or a complete one, never a partial write — which is
  what makes concurrent readers and writers safe without locks.
* **Corruption detection.** Every blob embeds a SHA-256 checksum of
  its payload's canonical JSON.  A truncated, garbled or
  checksum-mismatched blob is treated as a *miss*: :meth:`ResultStore.get`
  quietly discards it and returns None so the scheduler recomputes,
  rather than crashing or serving bad data.
"""

from __future__ import annotations

import abc
import hashlib
import json
import os
import threading
from pathlib import Path

from repro.service.jobs import canonical_json

#: Blob envelope format version.
STORE_FORMAT = 1


def _payload_checksum(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class ResultStoreBase(abc.ABC):
    """What the scheduler needs from a result store.

    The scheduler memoizes through this interface only — ``get`` on
    submission, ``put`` on completion, ``discard`` on corruption — so
    alternative stores (e.g. the cluster's
    :class:`repro.cluster.store_tier.TieredResultStore`, which layers a
    generational in-memory hot tier over this package's disk store) can
    be attached without the scheduler knowing.

    Contract: ``get`` never raises on absence or corruption (both are
    misses returning None); ``put`` may raise :class:`OSError`, which
    the scheduler counts as a ``store_error`` and tolerates.
    """

    @abc.abstractmethod
    def get(self, job_id: str) -> dict | None:
        """The stored payload, or None when absent or corrupt."""

    @abc.abstractmethod
    def put(self, job_id: str, payload: dict) -> object:
        """Persist *payload* under *job_id*."""

    @abc.abstractmethod
    def discard(self, job_id: str) -> None:
        """Delete *job_id*'s entry if present (missing is fine)."""

    def __contains__(self, job_id: str) -> bool:
        return self.get(job_id) is not None


class ResultStore(ResultStoreBase):
    """A directory of memoized job payloads.

    Args:
        root: Directory to keep blobs under (created lazily).  Blobs
            are sharded by the first two id characters to keep single
            directories small.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, job_id: str) -> Path:
        """Where *job_id*'s blob lives (whether or not it exists)."""
        return self.root / job_id[:2] / f"{job_id}.json"

    def put(self, job_id: str, payload: dict) -> Path:
        """Atomically persist *payload* under *job_id*."""
        target = self.path_for(job_id)
        target.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "format": STORE_FORMAT,
            "job_id": job_id,
            "checksum": _payload_checksum(payload),
            "payload": payload,
        }
        # Unique per-writer temp name (pid + thread id: the collector
        # threads of every shard write here); os.replace makes the publish
        # atomic even with concurrent writers of the same id.
        tmp = target.parent / (
            f".{job_id}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_text(canonical_json(envelope), encoding="utf-8")
        os.replace(tmp, target)
        return target

    def get(self, job_id: str) -> dict | None:
        """The stored payload, or None when absent or corrupt.

        A corrupt blob (unparseable, wrong format/id, or checksum
        mismatch) is deleted so the next :meth:`put` recreates it.
        """
        target = self.path_for(job_id)
        try:
            raw = target.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            envelope = json.loads(raw)
        except ValueError:
            self.discard(job_id)
            return None
        payload = envelope.get("payload") if isinstance(envelope, dict) else None
        if (
            not isinstance(envelope, dict)
            or not isinstance(payload, dict)
            or envelope.get("format") != STORE_FORMAT
            or envelope.get("job_id") != job_id
            or envelope.get("checksum") != _payload_checksum(payload)
        ):
            self.discard(job_id)
            return None
        return payload

    def __contains__(self, job_id: str) -> bool:
        return self.get(job_id) is not None

    def discard(self, job_id: str) -> None:
        """Delete *job_id*'s blob if present (missing is fine)."""
        try:
            self.path_for(job_id).unlink()
        except OSError:
            pass  # already gone, or unreadable — either way a miss

    def job_ids(self) -> list[str]:
        """Ids of every blob currently on disk (sorted)."""
        if not self.root.is_dir():
            return []
        return sorted(
            path.stem
            for path in self.root.glob("??/j*.json")
            if not path.name.startswith(".")
        )
