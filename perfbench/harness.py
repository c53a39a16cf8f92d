"""Pure helpers shared by ``run.py`` and its child interpreters.

Nothing here imports :mod:`repro`: ``run.py`` uses these before any
program code is loaded, and the unit tests exercise them without a
checkout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path

#: Percentiles the tail-latency rule chooses from, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)


@dataclass(frozen=True)
class Tail:
    """The highest percentile of a sample with enough samples beyond it."""

    percentile: float
    value: float
    samples: int
    beyond: int


def tail_percentile(values, min_beyond: int = MIN_BEYOND) -> Tail | None:
    """Nearest-rank value at the highest of :data:`TAIL_PERCENTILES`
    that leaves at least *min_beyond* samples strictly beyond its rank.

    Returns None when even the median leaves too few samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= min_beyond:
            best = Tail(pct, ordered[rank - 1], n, n - rank)
    return best


def text_digest(text: str) -> str:
    """Content digest of one rendered table."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_mismatches(actual: dict, expected: dict) -> list[str]:
    """Names of tables whose digest differs from, or is missing in,
    *expected* — and expected tables the run did not produce."""
    names = sorted(set(actual) | set(expected))
    return [name for name in names if actual.get(name) != expected.get(name)]


def count_drift(actual: dict, reference: dict) -> list[str]:
    """Counters present in both snapshots whose values differ.

    A counter missing on either side is an omitted metric, not drift,
    so a program that drops a counter does not fail the run.
    """
    return sorted(
        key for key in set(actual) & set(reference) if actual[key] != reference[key]
    )


def counter_delta(before: dict | None, after: dict | None) -> dict:
    """Per-key numeric difference of two counter snapshots (keys of
    *after* only; an absent snapshot yields no counters)."""
    if before is None or after is None:
        return {}
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, 0.0 for an empty denominator."""
    return numerator / denominator if denominator else 0.0


def fastpath_metrics(fastpath: dict, artifacts: dict) -> dict:
    """Per-layer ratios and counts from program counter deltas.

    A counter the program does not keep leaves its metric out."""
    metrics = {}
    if "hits" in artifacts and "misses" in artifacts:
        metrics["fastpath.artifacts.hit_ratio"] = ratio(
            artifacts["hits"], artifacts["hits"] + artifacts["misses"]
        )
    for key in ("plans_built", "plans_loaded"):
        if key in fastpath:
            metrics[f"fastpath.{key}"] = fastpath[key]
    if "streak_records" in fastpath and "records_replayed" in fastpath:
        metrics["fastpath.streak_share"] = ratio(
            fastpath["streak_records"], fastpath["records_replayed"]
        )
    if "segment_side_exits" in fastpath and "segment_commits" in fastpath:
        exits = fastpath["segment_side_exits"]
        metrics["fastpath.side_exit_ratio"] = ratio(
            exits, fastpath["segment_commits"] + exits
        )
    return metrics


@dataclass
class Tally:
    """Operations attempted and failed in one run, with the reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, count in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    @property
    def failed_frac(self) -> float:
        return ratio(self.failed, self.attempted)


def child_env(base: dict, src: Path, home: Path) -> dict:
    """The environment of a child interpreter.

    Every ``REPRO_*`` switch is removed, so the program runs as shipped
    (default replay tier, store chosen by the child itself).  ``HOME``
    and ``TMPDIR`` point into the run's private directory, so nothing
    reads or writes a user cache such as ``~/.cache``.
    """
    env = {key: value for key, value in base.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    env["HOME"] = str(home)
    env["TMPDIR"] = str(home)
    env.pop("XDG_CACHE_HOME", None)
    return env


def write_json_atomic(path: Path, data) -> None:
    """Publish *data* as JSON at *path* via a same-directory rename."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, path)
