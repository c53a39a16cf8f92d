"""Sharded cluster serving layer.

Serves the simulation service from N independent scheduler shards
(one for ``repro-gencache serve``) behind consistent-hash routing,
with streaming job-status subscriptions, bounded admission control,
and a generational in-memory hot tier over the disk result store — the
paper's cache hierarchy applied to the service's own result cache.

Layering (each module only reaches down):

* :mod:`repro.cluster.http` — asyncio front end (SSE streams, 429s)
* :mod:`repro.cluster.shards` — :class:`ClusterScheduler` facade
* :mod:`repro.cluster.ring`, :mod:`repro.cluster.admission`,
  :mod:`repro.cluster.events`, :mod:`repro.cluster.store_tier` —
  routing, load shedding, the thread→asyncio bridge, and the tiered
  store
* :mod:`repro.cluster.loadgen` — the synthetic benchmark driver

This package is the only place outside :mod:`repro.service` where
concurrency primitives (and the only place at all where ``asyncio``)
may appear; the ``no-raw-concurrency`` and ``cluster-api`` lint rules
enforce that boundary.
"""

from repro.cluster.admission import AdmissionController
from repro.cluster.events import EventBus
from repro.cluster.ring import ShardRing
from repro.cluster.shards import ClusterScheduler
from repro.cluster.store_tier import TieredResultStore

__all__ = [
    "AdmissionController",
    "ClusterScheduler",
    "EventBus",
    "ShardRing",
    "TieredResultStore",
]
