"""The fleet tier: scale-out distribution over ``repro-serve`` shards.

One ``repro-serve`` process is the single-machine ceiling of the CEC
service. This package adds the distribution layer above it:

* :mod:`repro.fleet.ring` — deterministic consistent-hash ring with
  bounded key movement on membership changes.
* :mod:`repro.fleet.aioclient` — asyncio client for the line-JSON
  service/fleet protocols (the router's connections to its shards).
* :mod:`repro.fleet.router` — the ``repro-router`` front door:
  routes submits by proof-cache key, brokers cross-shard
  ``repro-fleet/1`` cache transfers, health-checks shards, stitches
  traces across the extra hop, and exposes Prometheus metrics.

See ``docs/fleet.md`` for the topology, failure modes, and retry
semantics.
"""

from .aioclient import AsyncServiceClient
from .ring import DEFAULT_REPLICAS, HashRing
from .router import FleetRouter

__all__ = [
    "AsyncServiceClient",
    "DEFAULT_REPLICAS",
    "FleetRouter",
    "HashRing",
]
