"""Battery-as-a-service serving: the SDB API over a live fleet run.

The paper's four calls — QueryBatteryStatus, SetCharge, SetDischarge,
SelectChargingProfile — exposed as a stdlib-only HTTP service against a
running :class:`~repro.fleet.FleetSupervisor`, designed around failure:

* :mod:`repro.serve.protocol` — the wire contract: deadline-stamped
  requests, typed errors with explicit retryability, degraded-read
  fields, and the one dispatcher every door hands a call to;
* :mod:`repro.serve.admission` — bounded admission: a full queue
  answers the newcomer 429, and an admitted call is never shed;
* :mod:`repro.serve.breaker` — per-shard circuit breakers
  (closed → open → half-open) over the fleet's retry policy;
* :mod:`repro.serve.cache` — the status cache refreshed at heartbeat
  cadence that keeps reads answering (staleness flagged, never hidden)
  while shards die and restart;
* :mod:`repro.serve.bridge` — the supervisor/front-end seam: shard
  health, status feed, and the queue pair each call crosses to its
  worker and back;
* :mod:`repro.serve.service` — :class:`FleetFrontEnd`, the
  transport-agnostic service layer;
* :mod:`repro.serve.server` — the HTTP skin and
  :class:`ServingFleet`, the one-stop orchestrator the ``repro serve``
  CLI uses.

See ``docs/serving.md`` for the wire protocol and failure semantics.
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.bridge import ServeBridge, ShardHealth
from repro.serve.cache import CacheEntry, StatusCache
from repro.serve.protocol import (
    HTTP_STATUS,
    MUTATING_OPS,
    OPS,
    RETRYABLE,
    ServeRequest,
    ServeResponse,
    error_response,
    parse_ratios,
    status_to_wire,
)
from repro.serve.server import SDBRequestHandler, ServingFleet, make_http_server
from repro.serve.service import FleetFrontEnd, ServeConfig

__all__ = [
    "OPS",
    "MUTATING_OPS",
    "RETRYABLE",
    "HTTP_STATUS",
    "ServeRequest",
    "ServeResponse",
    "error_response",
    "status_to_wire",
    "parse_ratios",
    "AdmissionQueue",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "StatusCache",
    "CacheEntry",
    "ServeBridge",
    "ShardHealth",
    "FleetFrontEnd",
    "ServeConfig",
    "ServingFleet",
    "SDBRequestHandler",
    "make_http_server",
]
