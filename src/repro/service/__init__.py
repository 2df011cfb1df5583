"""The concurrent multi-client service layer (§2, §5.2–5.3).

Turns the in-process engine into a real service behind the gateway
(:mod:`repro.gateway`): the root core (:mod:`transport`), a session
manager holding per-client soft state with idle expiry
(:mod:`sessions`), an admission-controlled fair-share query scheduler
with newest-query-wins cancellation (:mod:`scheduler`), and — for the
horizontal tier — sticky, versioned shard placement so many roots share
one worker fleet (:mod:`repro.engine.placement`, re-exported here), pluggable shared session stores so a
session resumes on any root (:mod:`session_store`), and a round-robin
connection director for tests and benchmarks (:mod:`director`).
"""

from repro.engine.placement import (
    PlacementError,
    StalePlacementError,
    parse_fleet_spec,
    plan_moves,
)
from repro.service.autoscaler import (
    Autoscaler,
    AutoscalerConfig,
    Decision,
    fleet_pressure,
    worker_pressure,
)
from repro.service.director import ConnectionDirector, probe_gateway
from repro.service.scheduler import (
    FairShareScheduler,
    QueryTask,
    SchedulerMetrics,
)
from repro.service.session_store import (
    InMemorySessionStore,
    SessionRecord,
    SessionStore,
    SessionStoreError,
    SqliteSessionStore,
    open_session_store,
)
from repro.service.sessions import (
    Session,
    SessionManager,
    SessionMetrics,
    source_from_json,
)
from repro.service.slow import SlowdownSketch
from repro.service.transport import ServiceServer

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "ConnectionDirector",
    "Decision",
    "FairShareScheduler",
    "InMemorySessionStore",
    "PlacementError",
    "QueryTask",
    "SchedulerMetrics",
    "ServiceServer",
    "Session",
    "SessionManager",
    "SessionMetrics",
    "SessionRecord",
    "SessionStore",
    "SessionStoreError",
    "SlowdownSketch",
    "SqliteSessionStore",
    "StalePlacementError",
    "fleet_pressure",
    "open_session_store",
    "parse_fleet_spec",
    "plan_moves",
    "probe_gateway",
    "source_from_json",
    "worker_pressure",
]
