"""The query session service — the repository's public facade.

``Session`` is the one entry point for SQL-in → plan → execute →
result/trace-out; ``PreparedQuery`` is the cached-plan handle it hands
back. Everything underneath (statistics, estimators, the optimizer,
the engine) stays wired exactly as the paper prescribes — callers just
stop re-wiring it by hand.

>>> from repro import Session
>>> session = Session(database, policy="moderate")
>>> prepared = session.prepare("SELECT COUNT(*) FROM lineitem")
>>> result = prepared.execute()
>>> print(session.explain("SELECT COUNT(*) FROM lineitem"))
"""

from repro.service.cache import PlanCache, PlanCacheError
from repro.service.fingerprint import canonical_sql, query_fingerprint
from repro.service.session import (
    DEGRADED,
    HEALTHY,
    PreparedQuery,
    QueryResult,
    Session,
    SessionConfig,
    SessionError,
)

__all__ = [
    "DEGRADED",
    "HEALTHY",
    "PlanCache",
    "PlanCacheError",
    "PreparedQuery",
    "QueryResult",
    "Session",
    "SessionConfig",
    "SessionError",
    "canonical_sql",
    "query_fingerprint",
]
