"""Query fingerprints: the plan-cache identity of an SPJ query.

A fingerprint hashes the canonical SQL: the parsed statement rendered
back by ``query_to_sql`` with its per-query hint stripped (the threshold
is part of the policy in the cache key, not of the statement). Rendering
from the parse tree normalizes the spelling that never reaches it:
keyword case and whitespace, redundant parentheses, nested ``AND``
groups (the parser flattens them), ``JOIN … ON`` versus a comma join
(the ON condition is a declared foreign key, which the schema supplies
either way) and default aggregate aliases (``COUNT(*)`` renders as
``COUNT(*) AS count_all``). It keeps the statement's order and
wording: the FROM order, the conjunct order, operand order (``45 < x``
versus ``x > 45``), literal spelling (``45`` versus ``45.0``),
``BETWEEN`` versus a pair of ranges, IN-list order and aggregate
aliases. Two spellings of one statement that differ in those
are different fingerprints, so they share no cached plan, execution or
shape. The fingerprint also seeds the posterior samples a penalty
policy draws (``sample_quantiles``), so normalizing more would change
those plans. Hashing keeps keys small and constant-size regardless of
predicate depth.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from repro.optimizer import SPJQuery
from repro.sql import query_to_sql


def canonical_sql(query: SPJQuery) -> str:
    """The canonical, hint-free SQL rendering of ``query``."""
    if query.hint is not None:
        query = replace(query, hint=None)
    return query_to_sql(query)


def query_fingerprint(query: SPJQuery) -> str:
    """A stable hex digest identifying ``query`` up to its hint."""
    return hashlib.sha256(canonical_sql(query).encode("utf-8")).hexdigest()[:20]
