"""Base class for physical operators."""

from __future__ import annotations

import functools
from typing import Iterator

from repro.expressions import Frame
from repro.engine.context import ExecutionContext


def _recording(body):
    """``body`` plus the operator's entries in the context's capture.

    The single place per-operator facts are captured: the output row
    count into ``ctx.operator_rows`` and the work charged between the
    operator's entry and exit — its whole subtree's, counters being
    additive — into ``ctx.operator_work``, each only when the context
    was given that mapping. It wraps each operator class's own
    ``execute`` when the class is created, so it runs however a parent
    reaches its child — including through a wrapper a tracer later puts
    on the class attribute.
    """

    @functools.wraps(body)
    def execute(self, ctx):
        if ctx.operator_work is None:
            frame = body(self, ctx)
        else:
            entry = ctx.counters.copy()
            frame = body(self, ctx)
            ctx.operator_work[self] = ctx.counters - entry
        if ctx.operator_rows is not None:
            ctx.operator_rows[self] = frame.num_rows
        return frame

    return execute


class PhysicalOperator:
    """A node in a physical plan tree.

    Subclasses implement :meth:`execute`, consuming child frames and
    charging work into ``ctx.counters``. Operators are stateless across
    executions, so a subtree may be shared between alternative plans
    during optimization.

    The optimizer annotates operators with ``est_rows`` (estimated
    output cardinality) and ``est_cost`` (estimated cumulative cost in
    simulated seconds); both are ``None`` on hand-built plans.
    """

    #: Estimated output rows, set by the optimizer.
    est_rows: float | None = None
    #: Estimated cumulative cost (seconds), set by the optimizer.
    est_cost: float | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "execute" in cls.__dict__:
            cls.execute = _recording(cls.__dict__["execute"])

    def execute(self, ctx: ExecutionContext) -> Frame:
        """Run the operator, returning its output frame."""
        raise NotImplementedError

    def children(self) -> list["PhysicalOperator"]:
        """Child operators, left to right."""
        return []

    def label(self) -> str:
        """One-line description used by ``explain``."""
        raise NotImplementedError

    def walk(self) -> Iterator["PhysicalOperator"]:
        """Yield this operator and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def explain(self, indent: int = 0) -> str:
        """Render the plan subtree as an indented text tree."""
        pieces = [f"{'  ' * indent}{self.label()}{self._annotation()}"]
        for child in self.children():
            pieces.append(child.explain(indent + 1))
        return "\n".join(pieces)

    def signature(self, indent: int = 0) -> str:
        """The plan's tree shape and operator labels, without the
        optimizer's cost/row annotations.

        Equal signatures mean the same operators over the same tables
        and indexes in the same tree shape — *not* the same predicates:
        some labels leave them out (``IndexedNLJoin`` omits its
        residual, ``NonEquiJoin`` prints only "+ residual",
        ``StarSemiJoin`` omits its dimension and fact predicates). Two
        plans of one statement differ only in the choices the labels
        show, so within a statement equal signatures charge identical
        work; across statements they may not. A cache that reuses
        executions by signature must scope its key to one statement:
        the session's execution memo, the one such cache, keys on
        ``(statement fingerprint, signature)`` (``Session._run``).
        """
        pieces = [f"{'  ' * indent}{self.label()}"]
        for child in self.children():
            pieces.append(child.signature(indent + 1))
        return "\n".join(pieces)

    def _annotation(self) -> str:
        parts = []
        if self.est_rows is not None:
            parts.append(f"rows={self.est_rows:.1f}")
        if self.est_cost is not None:
            parts.append(f"cost={self.est_cost:.4f}s")
        return f"  [{', '.join(parts)}]" if parts else ""

    def __repr__(self) -> str:
        return self.label()
