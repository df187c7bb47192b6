"""The canonical streaming request API: frozen ``Operation`` objects.

PR 5 froze the *configuration* currency (:class:`~repro.core.framework.
FrameworkConfig`, :class:`~repro.experiments.RunRequest`); this module
freezes the *traffic* currency.  Before it, the serving stack only knew
read queries, spelled as loose ``(caller, indices, label)`` tuples in
three different signatures (``CoalescingScheduler.submit``,
``QueryService.submit``, ``CallerOracle.query_batch``).  The amplitude
sketch layer (:mod:`repro.apps.sketches`) adds *writes* to the stream,
so requests now come in kinds — and the kinds deserve one canonical,
validated, hashable type instead of a fourth positional spelling.

An :class:`Operation` is one unit of client traffic:

* ``Operation.query(caller, indices)`` — a read against a batch oracle
  lane (the specialization every pre-existing call site maps onto; the
  experiment layer's :class:`~repro.experiments.RunRequest` is the same
  read-side discipline one level up),
* ``Operation.sketch_query(caller, items)`` — a read against an
  amplitude-sketch lane (payload is hashable items, not oracle indices),
* ``Operation.insert(caller, items)`` — a write into an amplitude
  sketch (the new kind; inserts invalidate the lane's result memo).

An operation is a plain value: hashable, comparable, safe to log, safe
to key on.  The load generator (:mod:`repro.serve.loadgen`) schedules
each one as an ``OperationArrival``.

Every accepting side (schedulers, daemon) takes an :class:`Operation`
only; anything else is a ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence, Tuple

__all__ = ["Operation", "OPERATION_KINDS"]

#: The two traffic kinds: reads ("query") and sketch writes ("insert").
OPERATION_KINDS = ("query", "insert")


@dataclass(frozen=True)
class Operation:
    """One unit of client traffic, frozen and validated on construction.

    Exactly one payload field is populated: ``indices`` for oracle reads,
    ``items`` for sketch reads and writes.  Build instances through the
    named constructors (:meth:`query`, :meth:`sketch_query`,
    :meth:`insert`) rather than spelling the fields out.
    """

    kind: str
    caller: str
    indices: Tuple[int, ...] = ()
    items: Tuple[Any, ...] = ()
    label: str = ""

    def __post_init__(self):
        if self.kind not in OPERATION_KINDS:
            raise ValueError(
                f"unknown operation kind {self.kind!r}; "
                f"expected one of {OPERATION_KINDS}"
            )
        if not isinstance(self.caller, str) or not self.caller:
            raise ValueError("caller must be a non-empty string")
        if self.indices and self.items:
            raise ValueError(
                "an operation carries either indices (oracle read) or "
                "items (sketch traffic), never both"
            )
        if self.kind == "insert" and not self.items:
            raise ValueError("insert operations must carry items")
        if not self.indices and not self.items:
            raise ValueError("empty operation (no indices, no items)")
        if self.indices and any(
            not isinstance(j, int) or isinstance(j, bool) for j in self.indices
        ):
            raise ValueError("indices must be plain ints")

    # -- named constructors ---------------------------------------------

    @classmethod
    def query(
        cls, caller: str, indices: Sequence[int], label: str = ""
    ) -> "Operation":
        """A read against a batch-oracle lane (the PR 5/6 read path)."""
        return cls(kind="query", caller=caller, indices=tuple(indices),
                   label=label)

    @classmethod
    def sketch_query(
        cls, caller: str, items: Sequence[Any], label: str = ""
    ) -> "Operation":
        """A read (overlap query) against an amplitude-sketch lane."""
        return cls(kind="query", caller=caller, items=tuple(items),
                   label=label)

    @classmethod
    def insert(
        cls, caller: str, items: Sequence[Any], label: str = ""
    ) -> "Operation":
        """A write (phase-accumulation insert) into an amplitude sketch."""
        return cls(kind="insert", caller=caller, items=tuple(items),
                   label=label)

    # -- derived --------------------------------------------------------

    @property
    def size(self) -> int:
        """Payload width: what admission control and quotas meter."""
        return len(self.indices) or len(self.items)

    @property
    def is_write(self) -> bool:
        return self.kind == "insert"

    def replace(self, **changes: Any) -> "Operation":
        """A copy with the given fields replaced (re-validated)."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)

