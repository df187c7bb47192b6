"""Admission control and weighted fairness for the serving daemon.

Tenants are the daemon's isolation unit: each one gets a bounded request
queue (backpressure — a full queue *rejects*, it never silently grows), an
optional lifetime query quota, and a fair-share ``weight``.

Fairness is classic **stride scheduling** (Waldspurger & Weihl, OSDI '94):
tenant ``t`` has ``stride = STRIDE1 / weight``; whenever the daemon wants
the next request it picks the backlogged tenant with the smallest ``pass``
value and advances that tenant's pass by its stride.  Over any busy
interval each backlogged tenant is served in proportion to its weight, a
starved tenant's pass falls behind and it catches up deterministically,
and ties break by tenant name — no randomness, so a serving trace is
exactly reproducible from the arrival order.  Idleness earns no credit:
a tenant that joins, or whose queue refills from empty, resumes no
earlier than the pass of the latest pick.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional

__all__ = ["TenantQuota", "TenantState", "StridePicker", "AdmissionError"]

#: Stride numerator: large so integer-ish weights give well-separated
#: strides; floats are fine since passes only ever compare.
STRIDE1 = 1 << 20


class AdmissionError(Exception):
    """A request the daemon refused to queue (quota or backpressure).

    ``reason`` is machine-readable: ``"queue-full"`` (the tenant's
    bounded queue is at capacity — the backpressure signal clients are
    expected to back off on) or ``"quota"`` (the tenant exhausted its
    lifetime query allowance).
    """

    def __init__(self, tenant: str, reason: str, detail: str = ""):
        self.tenant = tenant
        self.reason = reason
        super().__init__(
            f"tenant {tenant!r} rejected ({reason})"
            + (f": {detail}" if detail else "")
        )


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission policy.

    Attributes:
        name: tenant identifier (the scheduler's caller name).
        weight: fair-share weight; a weight-2 tenant drains twice as fast
            as a weight-1 tenant while both are backlogged.
        max_pending: bound on queued (not yet executing) requests; the
            backpressure knob.
        max_queries: lifetime admission quota in *queries* (not
            requests); ``None`` = unlimited.
    """

    name: str
    weight: float = 1.0
    max_pending: int = 64
    max_queries: Optional[int] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.max_queries is not None and self.max_queries < 0:
            raise ValueError("max_queries must be >= 0 when set")


@dataclass
class TenantState:
    """One tenant's live serving state inside the daemon."""

    quota: TenantQuota
    queue: Deque = field(default_factory=deque)
    pass_value: float = 0.0
    queries_admitted: int = 0
    accepted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    abandoned: int = 0

    @property
    def stride(self) -> float:
        return STRIDE1 / self.quota.weight

    def admit(self, queries: int) -> None:
        """Raise :class:`AdmissionError` unless this request may queue."""
        if len(self.queue) >= self.quota.max_pending:
            self.rejected += 1
            raise AdmissionError(
                self.quota.name, "queue-full",
                f"{len(self.queue)} pending >= max_pending "
                f"{self.quota.max_pending}",
            )
        if (
            self.quota.max_queries is not None
            and self.queries_admitted + queries > self.quota.max_queries
        ):
            self.rejected += 1
            raise AdmissionError(
                self.quota.name, "quota",
                f"{self.queries_admitted} + {queries} queries exceeds "
                f"max_queries {self.quota.max_queries}",
            )


class StridePicker:
    """Deterministic weighted-fair selection over backlogged tenants."""

    def __init__(self, tenants: Optional[Iterable[TenantState]] = None):
        self._tenants: Dict[str, TenantState] = {}
        self._last_pass = 0.0  # the picked tenant's pass after the latest pick
        for tenant in tenants or ():
            self.add(tenant)

    def add(self, tenant: TenantState) -> None:
        name = tenant.quota.name
        if name in self._tenants:
            raise ValueError(f"duplicate tenant {name!r}")
        self._resume(tenant)
        self._tenants[name] = tenant

    def enqueue(self, tenant: TenantState, request: object) -> None:
        """Queue ``request`` on ``tenant``, resuming it if it was idle."""
        if not tenant.queue:
            self._resume(tenant)
        tenant.queue.append(request)

    def _resume(self, tenant: TenantState) -> None:
        # A tenant back from idleness (or new) starts no earlier than the
        # latest pick: a pass left behind while it had nothing queued
        # would let it monopolize the picker until it caught up.
        tenant.pass_value = max(tenant.pass_value, self._last_pass)

    def get(self, name: str) -> TenantState:
        return self._tenants[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def states(self) -> List[TenantState]:
        return list(self._tenants.values())

    @property
    def backlog(self) -> int:
        """Total queued requests across tenants."""
        return sum(len(t.queue) for t in self._tenants.values())

    def pick(self) -> Optional[TenantState]:
        """The backlogged tenant with the least pass; advances its pass.

        Returns None when no tenant has queued work.  Ties break by
        tenant name, so two equal-weight tenants alternate
        deterministically rather than depending on dict order.
        """
        backlogged = [
            t for t in self._tenants.values() if t.queue
        ]
        if not backlogged:
            return None
        chosen = min(
            backlogged, key=lambda t: (t.pass_value, t.quota.name)
        )
        chosen.pass_value += chosen.stride
        self._last_pass = chosen.pass_value
        return chosen
