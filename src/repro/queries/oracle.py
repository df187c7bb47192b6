"""Oracle abstractions for parallel-query algorithms.

Two faces, one contract:

* **Algorithm-facing** — :meth:`BatchOracle.query_batch` answers up to p
  concrete index queries and meters them on the ledger.  Everything an
  algorithm *learns about the input* must arrive through this method.
* **Physics-facing** — :meth:`BatchOracle.peek_all` exposes the full input
  to the *emulation machinery only*.  A quantum computer evolves amplitudes
  that depend on the whole input; a classical simulation of its outcome
  distribution therefore needs the whole input too.  The rule enforced
  across :mod:`repro.queries` is: ``peek_all`` may be used to compute the
  probability distribution of an outcome (e.g. Grover's success chance, or
  which marked index a measurement collapses to), never to shortcut the
  metered learning of a value the algorithm then reports.  Reported
  indices are always re-verified through metered queries.

The CONGEST framework provides its own :class:`BatchOracle` implementation
whose ``query_batch`` additionally charges network rounds (Theorem 8), and
:class:`repro.sched.CallerOracle` adapts one caller's slot on a shared
query-batch coalescing scheduler to this same interface — algorithms never
see which implementation answers them.
"""

from __future__ import annotations

from typing import List, Protocol, Sequence, runtime_checkable

from .ledger import QueryLedger


@runtime_checkable
class BatchOracle(Protocol):
    """The oracle interface consumed by all parallel-query algorithms."""

    ledger: QueryLedger

    @property
    def k(self) -> int:
        """Input length."""
        ...

    def query_batch(self, indices: Sequence[int], label: str = "") -> List:
        """Answer up to p queries; meters one batch on the ledger."""
        ...

    def peek_all(self) -> Sequence:
        """Physics backdoor: the full input, for outcome simulation only."""
        ...


class StringOracle:
    """A :class:`BatchOracle` over an in-memory input string x ∈ A^k."""

    def __init__(self, values: Sequence, ledger: QueryLedger):
        if len(values) == 0:
            raise ValueError("oracle input must be non-empty")
        self._values = list(values)
        self.ledger = ledger

    @property
    def k(self) -> int:
        return len(self._values)

    def query_batch(self, indices: Sequence[int], label: str = "") -> List:
        indices = list(indices)
        for i in indices:
            if not 0 <= i < self.k:
                raise IndexError(f"query index {i} out of range [0, {self.k})")
        self.ledger.record(len(indices), label=label)
        return [self._values[i] for i in indices]

    def peek_all(self) -> Sequence:
        return self._values


class MaskedOracle:
    """A view of another oracle with some indices masked out.

    Used by find-all Grover to exclude already-found indices: masked
    positions read as the supplied ``mask_value``.  Queries are metered on
    the *underlying* oracle's ledger (masking is free classical
    post-processing by the querier).
    """

    def __init__(self, base: BatchOracle, masked: set, mask_value):
        self.base = base
        self.masked = set(masked)
        self.mask_value = mask_value

    @property
    def ledger(self) -> QueryLedger:
        return self.base.ledger

    @property
    def k(self) -> int:
        return self.base.k

    def query_batch(self, indices: Sequence[int], label: str = "") -> List:
        raw = self.base.query_batch(indices, label=label)
        return [
            self.mask_value if i in self.masked else v
            for i, v in zip(indices, raw, strict=True)
        ]

    def peek_all(self) -> Sequence:
        return [
            self.mask_value if i in self.masked else v
            for i, v in enumerate(self.base.peek_all())
        ]
