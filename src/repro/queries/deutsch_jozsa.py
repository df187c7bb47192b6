"""The Deutsch–Jozsa decision as a parallel-query algorithm.

DJ is the paper's b = O(1), p = 1 example: a single query in superposition
over all of [k] (plus its uncomputation) decides constant-vs-balanced with
zero error.  The oracle batch here is *superposed* — it does not name
concrete indices, and its network cost in Theorem 8 depends only on the
register width log(k), not on k — so the oracle interface gains a
``superposed`` marker: the ledger meters the batch, but no concrete index
list exists.

The decision logic itself is the exact circuit of
:mod:`repro.quantum.deutsch_jozsa`, evaluated on the oracle's full input
(the physics peek — here the peek *is* the algorithm's single superposed
query, which touches every index at amplitude 1/√k).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..quantum.deutsch_jozsa import check_promise, is_constant
from .oracle import BatchOracle


@dataclass
class DJDecision:
    constant: bool
    batches_used: int
    error_probability: float = 0.0


def decide(oracle: BatchOracle) -> DJDecision:
    """Decide constant-vs-balanced with zero error in 2 superposed queries.

    The two metered batches are the query and its uncomputation (the
    framework must return the query register to |0...0>, Theorem 8).
    Raises :class:`repro.quantum.deutsch_jozsa.PromiseViolation` if the
    input violates the promise.
    """
    start = oracle.ledger.batches
    bits = [int(v) & 1 for v in oracle.peek_all()]
    check_promise(bits)
    # The superposed query and its uncompute: one metered batch each.
    # Oracles that charge network rounds expose query_superposed; plain
    # string oracles just meter the ledger.
    if hasattr(oracle, "query_superposed"):
        oracle.query_superposed(label="dj-query")
        oracle.query_superposed(label="dj-uncompute")
    else:
        oracle.ledger.record(1, label="dj-query")
        oracle.ledger.record(1, label="dj-uncompute")
    return DJDecision(
        constant=is_constant(bits),
        batches_used=oracle.ledger.batches - start,
    )
