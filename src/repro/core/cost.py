"""Round-cost formulas (Lemma 7, Theorem 8, Corollary 9) and the ledger.

The paper charges rounds in units of ⌈log2 n⌉-bit messages.  The
:class:`CostModel` evaluates the closed-form bounds against a concrete
network; the :class:`RoundLedger` accumulates charges phase by phase so
applications can report a per-phase breakdown (setup / index distribution
/ aggregation / on-the-fly computation) and benchmarks can compare each
phase to its formula.

:class:`LinkCostModel` (PR 9) is the practicality overlay — the "Mind
the Õ" critique of Kerger et al. made chargeable: a round is not a unit,
it costs per-message latency plus serialization time plus the constant
factors the Õ hides, and quantum links are priced separately from
classical ones.  :meth:`LinkCostModel.wall_clock_us` re-denominates a
round count into microseconds, which is how the scenario matrix
(:mod:`repro.scenarios`) turns every quantum-vs-classical round duel
into a wall-clock crossover curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..congest.network import Network
from ..obs.recorder import Recorder, current_recorder


@dataclass(frozen=True)
class LinkCostModel:
    """Wall-clock price of one CONGEST message on a concrete link.

    The paper (and E20/E21) count *rounds*; Kerger et al. point out that
    a quantum CONGEST round is not the same animal as a classical one —
    entanglement distribution, transduction, and error correction all
    hide inside the Õ.  This model charges them explicitly:

        message_time_us(bits) = constant_factor
                                · (latency_us + bits / bandwidth + overhead_us)

    ``latency_us`` is the per-message propagation/handshake latency,
    ``bandwidth_bits_per_us`` the serialization rate, ``overhead_us`` a
    fixed per-message processing cost (e.g. entanglement-swap bookkeeping
    on a quantum link), and ``constant_factor`` the dimensionless
    multiplier the asymptotic analysis suppressed.  In a synchronous
    round every edge fires in parallel, so one round costs one message
    time at the round's word size.
    """

    name: str
    latency_us: float
    bandwidth_bits_per_us: float
    overhead_us: float = 0.0
    constant_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.latency_us < 0:
            raise ValueError("latency_us must be >= 0")
        if self.bandwidth_bits_per_us <= 0:
            raise ValueError("bandwidth_bits_per_us must be > 0")
        if self.overhead_us < 0:
            raise ValueError("overhead_us must be >= 0")
        if self.constant_factor <= 0:
            raise ValueError("constant_factor must be > 0")

    def message_time_us(self, bits: int) -> float:
        """Wall-clock microseconds to push one ``bits``-bit message."""
        if bits < 0:
            raise ValueError("bits must be >= 0")
        return self.constant_factor * (
            self.latency_us + bits / self.bandwidth_bits_per_us + self.overhead_us
        )

    def round_time_us(self, word_bits: int) -> float:
        """One synchronous round at the model's word size (all edges in
        parallel ⇒ a round costs exactly one message time)."""
        return self.message_time_us(word_bits)

    def wall_clock_us(self, rounds: float, word_bits: int) -> float:
        """Total wall clock for ``rounds`` synchronous rounds."""
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        return rounds * self.round_time_us(word_bits)


#: Reference link presets for scenario sweeps.  Absolute values are
#: order-of-magnitude placeholders (a metro fiber link and a
#: repeater-based quantum link); what the crossover analysis consumes is
#: their *ratio* — the per-round premium a quantum message pays.
CLASSICAL_DATACENTER = LinkCostModel(
    name="classical-datacenter",
    latency_us=5.0,
    bandwidth_bits_per_us=10_000.0,  # ~10 Gbit/s
)
CLASSICAL_METRO = LinkCostModel(
    name="classical-metro",
    latency_us=250.0,
    bandwidth_bits_per_us=1_000.0,  # ~1 Gbit/s
)
QUANTUM_MATURE = LinkCostModel(
    name="quantum-mature",
    latency_us=250.0,
    bandwidth_bits_per_us=1.0,  # ~1 Mqubit/s effective
    overhead_us=150.0,
    constant_factor=1.0,
)
QUANTUM_OPTIMISTIC = LinkCostModel(
    name="quantum-optimistic",
    latency_us=250.0,
    bandwidth_bits_per_us=1.0,  # ~1 Mqubit/s effective
    overhead_us=100.0,
    constant_factor=10.0,
)
QUANTUM_NEAR_TERM = LinkCostModel(
    name="quantum-near-term",
    latency_us=250.0,
    bandwidth_bits_per_us=0.01,  # ~10 kqubit/s effective
    overhead_us=1_000.0,
    constant_factor=100.0,
)

LINK_PRESETS: Dict[str, LinkCostModel] = {
    m.name: m
    for m in (
        CLASSICAL_DATACENTER,
        CLASSICAL_METRO,
        QUANTUM_MATURE,
        QUANTUM_OPTIMISTIC,
        QUANTUM_NEAR_TERM,
    )
}


@dataclass
class CostModel:
    """Closed-form round costs for a concrete network.

    Args:
        n: number of nodes.
        diameter: network diameter D.
        word_bits: message size unit; the paper's ⌈log2 n⌉.
    """

    n: int
    diameter: int
    word_bits: int

    @staticmethod
    def for_network(network: Network) -> "CostModel":
        return CostModel(
            n=network.n,
            diameter=max(network.diameter, 1),
            word_bits=network.log_n_bits,
        )

    def words(self, bits: int) -> int:
        """⌈q / log n⌉ — rounds to push ``bits`` over one edge."""
        return max(1, math.ceil(bits / self.word_bits))

    def index_words(self, k: int) -> int:
        """⌈log(k) / log(n)⌉ — rounds per index in [k]."""
        return self.words(max(1, math.ceil(math.log2(max(k, 2)))))

    # ------------------------------------------------------------------
    # Lemma 7
    # ------------------------------------------------------------------

    def state_distribution_rounds(self, q_bits: int, pipelined: bool = True) -> int:
        """Lemma 7: O(D + q/log n) pipelined; naive is D·⌈q/log n⌉."""
        if pipelined:
            return self.diameter + self.words(q_bits)
        return self.diameter * self.words(q_bits)

    # ------------------------------------------------------------------
    # Theorem 8 / Corollary 9
    # ------------------------------------------------------------------

    def batch_rounds(
        self, p: int, q_bits: int, k: int, alpha: int = 0
    ) -> int:
        """Per-batch cost: (D + p)·⌈q/log n⌉ + p·⌈log k/log n⌉ + α(p)."""
        return (
            (self.diameter + p) * self.words(q_bits)
            + p * self.index_words(k)
            + alpha
        )

    def framework_rounds(
        self, b: int, p: int, q_bits: int, k: int, alpha: int = 0
    ) -> int:
        """Theorem 8 / Corollary 9 total: D + b·(batch cost)."""
        return self.diameter + b * self.batch_rounds(p, q_bits, k, alpha)

    # ------------------------------------------------------------------
    # Cited subroutine costs (substitutions; see DESIGN.md §2)
    # ------------------------------------------------------------------

    def clustering_rounds(self, d: int) -> int:
        """Lemma 24 [EFFKO21]: O(d log² n)."""
        log_n = max(1, math.ceil(math.log2(max(self.n, 2))))
        return d * log_n * log_n

    def quantum_triangle_rounds(self) -> int:
        """[CFGLO22]: Õ(n^{1/5}) quantum triangle finding, charged as cited."""
        log_n = max(1, math.ceil(math.log2(max(self.n, 2))))
        return math.ceil(self.n ** 0.2) * log_n


@dataclass
class RoundLedger:
    """Accumulates charged rounds by phase.

    Every :meth:`charge` is also emitted as a ``charge`` event on the
    observability spine (:mod:`repro.obs`): the explicit ``recorder``
    field if set, otherwise the ambient recorder resolved at charge time.
    The ledger's list-of-charges semantics are unchanged — emission is a
    side channel, and the spine's charge stream matches ``self.charges``
    entry for entry.

    :attr:`total` is a running sum, read in O(1) (a serving lane reads
    it around every batch): a ledger starts empty, and only
    :meth:`charge` appends to ``charges``, updating the sum.  Callers
    treat ``charges`` as read-only.
    """

    charges: List[Tuple[str, int]] = field(default_factory=list, init=False)
    recorder: Optional[Recorder] = field(default=None, compare=False, repr=False)
    #: Communication-model tag stamped on every emitted charge event
    #: ("" for the default CONGEST model, so pre-model charge streams
    #: are byte-identical; see :class:`repro.obs.events.ChargeEvent`).
    #: The list-of-charges semantics ignore it entirely.
    model: str = field(default="", compare=False)
    _total: int = field(init=False, default=0, compare=False, repr=False)

    def charge(self, phase: str, rounds: int) -> None:
        """Record ``rounds`` against ``phase`` and emit a charge event."""
        if rounds < 0:
            raise ValueError(f"negative round charge for phase {phase!r}")
        self.charges.append((phase, rounds))
        self._total += rounds
        rec = self.recorder if self.recorder is not None else current_recorder()
        if rec.active:
            rec.charge(phase, rounds, self.model)

    @property
    def total(self) -> int:
        """Sum of every charge, ``sum(r for _, r in charges)``."""
        return self._total

    def by_phase(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for phase, rounds in self.charges:
            out[phase] = out.get(phase, 0) + rounds
        return out
