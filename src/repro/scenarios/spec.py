"""Declarative scenario specs: one cell of the matrix, as plain data.

A :class:`Scenario` bundles the three axes of the matrix — link
fidelity, link economics ("Mind the Õ"), and adversary/dynamics — into
one frozen declaration that :mod:`repro.parallel` can pickle across
workers and the E22 experiment can sweep.  A scenario never *runs*
anything by itself; it is the configuration record the matrix runner
reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..core.cost import (
    CLASSICAL_METRO,
    LinkCostModel,
    QUANTUM_OPTIMISTIC,
)
from ..faults.crash import CrashSchedule
from ..faults.models import ChannelFaultModel
from .link_fidelity import SecurityDerivation, derive_security

__all__ = ["Scenario"]


@dataclass(frozen=True)
class Scenario:
    """One named cell of the scenario matrix.

    Attributes:
        name: unique label; keys parallel-sweep tasks and fault seeds.
        fidelity: quantum link fidelity F ∈ (0, 1] (per chunk delivery).
        delta: target end-to-end failure probability for boosting.
        classical_link: wall-clock price of a classical message.
        quantum_link: wall-clock price of a quantum message.
        fault_model: channel faults for the run (``None``: perfect links).
        crash_schedule: node churn/outage schedule (``None``: none).
        byzantine: node ids whose sent messages are adversarially
            corrupted (wired into a
            :class:`~repro.scenarios.adversary.ByzantineNodes` model by
            the matrix runner).
        fault_seed: explicit fault stream seed (``None``: derived from
            the sweep's root seed by the runner).
    """

    name: str
    fidelity: float = 1.0
    delta: float = 0.01
    classical_link: LinkCostModel = CLASSICAL_METRO
    quantum_link: LinkCostModel = QUANTUM_OPTIMISTIC
    fault_model: Optional[ChannelFaultModel] = field(
        default=None, compare=False
    )
    crash_schedule: Optional[CrashSchedule] = field(
        default=None, compare=False
    )
    byzantine: Tuple[int, ...] = ()
    fault_seed: Optional[int] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if not 0.0 < self.fidelity <= 1.0:
            raise ValueError(
                f"fidelity must be in (0, 1], got {self.fidelity}"
            )
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not isinstance(self.classical_link, LinkCostModel):
            raise TypeError("classical_link must be a LinkCostModel")
        if not isinstance(self.quantum_link, LinkCostModel):
            raise TypeError("quantum_link must be a LinkCostModel")
        object.__setattr__(
            self, "byzantine", tuple(int(v) for v in self.byzantine)
        )

    def replace(self, **changes) -> "Scenario":
        """A copy with the given fields changed (validation re-runs)."""
        return replace(self, **changes)

    def security(self) -> SecurityDerivation:
        """The (ε, δ, S) derivation for this scenario's fidelity."""
        return derive_security(self.fidelity, delta=self.delta)

    @property
    def premium(self) -> float:
        """Per-round quantum/classical price ratio at a 16-bit word —
        a size-independent summary of the link pair's economics."""
        return (
            self.quantum_link.round_time_us(16)
            / self.classical_link.round_time_us(16)
        )

    def describe(self) -> str:
        """One-line human-readable summary for tables and CLI output."""
        parts = [
            f"F={self.fidelity:g}",
            f"links={self.classical_link.name}/{self.quantum_link.name}",
        ]
        if self.fault_model is not None:
            parts.append(self.fault_model.describe())
        if self.crash_schedule is not None:
            parts.append(f"churn={len(self.crash_schedule.specs)} nodes")
        if self.byzantine:
            parts.append(f"byzantine={len(self.byzantine)} nodes")
        return f"{self.name}: " + ", ".join(parts)
