"""repro — a reproduction of van Apeldoorn & de Vos,
"A Framework for Distributed Quantum Queries in the CONGEST Model" (PODC 2022).

Layered design (see DESIGN.md):

* :mod:`repro.congest` — classical CONGEST substrate: round engine with
  O(log n)-bit bandwidth enforcement, BFS(+echo), pipelined multi-source
  BFS, leader election, pipelined tree aggregation, clustering.
* :mod:`repro.quantum` — exact statevector simulator validating the
  amplitude laws (Grover, DJ, QPE, amplitude amplification/estimation).
* :mod:`repro.queries` — the paper's Section 2: (b, p)-parallel-query
  algorithms with metered oracles (Grover, Dürr–Høyer, Ambainis walk,
  Montanaro mean estimation).
* :mod:`repro.core` — the framework itself (Lemma 7, Theorem 8,
  Corollary 9): batch queries served by the network, in charged-formula
  or measured-engine mode.
* :mod:`repro.apps` — Sections 4–6: meeting scheduling, element
  distinctness, distributed Deutsch–Jozsa, diameter/radius/average
  eccentricity, cycle detection, girth, amplitude techniques.
* :mod:`repro.baselines` — the classical CONGEST comparators.
* :mod:`repro.lowerbounds` — runnable reduction gadgets + certificates.
* :mod:`repro.analysis` — power-law fits and experiment tables.
* :mod:`repro.obs` — the observability spine: one event bus for engine
  rounds, faults, query batches, and round charges, with span/phase
  attribution and pluggable sinks (trace, metrics, JSONL).
"""

__version__ = "1.0.0"

from . import (
    analysis,
    apps,
    baselines,
    congest,
    core,
    lowerbounds,
    obs,
    paper,
    quantum,
    queries,
)

__all__ = [
    "analysis",
    "paper",
    "apps",
    "baselines",
    "congest",
    "core",
    "lowerbounds",
    "obs",
    "quantum",
    "queries",
    "__version__",
]
