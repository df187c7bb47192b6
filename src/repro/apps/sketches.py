"""Amplitude sketches: quantum probabilistic data structures (SNIPPETS #3).

An amplitude sketch ``AS = (m, H, θ, Φ)`` stores a stream of items in the
*phases* of an m-qubit product state ``Φ``.  ``Insert(x)`` applies an
``Rz`` rotation at each of the k hashed qubit positions ``h_i(x)``;
``Query(y)`` builds the reference rotations y would have written and
measures, by interference, how close the state is to containing them;
``Compose`` merges two sketches by adding their accumulated phases
(phase rotations commute, so composition is exact).  The state is always
a product of single-qubit states ``(|0⟩ + e^{iφ_j}|1⟩)/√2``, which is
what makes an m-qubit object a *sketch*: m phase accumulators, not 2^m
amplitudes.

Two implementations, same two-fidelity-level discipline as
:mod:`repro.queries` (and the PR 7 vectorized engine):

* **exact** (small m) — a real :class:`~repro.quantum.statevector.
  Statevector` evolved gate-by-gate with :func:`~repro.quantum.gates.rz`
  (each application lands on the diagonal 1-qubit fast path).  Queries
  apply the *inverse* reference rotations followed by Hadamards on the
  queried buckets and read the probability that all of them return
  ``|0⟩`` — genuine interference on 2^m amplitudes.
* **emulated** (large m) — an m-entry phase-accumulator vector with the
  closed-form overlap ``∏ cos²((φ_j − r_j)/2)``; queries can optionally
  be *sampled* (``shots``) from that law, mirroring the Level-S
  stochastic emulation.

The exact path is the oracle: on overlapping m the two paths agree on
every *decision* output bit-for-bit (membership verdicts, integer count
estimates, heavy-hitter rankings — pinned by
``tests/property/test_prop_sketches.py``) and on raw overlaps to 1e-9
(an m-product and a 2^m-sum cannot reassociate floats identically; the
decision layer is where bit-identity is defined, exactly as the engine's
schedule-equivalence excludes advisory metadata).

Taxonomy (the instantiations): :class:`QCount` (bucket counts, θ=π/6),
:class:`QSimHash` (sign-based ±θ, Hamming/cosine similarity),
:class:`QHeavyHitters` (frequency-weighted θ·log₂(1+f), top-k ranking).

Theorem 1 (space–accuracy): distinguishing membership at false-positive
rate α needs ``m ≥ Ω(log(1/α)/(1−ε))`` — verified empirically as
experiment E23 (α falls with m at fixed load).

Every ``insert``/``query``/``compose`` lands on the observability spine
as a ``sketch`` event (:mod:`repro.obs`); the serving integration
(:mod:`repro.sched.sketch`, :mod:`repro.serve`) adds memo hit and
invalidation edges on top.  A sketch carries no write counter: the
serving lane drops a sketch's memo entries by its identity
:attr:`SketchSpec.fingerprint` on every insert.

Each sketch hashes an item once.  A bounded LRU of per-item plans, keyed
by the item's byte encoding, holds the rotations of the item's k
buckets; the query side (its distinct buckets and their reference
phases) and its memo token are added on first use.  Every later insert,
query, threshold and estimate reads the plan, and the emulated overlap
reads only the item's own buckets.  The arithmetic is the per-call one,
ufunc for ufunc, so every answer is the float the per-call path gives
(``tests/apps/reference_sketch.py`` keeps that path as the test oracle).
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.recorder import Recorder, current_recorder
from ..quantum import gates
from ..quantum.statevector import Statevector, uniform_superposition

__all__ = [
    "AmplitudeSketch",
    "QCount",
    "QHeavyHitters",
    "QSimHash",
    "SketchSpec",
    "TAXONOMY",
    "item_token",
    "theorem1_min_qubits",
]

#: Largest m the exact 2^m statevector backend accepts (16 MiB of
#: complex128 at m=20; "auto" switches to emulation well before that).
EXACT_MAX_M = 16

#: Where ``backend="auto"`` draws the line: exact at or below, emulated
#: above.  Chosen so the default overlap regime stays cheap (2^10 amps).
AUTO_EXACT_M = 10

#: Item plans one sketch keeps (LRU).  A queried item's plan is about
#: 0.75 KiB at k = 3, so a full cache is about 3 MiB; a miss rebuilds
#: the plan from the item's hashes, as the first sight of an item does.
_PLAN_ENTRIES = 4096


@dataclass(frozen=True)
class TaxonomyRow:
    """One row of the unified sketch taxonomy (SNIPPETS #3 table)."""

    family: str
    m_range: Tuple[int, int]
    k_range: Tuple[int, int]
    theta: float
    phase_pattern: str      # "uniform" | "sign" | "log-weighted"
    query_metric: str
    #: True when permuting the insert stream provably yields a
    #: bit-identical emulated state (integer accumulators); the
    #: log-weighted family is only invariant up to float reassociation.
    order_invariant: bool


#: The unified taxonomy: family name -> its canonical parameters.
TAXONOMY: Dict[str, TaxonomyRow] = {
    "qcount": TaxonomyRow(
        family="qcount", m_range=(32, 128), k_range=(2, 4),
        theta=math.pi / 6, phase_pattern="uniform",
        query_metric="variance-estimator (min-bucket count)",
        order_invariant=True,
    ),
    "qsimhash": TaxonomyRow(
        family="qsimhash", m_range=(32, 128), k_range=(4, 8),
        theta=math.pi / 4, phase_pattern="sign",
        query_metric="hamming distance on sign signature",
        order_invariant=True,
    ),
    "qhh": TaxonomyRow(
        family="qhh", m_range=(64, 128), k_range=(3, 4),
        theta=math.pi / 6, phase_pattern="log-weighted",
        query_metric="top-k ranking by inverted bucket phase",
        order_invariant=False,
    ),
}


def theorem1_min_qubits(alpha: float, eps: float = 0.0) -> int:
    """Theorem 1's lower bound: ``m ≥ log2(1/α) / (1 − ε)`` qubits."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if not 0 <= eps < 1:
        raise ValueError("eps must be in [0, 1)")
    return math.ceil(math.log2(1.0 / alpha) / (1.0 - eps))


def _item_bytes(x: Any) -> bytes:
    """A stable byte encoding for hashable sketch items."""
    if isinstance(x, bytes):
        return b"b:" + x
    if isinstance(x, bool):
        return b"B:" + (b"1" if x else b"0")
    if isinstance(x, int):
        return b"i:" + str(x).encode()
    if isinstance(x, float):
        return b"f:" + x.hex().encode()
    if isinstance(x, str):
        return b"s:" + x.encode()
    if isinstance(x, tuple):
        return b"t:" + b"|".join(_item_bytes(v) for v in x)
    raise TypeError(
        f"unsupported sketch item type {type(x).__name__!r}; "
        f"use int/str/bytes/float/bool/tuple"
    )


def _token(data: bytes) -> int:
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def item_token(x: Any) -> int:
    """A stable 63-bit integer token for an item (memo addressing)."""
    return _token(_item_bytes(x))


class _ItemPlan:
    """What one sketch's hash family decides about one item.

    ``rotations`` holds one ``(bucket, steps, delta)`` per hash, in hash
    order (duplicate buckets kept): the rotations one insert at
    multiplicity 1 applies.  The query side — ``touched``, the distinct
    buckets in ascending order, and ``phases``, the reference phase each
    holds — and the memo ``token`` are derived on first use, so an item
    that is only inserted never pays for them.
    """

    __slots__ = ("key", "rotations", "_touched", "_phases", "_token")

    def __init__(
        self, key: bytes, rotations: Tuple[Tuple[int, int, float], ...]
    ):
        self.key = key
        self.rotations = rotations
        self._touched: Optional[np.ndarray] = None
        self._phases: Optional[np.ndarray] = None
        self._token: Optional[int] = None

    @property
    def token(self) -> int:
        if self._token is None:
            self._token = _token(self.key)
        return self._token

    def reference(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(touched, phases)``: the item's reference rotations.

        Each phase is summed from 0.0 in hash order, so it is the float
        the m-long reference vector of one insert holds at its bucket.
        """
        if self._touched is None:
            phase: Dict[int, float] = {}
            for bucket, _steps, delta in self.rotations:
                phase[bucket] = phase.get(bucket, 0.0) + delta
            touched = sorted(phase)
            self._touched = np.array(touched, dtype=np.intp)
            self._phases = np.array(
                [phase[b] for b in touched], dtype=np.float64
            )
        return self._touched, self._phases


@dataclass(frozen=True)
class SketchSpec:
    """Everything that parameterizes one sketch, frozen.

    Attributes:
        family: taxonomy key (``qcount`` / ``qsimhash`` / ``qhh``).
        m: qubit (bucket) count.
        k: hash functions per item.
        theta: base rotation angle; ``None`` takes the taxonomy default.
        seed: hash-family seed (two sketches compose only when their
            specs — and therefore hash families — match exactly).
        backend: ``"auto"`` (exact at m ≤ 10, emulated above),
            ``"exact"``, or ``"emulated"``.
    """

    family: str = "qcount"
    m: int = 64
    k: int = 3
    theta: Optional[float] = None
    seed: int = 0
    backend: str = "auto"

    def __post_init__(self):
        if self.family not in TAXONOMY:
            raise ValueError(
                f"unknown sketch family {self.family!r}; "
                f"expected one of {sorted(TAXONOMY)}"
            )
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.backend not in ("auto", "exact", "emulated"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "exact" and self.m > EXACT_MAX_M:
            raise ValueError(
                f"exact backend is bounded at m <= {EXACT_MAX_M} "
                f"(2^m amplitudes); got m={self.m}"
            )
        theta = self.resolved_theta
        if not 0 < theta < math.pi:
            raise ValueError(f"theta must be in (0, pi), got {theta}")

    @property
    def resolved_theta(self) -> float:
        return (
            self.theta if self.theta is not None
            else TAXONOMY[self.family].theta
        )

    @property
    def resolved_backend(self) -> str:
        if self.backend != "auto":
            return self.backend
        return "exact" if self.m <= AUTO_EXACT_M else "emulated"

    @property
    def taxonomy(self) -> TaxonomyRow:
        return TAXONOMY[self.family]

    def replace(self, **changes: Any) -> "SketchSpec":
        return replace(self, **changes)

    @property
    def fingerprint(self) -> str:
        """The sketch *identity* fingerprint (stable across inserts).

        Deliberately excludes the backend: exact and emulated lanes over
        the same spec answer the same queries, exactly as execution
        ``mode`` is excluded from :func:`~repro.sched.oracle_fingerprint`.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(
            f"amplitude-sketch/1;{self.family};m={self.m};k={self.k};"
            f"theta={self.resolved_theta!r};seed={self.seed}".encode()
        )
        return h.hexdigest()


class _EmulatedState:
    """Phase-accumulator backend: m floats (plus exact integer counts).

    ``counts`` carries the *integer* net rotation multiplicities for the
    uniform/sign families — integer accumulation is what makes
    insert-order invariance exact rather than approximate.  ``phases``
    carries the real-valued accumulators the log-weighted family needs.
    Only one of the two drives ``bucket_phases`` per sketch (see
    ``weighted``), but both are maintained so compose can merge either.
    """

    def __init__(self, m: int, theta: float, weighted: bool):
        self.m = m
        self.theta = theta
        self.weighted = weighted
        self.counts = np.zeros(m, dtype=np.int64)
        self.phases = np.zeros(m, dtype=np.float64)

    def rotate(self, bucket: int, steps: int, delta: float) -> None:
        self.counts[bucket] += steps
        self.phases[bucket] += delta

    def bucket_phases(self) -> np.ndarray:
        if self.weighted:
            return self.phases
        return self.theta * self.counts.astype(np.float64)

    def overlap(self, touched: np.ndarray, ref: np.ndarray) -> float:
        """``∏ cos²((φ_j − r_j)/2)`` over the touched buckets only.

        The m-wide form's ufuncs in its order, applied in place to the
        gathered buckets, so the float is the one the m-wide form gives.
        """
        if self.weighted:
            diff = self.phases[touched]
        else:
            diff = np.multiply(
                self.theta, self.counts[touched], dtype=np.float64
            )
        np.subtract(diff, ref, out=diff)
        np.divide(diff, 2.0, out=diff)
        np.cos(diff, out=diff)
        np.square(diff, out=diff)
        return float(np.multiply.reduce(diff))

    def state_fidelity(self, other: "_EmulatedState") -> float:
        diff = self.bucket_phases() - other.bucket_phases()
        return float(np.prod(np.cos(diff / 2.0) ** 2))

    def wrapped_angle(self, bucket: int) -> float:
        """The bucket phase wrapped to (−π, π] — what a qubit can hold."""
        if self.weighted:
            phi = float(self.phases[bucket])
        else:
            phi = self.theta * float(self.counts[bucket])
        return math.atan2(math.sin(phi), math.cos(phi))

    def merge(self, other: "_EmulatedState") -> None:
        self.counts += other.counts
        self.phases += other.phases


class _ExactState:
    """Statevector backend: 2^m amplitudes evolved gate-by-gate.

    Every ``Rz`` application dispatches to the statevector's diagonal
    1-qubit kernel (in-place scaling, no temporaries) — the PR 7
    diagonal-phase fast path.
    """

    def __init__(self, m: int, theta: float, weighted: bool):
        self.m = m
        self.theta = theta
        self.weighted = weighted
        self.sv: Statevector = uniform_superposition(m)

    def rotate(self, bucket: int, steps: int, delta: float) -> None:
        del steps  # the statevector only sees the physical rotation
        self.sv.apply(gates.rz(delta), [bucket])

    def overlap(self, touched: np.ndarray, ref: np.ndarray) -> float:
        """Interference readout: P(all queried buckets measure |0⟩).

        Copies the state, applies the inverse reference rotations, then
        Hadamards on the queried buckets; a bucket holding exactly the
        reference phase returns to |+⟩ and measures 0 with certainty.
        """
        probe = self.sv.copy()
        buckets = touched.tolist()
        for j, phase in zip(buckets, ref.tolist(), strict=True):
            probe.apply(gates.rz(-phase), [j])
            probe.apply(gates.H, [j])
        marg = probe.marginal_probabilities(buckets)
        return float(marg[0])

    def state_fidelity(self, other: "_ExactState") -> float:
        return self.sv.fidelity(other.sv)

    def wrapped_angle(self, bucket: int) -> float:
        """Read the bucket's relative phase off the amplitudes.

        For a product state the amplitude ratio between a basis state
        with the bucket bit set and its bit-cleared partner is exactly
        ``e^{iφ_j}`` — phases are only ever knowable mod 2π here, which
        is the physical capacity limit the emulated path mirrors.
        """
        bit = 1 << (self.m - 1 - bucket)
        a0 = self.sv.data[0]
        a1 = self.sv.data[bit]
        return float(np.angle(a1 / a0))

    def merge(self, other: "_ExactState") -> None:
        """Compose by phase addition: elementwise product, renormalized.

        The product of two m-qubit phase-product states (amplitudes
        ``2^{-m/2}·e^{iφ(b)}``) has amplitudes ``2^{-m}·e^{i(φ+ψ)(b)}``;
        multiplying back by ``2^{m/2}`` is exactly the composed sketch.
        """
        merged = self.sv.data * other.sv.data * math.sqrt(self.sv.dim)
        norm = np.linalg.norm(merged)
        self.sv.data = merged / norm


class AmplitudeSketch:
    """The base sketch: ``insert(x)``, ``query(y) → overlap``, ``compose``.

    Args:
        spec: the frozen :class:`SketchSpec` (or keyword fields to build
            one: ``AmplitudeSketch(m=64, k=3, family="qcount")``).
        recorder: observability bus (defaults to the ambient recorder);
            every operation emits a ``sketch`` event.
        name: label carried on emitted events (defaults to the family).
    """

    def __init__(
        self,
        spec: Optional[SketchSpec] = None,
        recorder: Optional[Recorder] = None,
        name: str = "",
        **spec_fields: Any,
    ):
        if spec is None:
            spec = SketchSpec(**spec_fields)
        elif spec_fields:
            raise TypeError("pass either a SketchSpec or its fields, not both")
        self.spec = spec
        self.name = name or spec.family
        self._recorder = (
            recorder if recorder is not None else current_recorder()
        )
        weighted = spec.taxonomy.phase_pattern == "log-weighted"
        theta = spec.resolved_theta
        if spec.resolved_backend == "exact":
            self._state: Any = _ExactState(spec.m, theta, weighted)
        else:
            self._state = _EmulatedState(spec.m, theta, weighted)
        self.inserts = 0
        self.queries = 0
        self.composes = 0
        #: Per-item insert multiplicities, needed by the log-weighted
        #: increment (Δ = θ·(log₂(1+c) − log₂ c)) and the Q-HH candidate
        #: ranking.  Unit-weight families skip it to stay O(m).
        self._item_counts: Optional[Dict[int, int]] = (
            {} if weighted else None
        )
        #: Item plans keyed by the item's byte encoding, never by the
        #: item: ``1``, ``1.0`` and ``True`` are one dict key but hash to
        #: different buckets.
        self._plans: "OrderedDict[bytes, _ItemPlan]" = OrderedDict()
        self._hash_prefixes = [
            f"sketch-hash/{spec.seed}/{i};".encode() for i in range(spec.k)
        ]
        self._sign_prefixes = [
            f"sketch-sign/{spec.seed}/{i};".encode() for i in range(spec.k)
        ]

    # -- hashing ---------------------------------------------------------

    @property
    def backend(self) -> str:
        return self.spec.resolved_backend

    @property
    def fingerprint(self) -> str:
        return self.spec.fingerprint

    def _plan(self, x: Any) -> _ItemPlan:
        """The item's plan, built on a miss from its k hashes."""
        key = _item_bytes(x)
        plans = self._plans
        plan = plans.get(key)
        if plan is not None:
            plans.move_to_end(key)
            return plan
        spec = self.spec
        theta = spec.resolved_theta
        pattern = spec.taxonomy.phase_pattern
        rotations = []
        for i, prefix in enumerate(self._hash_prefixes):
            digest = hashlib.blake2b(prefix + key, digest_size=8).digest()
            bucket = int.from_bytes(digest, "big") % spec.m
            if pattern == "sign":
                sign = hashlib.blake2b(
                    self._sign_prefixes[i] + key, digest_size=1
                ).digest()
                steps = 1 if sign[0] & 1 else -1
                delta = steps * theta
            else:  # uniform, and log-weighted at multiplicity 1 (θ·log₂2)
                steps, delta = 1, theta
            rotations.append((bucket, steps, delta))
        plan = _ItemPlan(key, tuple(rotations))
        plans[key] = plan
        if len(plans) > _PLAN_ENTRIES:
            plans.popitem(last=False)
        return plan

    def buckets(self, x: Any) -> List[int]:
        """The k hashed bucket positions for an item (duplicates kept)."""
        return [bucket for bucket, _steps, _delta in self._plan(x).rotations]

    def item_token(self, x: Any) -> int:
        """:func:`item_token` of ``x``, read from its plan."""
        return self._plan(x).token

    # -- operations ------------------------------------------------------

    def insert(self, x: Any) -> None:
        """Rotate the item's hashed buckets; O(k) gates, O(1) state.

        Uniform: +θ per hash.  Sign: ±θ per hash.  Log-weighted: the
        increment that moves the accumulated phase from θ·log₂(count) to
        θ·log₂(1+count), where count is the item's multiplicity after
        this insert, so the total is order-independent up to float
        reassociation.
        """
        plan = self._plan(x)
        if self._item_counts is None:
            for bucket, steps, delta in plan.rotations:
                self._state.rotate(bucket, steps, delta)
        else:
            token = plan.token
            count = self._item_counts.get(token, 0) + 1
            self._item_counts[token] = count
            delta = self.spec.resolved_theta * (
                math.log2(1 + count) - math.log2(count)
            )
            for bucket, _steps, _unit in plan.rotations:
                self._state.rotate(bucket, 1, delta)
        self.inserts += 1
        if self._recorder.active:
            self._recorder.sketch(self.name, "insert", 1)

    def query(
        self,
        y: Any,
        shots: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Overlap in [0, 1]: 1.0 iff y's buckets hold exactly y's phases.

        With ``shots`` the deterministic law is *sampled* (each shot is
        one interference measurement; the estimate is the success
        fraction) — the stochastic face of the two-level design.
        """
        overlap = self._state.overlap(*self._plan(y).reference())
        # Clamp float dust so callers can rely on the [0, 1] contract.
        overlap = min(1.0, max(0.0, overlap))
        if shots is not None:
            if shots < 1:
                raise ValueError("shots must be >= 1")
            rng = rng if rng is not None else np.random.default_rng(0)
            overlap = float(rng.binomial(shots, overlap)) / shots
        self.queries += 1
        if self._recorder.active:
            self._recorder.sketch(self.name, "query", 1)
        return overlap

    def baseline_overlap(self, y: Any) -> float:
        """``query(y)`` against an *empty* sketch, in closed form.

        ``∏ cos²(r_j/2)`` over y's touched buckets — no state involved,
        so both backends compute the identical float.  With small θ this
        is close to 1 (one missing rotation barely moves a qubit off
        |+⟩), which is why membership needs a per-item threshold rather
        than a fixed 0.5.
        """
        _touched, ref = self._plan(y).reference()
        return float(np.prod(np.cos(ref / 2.0) ** 2))

    def membership_threshold(self, y: Any) -> float:
        """Midpoint between a perfect member (1.0) and y's empty-bucket
        baseline — the decision boundary :meth:`contains` uses."""
        return (1.0 + self.baseline_overlap(y)) / 2.0

    def contains(self, y: Any, threshold: Optional[float] = None) -> bool:
        """Membership verdict: overlap above the (per-item) threshold.

        One-sided up to collisions: an inserted item (still at exactly
        its reference phases) always reports True; a non-member passes
        only when other items' rotations happen to push its buckets
        toward its reference — the false-positive rate Theorem 1 bounds
        via m.  ``threshold`` defaults to :meth:`membership_threshold`
        (a fixed global cut like 0.5 is wrong for small θ: an empty
        bucket already overlaps its reference at cos²(θ/2) ≈ 0.93).

        The comparison quantizes both sides to 12 decimals first: when a
        collision lands a probe's overlap *analytically on* the
        threshold, the two backends sit one ulp on either side of it,
        and decision-level bit-identity (the emulation's correctness
        contract) must not hinge on that last bit.
        """
        if threshold is None:
            threshold = self.membership_threshold(y)
        return round(self.query(y), 12) >= round(threshold, 12)

    def compose(self, other: "AmplitudeSketch") -> "AmplitudeSketch":
        """A new sketch holding both streams (phases add; exact).

        Only sketches with identical specs (same hash family) compose.
        Error propagation obeys the pure-state angle triangle inequality
        ``ε ≤ ε₁ + ε₂ + 2√(ε₁ε₂)`` — the exact form of the snippet's
        ``ε₁ + ε₂ + O(ε₁·ε₂)`` claim — pinned by the property suite.
        """
        if other.spec != self.spec:
            raise ValueError(
                "compose requires identical specs (same hash family); "
                f"got {self.spec} vs {other.spec}"
            )
        out = AmplitudeSketch(
            self.spec, recorder=self._recorder,
            name=f"{self.name}+{other.name}",
        )
        out._state.merge(self._state)
        out._state.merge(other._state)
        out.inserts = self.inserts + other.inserts
        if out._item_counts is not None:
            for counts in (self._item_counts, other._item_counts):
                for token, c in (counts or {}).items():
                    out._item_counts[token] = (
                        out._item_counts.get(token, 0) + c
                    )
        self.composes += 1
        if self._recorder.active:
            self._recorder.sketch(self.name, "compose", other.inserts)
        return out

    # -- readout helpers -------------------------------------------------

    def state_fidelity(self, other: "AmplitudeSketch") -> float:
        """|⟨Φ_self|Φ_other⟩|² over the full m-qubit state."""
        if other.spec != self.spec:
            raise ValueError("fidelity requires identical specs")
        if type(other._state) is not type(self._state):
            raise ValueError(
                "fidelity requires matching backends; rebuild one side"
            )
        return float(self._state.state_fidelity(other._state))

    def bucket_count(self, bucket: int) -> int:
        """The bucket's rotation count read off its *wrapped* phase.

        Both backends answer through the mod-2π wrapped angle — a qubit
        phase physically cannot hold more — so exact and emulated agree
        bit-for-bit after integer rounding.  Counts are faithful only
        below the period ``round(2π/θ)``; that is the capacity price of
        logarithmic space, not an implementation artifact.
        """
        if not 0 <= bucket < self.spec.m:
            raise ValueError(f"bucket {bucket} out of range")
        theta = self.spec.resolved_theta
        period = max(1, round(2.0 * math.pi / theta))
        angle = self._state.wrapped_angle(bucket)
        return round(angle / theta) % period


class QCount(AmplitudeSketch):
    """Count estimation: min over the item's buckets of wrapped counts.

    The count-min shape: collisions only ever *inflate* a bucket, so the
    minimum across k independent buckets is the tightest (over-)estimate.
    """

    def __init__(self, m: int = 64, k: int = 3, seed: int = 0,
                 backend: str = "auto", **kw: Any):
        super().__init__(
            SketchSpec(family="qcount", m=m, k=k, seed=seed,
                       backend=backend), **kw,
        )

    def estimate(self, x: Any) -> int:
        return min(self.bucket_count(b) for b in set(self.buckets(x)))


class QSimHash(AmplitudeSketch):
    """Sign-based similarity: ±θ rotations, compared by sign signature."""

    def __init__(self, m: int = 64, k: int = 6, seed: int = 0,
                 backend: str = "auto", **kw: Any):
        super().__init__(
            SketchSpec(family="qsimhash", m=m, k=k, seed=seed,
                       backend=backend), **kw,
        )

    def signature(self) -> Tuple[int, ...]:
        """One bit per bucket: the sign of its wrapped phase."""
        return tuple(
            1 if self._state.wrapped_angle(j) > 0 else 0
            for j in range(self.spec.m)
        )

    @staticmethod
    def hamming(a: Sequence[int], b: Sequence[int]) -> int:
        if len(a) != len(b):
            raise ValueError("signature lengths differ")
        return sum(1 for x, y in zip(a, b, strict=True) if x != y)

    def similarity(self, other: "QSimHash") -> float:
        """1 − normalized Hamming distance between sign signatures."""
        d = self.hamming(self.signature(), other.signature())
        return 1.0 - d / self.spec.m


class QHeavyHitters(AmplitudeSketch):
    """Heavy hitters: log-weighted phases plus a candidate index.

    The quantum state holds frequency mass as θ·log₂(1+f) per bucket;
    the classical side keeps a bounded candidate map (standard for HH
    sketches) so ``top(j)`` can rank observed items by their inverted
    bucket phases.
    """

    def __init__(self, m: int = 64, k: int = 3, seed: int = 0,
                 backend: str = "auto", capacity: int = 64, **kw: Any):
        super().__init__(
            SketchSpec(family="qhh", m=m, k=k, seed=seed,
                       backend=backend), **kw,
        )
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: Item byte encoding -> [item, count].  Keyed by the encoding,
        #: as the item plans are: ``1``, ``1.0`` and ``True`` compare
        #: equal but hash to different buckets, so each is its own
        #: candidate.  The item is kept for display and tie-breaks.
        self._candidates: Dict[bytes, List[Any]] = {}

    def insert(self, x: Any) -> None:
        super().insert(x)
        key = _item_bytes(x)
        cands = self._candidates
        if key in cands:
            cands[key][1] += 1
        elif len(cands) < self.capacity:
            cands[key] = [x, 1]
        else:
            # Space-saving style: evict the weakest candidate and adopt
            # its (over-)count, so frequent late arrivals still surface.
            weakest = min(
                cands, key=lambda c: (cands[c][1], repr(cands[c][0]))
            )
            floor = cands.pop(weakest)[1]
            cands[key] = [x, floor + 1]

    def estimate(self, x: Any) -> int:
        """Frequency inverted from the min bucket phase: 2^{φ/θ} − 1."""
        theta = self.spec.resolved_theta
        phases = [
            abs(self._state.wrapped_angle(b)) for b in set(self.buckets(x))
        ]
        phi = min(phases)
        return max(0, round(2.0 ** (phi / theta) - 1.0))

    def top(self, j: int = 10) -> List[Tuple[Any, int]]:
        """The j candidate items with the largest estimates, ranked.

        Ties break on the candidate map's own count then item repr, so
        rankings are deterministic and backend-independent.
        """
        ranked = sorted(
            self._candidates.values(),
            key=lambda c: (-self.estimate(c[0]), -c[1], repr(c[0])),
        )
        return [(x, self.estimate(x)) for x, _count in ranked[:j]]
