"""The per-call sketch computation, kept as a test-only oracle.

Every call hashes the item afresh — its k buckets, its signs and its
memo token — and builds the m-long reference vector of one insert; the
emulated overlap and the bucket readouts work on the m-wide bucket
phases.  That is how :class:`~repro.apps.sketches.AmplitudeSketch`
answered before it cached per-item plans.  A :class:`ReferenceSketch`
fed the same stream as a sketch of the same spec must give the same
float or int (``==``) for every query, verdict, count, ranking and
signature, on both backends.

Only the item byte encoding is shared with the code under test; the
state (a phase-accumulator vector or a statevector) is kept here.
"""

import hashlib
import math
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.apps.sketches import SketchSpec, _item_bytes
from repro.quantum import gates
from repro.quantum.statevector import uniform_superposition


def item_token(x: Any) -> int:
    digest = hashlib.blake2b(_item_bytes(x), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


class ReferenceSketch:
    """One sketch of ``spec``'s family, answering every call from scratch.

    ``capacity`` is the heavy-hitter candidate map's size (the ``qhh``
    family only), as on :class:`~repro.apps.sketches.QHeavyHitters`.
    """

    def __init__(self, spec: SketchSpec, capacity: int = 64):
        self.spec = spec
        self.theta = spec.resolved_theta
        self.pattern = spec.taxonomy.phase_pattern
        self.exact = spec.resolved_backend == "exact"
        if self.exact:
            self.sv = uniform_superposition(spec.m)
        else:
            self.counts = np.zeros(spec.m, dtype=np.int64)
            self.phases = np.zeros(spec.m, dtype=np.float64)
        self.item_counts: Dict[int, int] = {}
        self.capacity = capacity
        #: Item byte encoding -> [item, count].
        self.candidates: Dict[bytes, List[Any]] = {}

    # -- hashing, per call -------------------------------------------------

    def buckets(self, x: Any) -> List[int]:
        out = []
        for i in range(self.spec.k):
            h = hashlib.blake2b(digest_size=8)
            h.update(f"sketch-hash/{self.spec.seed}/{i};".encode())
            h.update(_item_bytes(x))
            out.append(int.from_bytes(h.digest(), "big") % self.spec.m)
        return out

    def _sign(self, x: Any, i: int) -> int:
        h = hashlib.blake2b(digest_size=1)
        h.update(f"sketch-sign/{self.spec.seed}/{i};".encode())
        h.update(_item_bytes(x))
        return 1 if h.digest()[0] & 1 else -1

    def _increments(self, x: Any, count: int) -> List[Tuple[int, int, float]]:
        out = []
        for i, bucket in enumerate(self.buckets(x)):
            if self.pattern == "uniform":
                steps, delta = 1, self.theta
            elif self.pattern == "sign":
                s = self._sign(x, i)
                steps, delta = s, s * self.theta
            else:
                delta = self.theta * (math.log2(1 + count) - math.log2(count))
                steps = 1
            out.append((bucket, steps, delta))
        return out

    def _reference(self, y: Any) -> Tuple[np.ndarray, List[int]]:
        ref = np.zeros(self.spec.m, dtype=np.float64)
        touched: List[int] = []
        for bucket, _steps, delta in self._increments(y, count=1):
            if bucket not in touched:
                touched.append(bucket)
            ref[bucket] += delta
        return ref, sorted(touched)

    # -- operations --------------------------------------------------------

    def insert(self, x: Any) -> None:
        count = 1
        if self.pattern == "log-weighted":
            token = item_token(x)
            count = self.item_counts.get(token, 0) + 1
            self.item_counts[token] = count
        for bucket, steps, delta in self._increments(x, count):
            if self.exact:
                self.sv.apply(gates.rz(delta), [bucket])
            else:
                self.counts[bucket] += steps
                self.phases[bucket] += delta
        if self.spec.family == "qhh":
            self._count_candidate(x)

    def _count_candidate(self, x: Any) -> None:
        cands = self.candidates
        key = _item_bytes(x)
        if key in cands:
            cands[key][1] += 1
        elif len(cands) < self.capacity:
            cands[key] = [x, 1]
        else:
            weakest = min(cands, key=lambda c: (cands[c][1], repr(cands[c][0])))
            cands[key] = [x, cands.pop(weakest)[1] + 1]

    def query(self, y: Any) -> float:
        ref, touched = self._reference(y)
        if self.exact:
            probe = self.sv.copy()
            for j in touched:
                probe.apply(gates.rz(-float(ref[j])), [j])
                probe.apply(gates.H, [j])
            overlap = float(probe.marginal_probabilities(touched)[0])
        else:
            diff = self._bucket_phases()[touched] - ref[touched]
            overlap = float(np.prod(np.cos(diff / 2.0) ** 2))
        return min(1.0, max(0.0, overlap))

    def baseline_overlap(self, y: Any) -> float:
        ref, touched = self._reference(y)
        return float(np.prod(np.cos(ref[touched] / 2.0) ** 2))

    def contains(self, y: Any) -> bool:
        threshold = (1.0 + self.baseline_overlap(y)) / 2.0
        return round(self.query(y), 12) >= round(threshold, 12)

    # -- readouts ----------------------------------------------------------

    def _bucket_phases(self) -> np.ndarray:
        if self.pattern == "log-weighted":
            return self.phases
        return self.theta * self.counts.astype(np.float64)

    def _wrapped_angle(self, bucket: int) -> float:
        if self.exact:
            bit = 1 << (self.spec.m - 1 - bucket)
            return float(np.angle(self.sv.data[bit] / self.sv.data[0]))
        phi = float(self._bucket_phases()[bucket])
        return math.atan2(math.sin(phi), math.cos(phi))

    def bucket_count(self, bucket: int) -> int:
        period = max(1, round(2.0 * math.pi / self.theta))
        return round(self._wrapped_angle(bucket) / self.theta) % period

    def estimate(self, x: Any) -> int:
        if self.spec.family == "qhh":
            phi = min(
                abs(self._wrapped_angle(b)) for b in set(self.buckets(x))
            )
            return max(0, round(2.0 ** (phi / self.theta) - 1.0))
        return min(self.bucket_count(b) for b in set(self.buckets(x)))

    def top(self, j: int = 10) -> List[Tuple[Any, int]]:
        ranked = sorted(
            self.candidates.values(),
            key=lambda c: (-self.estimate(c[0]), -c[1], repr(c[0])),
        )
        return [(x, self.estimate(x)) for x, _count in ranked[:j]]

    def signature(self) -> Tuple[int, ...]:
        return tuple(
            1 if self._wrapped_angle(j) > 0 else 0
            for j in range(self.spec.m)
        )
