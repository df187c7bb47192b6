"""Amplitude sketches: backends, taxonomy, instantiations, composition."""

import math

import numpy as np
import pytest

from repro.apps.sketches import (
    AUTO_EXACT_M,
    EXACT_MAX_M,
    TAXONOMY,
    AmplitudeSketch,
    QCount,
    QHeavyHitters,
    QSimHash,
    SketchSpec,
    item_token,
    theorem1_min_qubits,
)


def make(m=8, family="qcount", backend="auto", **kw):
    return AmplitudeSketch(
        SketchSpec(family=family, m=m, backend=backend, **kw)
    )


class TestSpec:
    def test_backend_resolution(self):
        assert make(m=AUTO_EXACT_M).backend == "exact"
        assert make(m=AUTO_EXACT_M + 1).backend == "emulated"
        assert make(m=64).backend == "emulated"

    def test_exact_cap(self):
        with pytest.raises(ValueError, match="exact"):
            make(m=EXACT_MAX_M + 1, backend="exact")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            SketchSpec(family="bloom", m=8)

    def test_fingerprint_excludes_backend_and_content(self):
        a = make(m=8, backend="exact")
        b = make(m=8, backend="emulated")
        assert a.fingerprint == b.fingerprint
        before = a.fingerprint
        a.insert("x")
        assert a.fingerprint == before  # identity, not content

    def test_fingerprint_separates_families_and_seeds(self):
        fps = {
            make(m=8).fingerprint,
            make(m=8, family="qsimhash").fingerprint,
            make(m=8, seed=1).fingerprint,
            make(m=16).fingerprint,
        }
        assert len(fps) == 4

    def test_item_token_is_stable_and_type_aware(self):
        assert item_token("x") == item_token("x")
        assert item_token("1") != item_token(1)
        with pytest.raises(TypeError):
            item_token(["unhashable-payload"])


class TestOverlap:
    def test_member_overlap_is_one_without_collisions(self):
        sk = make(m=256)
        sk.insert("only")
        assert sk.query("only") == pytest.approx(1.0, abs=1e-12)

    def test_empty_sketch_gives_baseline(self):
        sk = make(m=64)
        y = "absent"
        assert sk.query(y) == pytest.approx(sk.baseline_overlap(y))

    def test_contains_member_and_rejects_strangers(self):
        sk = make(m=256)
        for i in range(4):
            sk.insert(f"key-{i}")
        assert all(sk.contains(f"key-{i}") for i in range(4))
        false_pos = sum(sk.contains(f"other-{i}") for i in range(100))
        assert false_pos == 0

    def test_backends_agree_bit_level_on_decisions(self):
        for m in (8, 10):
            ex = make(m=m, backend="exact")
            em = make(m=m, backend="emulated")
            keys = [f"key-{i}" for i in range(3)]
            for sk in (ex, em):
                for x in keys:
                    sk.insert(x)
            for y in keys + [f"probe-{i}" for i in range(50)]:
                assert abs(ex.query(y) - em.query(y)) <= 1e-9
                assert ex.contains(y) == em.contains(y)

    def test_shots_sampling_is_seeded_and_bounded(self):
        sk = make(m=64)
        sk.insert("x")
        a = sk.query("x", shots=100, rng=np.random.default_rng(7))
        b = sk.query("x", shots=100, rng=np.random.default_rng(7))
        assert a == b
        assert 0.0 <= a <= 1.0

    def test_state_fidelity_tracks_divergence(self):
        a, b = make(m=32), make(m=32)
        assert a.state_fidelity(b) == pytest.approx(1.0)
        a.insert("x")
        assert a.state_fidelity(b) < 1.0


class TestCompose:
    def test_compose_equals_union_inserts(self):
        a, b = make(m=64), make(m=64)
        for i in range(4):
            a.insert(f"a-{i}")
            b.insert(f"b-{i}")
        union = make(m=64)
        for i in range(4):
            union.insert(f"a-{i}")
            union.insert(f"b-{i}")
        c = a.compose(b)
        assert c.state_fidelity(union) == pytest.approx(1.0, abs=1e-12)

    def test_compose_exact_backend(self):
        a, b = make(m=8, backend="exact"), make(m=8, backend="exact")
        a.insert("x")
        b.insert("y")
        union = make(m=8, backend="exact")
        union.insert("x")
        union.insert("y")
        assert a.compose(b).state_fidelity(union) == pytest.approx(1.0)

    def test_compose_requires_identical_specs(self):
        with pytest.raises(ValueError):
            make(m=64).compose(make(m=32))


class TestTaxonomy:
    def test_rows_cover_the_three_instantiations(self):
        assert set(TAXONOMY) == {"qcount", "qsimhash", "qhh"}
        assert TAXONOMY["qcount"].order_invariant
        assert TAXONOMY["qsimhash"].order_invariant
        assert not TAXONOMY["qhh"].order_invariant

    def test_theorem1_space_bound(self):
        assert theorem1_min_qubits(0.5) == 1
        assert theorem1_min_qubits(0.25) == 2
        assert theorem1_min_qubits(1e-3) == math.ceil(math.log2(1000))
        # Noise eats into the budget: more qubits for the same alpha.
        assert theorem1_min_qubits(0.01, eps=0.5) > theorem1_min_qubits(0.01)
        with pytest.raises(ValueError):
            theorem1_min_qubits(0.0)


class TestQCount:
    def test_estimates_track_multiplicity(self):
        qc = QCount(m=128, seed=3)
        for _ in range(3):
            qc.insert("hot")
        qc.insert("cold")
        assert qc.estimate("hot") == 3
        assert qc.estimate("cold") == 1
        assert qc.estimate("absent") == 0

    def test_exact_and_emulated_estimates_identical(self):
        ex = QCount(m=10, k=3, seed=0, backend="exact")
        em = QCount(m=10, k=3, seed=0, backend="emulated")
        for sk in (ex, em):
            for _ in range(2):
                sk.insert("x")
            sk.insert("y")
        for y in ("x", "y", "z"):
            assert ex.estimate(y) == em.estimate(y)


class TestQSimHash:
    def test_signature_and_similarity(self):
        a = QSimHash(m=64, seed=5)
        b = QSimHash(m=64, seed=5)
        for i in range(8):
            a.insert(f"doc-{i}")
            b.insert(f"doc-{i}")
        assert a.signature() == b.signature()
        assert a.similarity(b) == pytest.approx(1.0)
        b.insert("outlier")
        assert a.similarity(b) <= 1.0

    def test_hamming(self):
        assert QSimHash.hamming((0, 1, 1), (1, 1, 0)) == 2


class TestQHeavyHitters:
    def test_top_ranks_by_frequency(self):
        hh = QHeavyHitters(m=128, seed=2, capacity=16)
        for count, key in ((9, "a"), (5, "b"), (1, "c")):
            for _ in range(count):
                hh.insert(key)
        top = [key for key, _ in hh.top(2)]
        assert top == ["a", "b"]
        assert hh.estimate("a") >= hh.estimate("b") >= hh.estimate("c")

    def test_capacity_eviction_keeps_heavies(self):
        hh = QHeavyHitters(m=256, seed=2, capacity=4)
        for _ in range(50):
            hh.insert("heavy")
        for i in range(20):
            hh.insert(f"light-{i}")
        assert [key for key, _ in hh.top(1)] == ["heavy"]

    @pytest.mark.parametrize("backend,m", [("exact", 12), ("emulated", 64)])
    def test_equal_items_are_separate_candidates(self, backend, m):
        # True == 1, but the two hash to different buckets: each keeps
        # its own candidate count.
        hh = QHeavyHitters(m=m, seed=0, backend=backend)
        for _ in range(5):
            hh.insert(True)
        hh.insert(1)
        assert hh.estimate(1) == 1
        assert hh.top(5) == [(True, 5), (1, 1)]


class TestEvents:
    def test_insert_and_query_emit_sketch_events(self):
        from repro.obs import MemorySink, Recorder

        sink = MemorySink()
        sk = AmplitudeSketch(
            SketchSpec(family="qcount", m=64), recorder=Recorder([sink]),
            name="lane0",
        )
        sk.insert("x")
        sk.query("x")
        kinds = [(e.kind, e.op) for e in sink.events]
        assert ("sketch", "insert") in kinds
        assert ("sketch", "query") in kinds
