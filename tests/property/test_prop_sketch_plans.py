"""Cached item plans answer exactly as the per-call computation does.

A sketch hashes each item once into a plan and keeps a bounded LRU of
plans keyed by the item's byte encoding.  Hypothesis drives random
insert/query streams through a sketch and through the test-only
:class:`~tests.apps.reference_sketch.ReferenceSketch`, which hashes on
every call, and requires ``==`` on every answer: overlaps, verdicts,
baselines, bucket counts, estimates, rankings, signatures, buckets and
memo tokens.  The items include ``1``, ``1.0`` and ``True``, which are
one dict key but three byte encodings, and the streams hold more
distinct items than the (patched) cache bound, so plans are evicted
and rebuilt mid-stream.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import sketches
from repro.apps.sketches import (
    QCount,
    QHeavyHitters,
    QSimHash,
    SketchSpec,
    item_token,
)

from ..apps.reference_sketch import ReferenceSketch, item_token as reference_token

#: Equal as dict keys or as text, different as sketch items.
ALIASES = [1, 1.0, True, "1", b"1", (1, "a")]
#: A bound the streams below overflow many times over.
SMALL_BOUND = 3
CANDIDATES = 4

FAMILIES = {"qcount": QCount, "qsimhash": QSimHash, "qhh": QHeavyHitters}

items = st.one_of(
    st.sampled_from(ALIASES),
    st.integers(0, 11).map(lambda i: f"key-{i}"),
)
streams = st.lists(
    st.tuples(st.sampled_from(["insert", "query"]), items), max_size=40
)
layouts = st.sampled_from(
    [("exact", 4), ("exact", 8), ("emulated", 8), ("emulated", 64)]
)


def build(family, backend, m, k, seed):
    kw = {"capacity": CANDIDATES} if family == "qhh" else {}
    sketch = FAMILIES[family](m=m, k=k, seed=seed, backend=backend, **kw)
    spec = SketchSpec(family=family, m=m, k=k, seed=seed, backend=backend)
    return sketch, ReferenceSketch(spec, capacity=CANDIDATES)


def assert_same_answers(sketch, ref, probes):
    for y in probes:
        assert sketch.query(y) == ref.query(y)
        assert sketch.contains(y) == ref.contains(y)
        assert sketch.baseline_overlap(y) == ref.baseline_overlap(y)
        assert sketch.buckets(y) == ref.buckets(y)
        assert sketch.item_token(y) == reference_token(y)
        assert item_token(y) == reference_token(y)
        if not isinstance(sketch, QSimHash):
            assert sketch.estimate(y) == ref.estimate(y)
    for b in range(sketch.spec.m):
        assert sketch.bucket_count(b) == ref.bucket_count(b)
    if isinstance(sketch, QSimHash):
        assert sketch.signature() == ref.signature()
    if isinstance(sketch, QHeavyHitters):
        assert sketch.top(CANDIDATES) == ref.top(CANDIDATES)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream=streams, family=st.sampled_from(sorted(FAMILIES)),
       layout=layouts, k=st.sampled_from([2, 3, 5]), seed=st.integers(0, 3))
def test_plans_match_per_call_reference(stream, family, layout, k, seed):
    backend, m = layout
    with mock.patch.object(sketches, "_PLAN_ENTRIES", SMALL_BOUND):
        sketch, ref = build(family, backend, m, k, seed)
        for op, x in stream:
            if op == "insert":
                sketch.insert(x)
                ref.insert(x)
            else:
                assert sketch.query(x) == ref.query(x)
            assert len(sketch._plans) <= SMALL_BOUND
        assert_same_answers(sketch, ref, ALIASES + [x for _, x in stream])


def test_real_bound_overflows_and_rebuilds():
    # More distinct items than the module's bound: the first items'
    # plans are evicted, then rebuilt by the probes.
    n = sketches._PLAN_ENTRIES + 100
    sketch, ref = build("qcount", "emulated", 64, 3, 0)
    for i in range(n):
        sketch.insert(i)
        ref.insert(i)
    assert len(sketch._plans) == sketches._PLAN_ENTRIES
    probes = list(range(0, n, 97)) + ALIASES
    for y in probes:
        assert sketch.query(y) == ref.query(y)
        assert sketch.contains(y) == ref.contains(y)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("bad", [None, [1], {"a": 1}, 1 + 2j, object()])
def test_unsupported_items_still_raise(family, bad):
    sketch, _ = build(family, "emulated", 64, 3, 0)
    for call in (sketch.insert, sketch.query, sketch.contains,
                 sketch.baseline_overlap, sketch.buckets, sketch.item_token):
        with pytest.raises(TypeError):
            call(bad)
    with pytest.raises(TypeError):
        item_token(bad)
    assert len(sketch._plans) == 0
