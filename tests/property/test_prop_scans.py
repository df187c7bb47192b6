"""The array scans of the Level-S ground truth equal their scalar references.

Each emulation reads its ground truth with numpy array operations: the
framework's fold, Dürr–Høyer's marked set, the marked-subset sampler,
the element-distinctness walk, the sweep's input draws, the meeting
totals and 0/1 check and Deutsch–Jozsa's promise string.  Hypothesis
holds each to the element-by-element code it replaced
(:mod:`tests.queries.reference_scans`) with ``==`` on the result, on the
ledger's batches (sizes and labels) and the indices each batch read, and
on the generator's state afterwards, so every table, verdict and trace
of the sweep is unchanged.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import deutsch_jozsa as dj_app
from repro.apps import meeting
from repro.congest import topologies
from repro.congest.vectorized import combine_ufuncs
from repro.core.framework import DistributedInput
from repro.core.semigroup import Semigroup, combine_sum
from repro.experiments import e07_meeting, e08_element_distinctness, e09_deutsch_jozsa
from repro.queries import element_distinctness, grover, minimum
from repro.queries.ledger import QueryLedger
from repro.queries.oracle import StringOracle

from ..queries import reference_scans as ref

PROPS = settings(max_examples=80, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])
seeds = st.integers(0, 2**32 - 1)


class RecordingOracle(StringOracle):
    """A string oracle that also keeps the indices of every batch."""

    def __init__(self, values, p):
        super().__init__(values, QueryLedger(p))
        self.reads = []

    def query_batch(self, indices, label=""):
        indices = list(indices)
        self.reads.append(indices)
        return super().query_batch(indices, label=label)


def outcome(fn, *args, **kwargs):
    """``fn``'s value, or the type of what it raised."""
    try:
        with np.errstate(over="ignore"):
            return "value", fn(*args, **kwargs)
    except Exception as exc:
        return "raised", type(exc)


def both(new, old, values, p, seed, **kwargs):
    """Each version's (outcome, batches, reads, generator state)."""
    runs = []
    for algorithm in (new, old):
        oracle = RecordingOracle(values, p)
        rng = np.random.default_rng(seed)
        result = outcome(algorithm, oracle, rng, **kwargs)
        runs.append(
            (result, oracle.ledger.records, oracle.reads, rng.bit_generator.state)
        )
    return runs


# -- the fold ----------------------------------------------------------------


def combine_unregistered(a, b):
    """Outside the combine table, and order-dependent: folds stay scalar."""
    return a - b


COMBINES = [*combine_ufuncs(), combine_unregistered]

#: Python ints, ints near and past the ends of int64, and numpy ints.
fold_values = st.one_of(
    st.integers(-8, 8),
    st.integers(-(2**62), 2**62),
    st.sampled_from([2**62, 2**63 - 1, -(2**62), -(2**63)]),
    st.integers(2**63, 2**70),
    st.integers(-(2**70), -(2**63) - 1),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
#: Sums of these may leave int64 part way through the fold.
large_values = st.one_of(
    st.integers(-8, 8),
    st.integers(2**61, 2**63 - 1),
    st.integers(-(2**63), -(2**61)),
    st.integers(2**61, 2**63 - 1).map(np.int64),
)


@st.composite
def distributed_inputs(draw, values=fold_values):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 8))
    vectors = {}
    for v in draw(st.permutations(range(n))):
        row = draw(st.lists(values, min_size=k, max_size=k))
        if draw(st.booleans()) and all(-(2**63) <= x < 2**63 for x in row):
            row = np.array(row, dtype=np.int64)
        vectors[v] = row
    return vectors


class TestFold:
    @PROPS
    @given(vectors=distributed_inputs(), combine=st.sampled_from(COMBINES))
    def test_fold_matches_reference(self, vectors, combine):
        semigroup = Semigroup("s", combine, bits=64, identity=0)
        di = DistributedInput(vectors, semigroup)
        assert outcome(di.aggregated) == outcome(ref.aggregated, vectors, semigroup)

    @PROPS
    @given(vectors=distributed_inputs(values=large_values))
    def test_sums_near_the_ends_of_int64(self, vectors):
        semigroup = Semigroup("s", combine_sum, bits=64, identity=0)
        di = DistributedInput(vectors, semigroup)
        assert outcome(di.aggregated) == outcome(ref.aggregated, vectors, semigroup)

    @PROPS
    @given(vectors=distributed_inputs(), combine=st.sampled_from(COMBINES))
    def test_fold_returns_python_ints_on_the_array_path(self, vectors, combine):
        rows = list(vectors.values())
        if combine is combine_unregistered or any(
            not -(2**53) < int(x) < 2**53 for row in rows for x in row
        ):
            return
        out = DistributedInput(vectors, Semigroup("s", combine, 64)).aggregated()
        assert all(type(x) is int for x in out)


# -- Dürr–Høyer --------------------------------------------------------------


def identity(v):
    return v


def inf_key(v):
    """Some values are invalid: they key to +∞."""
    return math.inf if v % 4 == 0 else v


def huge_key(v):
    """Ints past 2**53 beside floats: the array cannot compare exactly."""
    return 2**60 + v if v % 2 else float(v)


def pair_key(v):
    """Not a number: tuples compare lexicographically."""
    return (v % 3, v)


KEYS = [identity, minimum._NegatedKey(), inf_key, huge_key, pair_key]


@st.composite
def oracle_values(draw, high=30):
    values = draw(st.lists(st.integers(0, high), min_size=1, max_size=60))
    form = draw(st.sampled_from(["int", "numpy", "mixed", "float"]))
    if form == "numpy":
        return list(np.array(values, dtype=np.int64))
    if form == "mixed":
        return [np.int64(v) if i % 2 else v for i, v in enumerate(values)]
    if form == "float":
        return [math.inf if v == high else float(v) for v in values]
    return values


class TestFindMinimum:
    @PROPS
    @given(values=oracle_values(), data=st.data(), key=st.sampled_from(KEYS),
           multiplicity=st.integers(1, 3), seed=seeds)
    def test_matches_reference(self, values, data, key, multiplicity, seed):
        p = data.draw(st.integers(1, len(values) + 2))
        new, old = both(
            minimum.find_minimum, ref.find_minimum, values, p, seed,
            multiplicity=multiplicity, key=key,
        )
        assert new == old

    @PROPS
    @given(values=oracle_values(high=2000), p=st.integers(1, 8), seed=seeds)
    def test_many_distinct_values(self, values, p, seed):
        new, old = both(minimum.find_minimum, ref.find_minimum, values, p, seed)
        assert new == old


class TestSampleMarkedSubset:
    @PROPS
    @given(k=st.one_of(st.integers(1, 300), st.integers(10_001, 10_400)),
           data=st.data(), seed=seeds)
    def test_matches_reference(self, k, data, seed):
        p = data.draw(st.integers(1, min(k, 64)))
        marked = sorted(data.draw(
            st.sets(st.integers(0, k - 1), min_size=1, max_size=40)
        ))
        given_marked = np.array(marked) if data.draw(st.booleans()) else marked
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        new = grover._sample_marked_subset(rng_new, k, p, given_marked)
        old = ref._sample_marked_subset(rng_old, k, p, marked)
        assert new == old
        assert [type(i) for i in new] == [type(i) for i in old]
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


# -- the element-distinctness walk --------------------------------------------


@st.composite
def collision_values(draw):
    k = draw(st.integers(2, 150))
    values = draw(st.lists(
        st.integers(0, 10**6), min_size=k, max_size=k, unique=True
    ))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        values[j] = values[i]
    if draw(st.booleans()):
        values = list(np.array(values, dtype=np.int64))
    return values


class TestFindCollision:
    @PROPS
    @given(values=collision_values(), data=st.data(), seed=seeds,
           success=st.sampled_from([0.0, 0.8, 1.0]))
    def test_matches_reference(self, values, data, seed, success):
        p = data.draw(st.integers(1, len(values) + 1))
        new, old = both(
            element_distinctness.find_collision, ref.find_collision,
            values, p, seed, success_probability=success,
        )
        assert new == old
        if new[0][0] == "value":
            pair_types = [type(i) for i in new[0][1].pair or ()]
            assert pair_types == [type(i) for i in old[0][1].pair or ()]

    @PROPS
    @given(values=collision_values(), seed=seeds)
    def test_walk_matches_reference(self, values, seed):
        p = max(1, len(values) // 8)
        if p >= (len(values) + 1) // 2:
            return
        new, old = both(
            element_distinctness.find_collision, ref.find_collision,
            values, p, seed,
        )
        assert new == old


# -- the sweep's inputs --------------------------------------------------------

networks = st.builds(topologies.path_with_endpoints, st.integers(1, 6))


class TestInputDraws:
    """The bulk draws consume the generator exactly as the scalar ones."""

    @PROPS
    @given(net=networks, k=st.integers(1, 3000), seed=seeds)
    def test_e7_calendars(self, net, k, seed):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        new = e07_meeting._calendars(net, k, rng_new)
        old = ref.meeting_calendars(net, k, rng_old)
        assert {v: c.tolist() for v, c in new.items()} == old
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    @PROPS
    @given(net=networks, k=st.integers(2, 3000), seed=seeds)
    def test_e8_planted(self, net, k, seed):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        new = e08_element_distinctness._planted(net, k, rng_new)
        assert new == ref._planted(net, k, rng_old)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    @PROPS
    @given(net=networks, half=st.integers(1, 1500), balanced=st.booleans(),
           seed=seeds)
    def test_e9_promise_inputs(self, net, half, balanced, seed):
        k = 2 * half
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        new = e09_deutsch_jozsa._promise_inputs(net, k, rng_new, balanced)
        assert new == ref._promise_inputs(net, k, rng_old, balanced)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


# -- meeting scheduling and Deutsch–Jozsa ------------------------------------

bits = st.sampled_from([0, 1, True, False, np.int64(0), np.int64(1)])


@st.composite
def bit_rows(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 40))
    rows = {}
    for v in range(n):
        row = draw(st.lists(bits, min_size=k, max_size=k))
        form = draw(st.sampled_from(["list", "bool", "int64"]))
        if form == "bool":
            row = np.array([bool(b) for b in row])
        elif form == "int64":
            row = np.array(row, dtype=np.int64)
        rows[v] = row
    return rows


#: Entries ``bit in (0, 1)`` accepts, and entries it rejects.
ENTRIES = [
    0, 1, True, False, 0.0, 1.0, np.int64(1), np.float32(0.0), 1 + 0j,
    np.bool_(True), 2, -1, 0.5, math.nan, 2**70, "0", "1", b"\x01", None,
    [0], (1,),
]


class TestMeetingAndDeutschJozsa:
    @PROPS
    @given(calendars=bit_rows())
    def test_totals(self, calendars):
        assert meeting._totals(calendars) == ref._totals(calendars)

    @PROPS
    @given(inputs=bit_rows())
    def test_aggregated_input(self, inputs):
        assert dj_app.aggregated_input(inputs) == ref.aggregated_input(inputs)

    @PROPS
    @given(vec=st.lists(st.sampled_from(ENTRIES), max_size=8), as_array=st.booleans())
    def test_bit_check_accepts_and_rejects_alike(self, vec, as_array):
        if as_array:
            try:
                vec = np.array(vec)
            except ValueError:
                return
            if vec.dtype == object or vec.ndim != 1:
                return
        assert meeting._is_bit_vector(vec) == ref.is_bit_vector(vec)

    @pytest.mark.parametrize("vec", [[0, 1, 2], [0, 0.5], ["1"], [None], [[0], [1]]])
    def test_schedule_meeting_rejects(self, vec):
        net = topologies.path(2)
        calendars = {0: [0] * len(vec), 1: vec}
        with pytest.raises(ValueError, match="0/1 vectors"):
            meeting.schedule_meeting(net, calendars)
