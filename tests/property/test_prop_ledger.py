"""Property: a RoundLedger's running total always equals its charge list.

``RoundLedger.total`` is kept as a running sum rather than re-summed on
every read.  Hypothesis drives random sequences of ``charge`` (negative
ones rejected), ``merge`` (with a prefix, ``on_collision="add"`` or
``"error"``, rejected collisions, and children built from raw charge
lists that may hold a negative entry, so a merge can raise part-way),
and construction from a charge list.  After every step the total must
equal the sum of the list, and the per-phase breakdown must sum to it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import RoundLedger

phases = st.sampled_from(["setup", "a", "b", "p:a"])
entries = st.lists(
    st.tuples(phases, st.integers(-3, 50)), max_size=6
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("charge"), phases, st.integers(-2, 50)),
        st.tuples(
            st.just("merge"), entries, st.sampled_from(["", "p:"]),
            st.sampled_from(["add", "error"]),
        ),
        st.tuples(st.just("construct"), entries),
    ),
    max_size=25,
)


def _check(ledger: RoundLedger) -> None:
    assert ledger.total == sum(r for _, r in ledger.charges)
    assert sum(ledger.by_phase().values()) == ledger.total


@settings(max_examples=200, deadline=None)
@given(start=entries, steps=steps)
def test_running_total_matches_the_charge_list(start, steps):
    ledger = RoundLedger(charges=list(start))
    _check(ledger)
    for step in steps:
        kind = step[0]
        try:
            if kind == "charge":
                ledger.charge(step[1], step[2])
            elif kind == "merge":
                _, charges, prefix, on_collision = step
                child = RoundLedger(charges=list(charges))
                before = list(child.charges)
                try:
                    ledger.merge(child, prefix=prefix, on_collision=on_collision)
                finally:
                    assert child.charges == before
                    _check(child)
            else:
                ledger = RoundLedger(charges=ledger.charges + step[1])
        except ValueError:
            pass  # a rejected charge, collision or negative entry
        _check(ledger)
