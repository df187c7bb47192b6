"""Property: a RoundLedger's running total always equals its charge list.

``RoundLedger.total`` is kept as a running sum rather than re-summed on
every read.  Hypothesis drives random sequences of ``charge``, negative
ones rejected.  After every step the total must equal the sum of the
list, and the per-phase breakdown must sum to it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import RoundLedger

phases = st.sampled_from(["setup", "a", "b"])
steps = st.lists(st.tuples(phases, st.integers(-2, 50)), max_size=25)


def _check(ledger: RoundLedger) -> None:
    assert ledger.total == sum(r for _, r in ledger.charges)
    assert sum(ledger.by_phase().values()) == ledger.total


@settings(max_examples=200, deadline=None)
@given(steps=steps)
def test_running_total_matches_the_charge_list(steps):
    ledger = RoundLedger()
    _check(ledger)
    for phase, rounds in steps:
        try:
            ledger.charge(phase, rounds)
        except ValueError:
            assert rounds < 0  # only a negative charge is rejected
        _check(ledger)
