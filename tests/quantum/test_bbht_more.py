"""Additional exact-Grover/BBHT behaviour tests."""

import numpy as np

from repro.quantum import grover


class TestSearchDefaults:
    def test_search_with_explicit_iterations(self, rng):
        run = grover.search(5, {7}, rng, iterations=0)
        # j = 0: uniform measurement, success probability 1/32.
        assert run.iterations_used == 0

    def test_search_empty_marked(self, rng):
        run = grover.search(4, set(), rng)
        assert run.result is None
        assert run.iterations_used == 0

    def test_optimal_iterations_monotone_in_n(self):
        assert grover.optimal_iterations(256, 1) > grover.optimal_iterations(16, 1)

    def test_optimal_iterations_decrease_with_t(self):
        assert grover.optimal_iterations(256, 16) < grover.optimal_iterations(256, 1)

    def test_optimal_iterations_zero_marked(self):
        assert grover.optimal_iterations(64, 0) == 0


class TestBBHTBehaviour:
    def test_growth_parameter_respected(self):
        """Slower growth (closer to 1) must still find the item."""
        hits = 0
        for seed in range(10):
            run = grover.bbht_search(
                6, {13}, np.random.default_rng(seed), growth=1.1
            )
            hits += run.result == 13
        assert hits >= 8

    def test_max_oracle_calls_cap(self, rng):
        run = grover.bbht_search(6, {1}, rng, max_oracle_calls=5)
        assert run.oracle_calls <= 5 + int(np.sqrt(64)) + 1

    def test_more_marked_fewer_calls(self):
        def avg_calls(marked):
            total = 0
            for seed in range(20):
                run = grover.bbht_search(
                    7, marked, np.random.default_rng(seed)
                )
                total += run.oracle_calls
            return total / 20

        sparse = avg_calls({3})
        dense = avg_calls(set(range(0, 64, 2)))
        assert dense < sparse / 2

    def test_found_item_always_marked(self):
        for seed in range(15):
            marked = {5, 40, 99}
            run = grover.bbht_search(7, marked, np.random.default_rng(seed))
            if run.result is not None:
                assert run.result in marked


class TestStateHelpers:
    def test_grover_state_normalized(self):
        state = grover.grover_state(5, {3, 4}, 3)
        assert state.is_normalized()

    def test_zero_iterations_is_uniform(self):
        state = grover.grover_state(4, {2}, 0)
        assert np.allclose(state.probabilities(), 1 / 16)

    def test_oracle_is_involution(self):
        state = grover.grover_state(4, set(), 0)
        before = state.data.copy()
        grover.oracle_phase_flip(state, {5, 9})
        grover.oracle_phase_flip(state, {5, 9})
        assert np.allclose(state.data, before)
