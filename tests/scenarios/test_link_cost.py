"""LinkCostModel: the wall-clock price of a CONGEST round on a link."""

import pytest

from repro.core.cost import (
    CLASSICAL_METRO,
    LINK_PRESETS,
    QUANTUM_MATURE,
    QUANTUM_NEAR_TERM,
    LinkCostModel,
)


class TestLinkCostModel:
    def test_message_time_formula(self):
        link = LinkCostModel(name="t", latency_us=10.0,
                             bandwidth_bits_per_us=2.0, overhead_us=5.0,
                             constant_factor=3.0)
        # 3 · (10 + 8/2 + 5) = 57
        assert link.message_time_us(8) == pytest.approx(57.0)

    def test_round_is_one_message_time(self):
        assert CLASSICAL_METRO.round_time_us(16) == (
            CLASSICAL_METRO.message_time_us(16)
        )

    def test_wall_clock_scales_linearly(self):
        one = QUANTUM_MATURE.wall_clock_us(1, 16)
        assert QUANTUM_MATURE.wall_clock_us(10, 16) == pytest.approx(10 * one)

    @pytest.mark.parametrize("kwargs", [
        {"latency_us": -1.0},
        {"bandwidth_bits_per_us": 0.0},
        {"overhead_us": -0.5},
        {"constant_factor": 0.0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        base = dict(name="t", latency_us=1.0, bandwidth_bits_per_us=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            LinkCostModel(**base)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            CLASSICAL_METRO.message_time_us(-1)

    def test_presets_registered_by_name(self):
        assert LINK_PRESETS["classical-metro"] is CLASSICAL_METRO
        assert LINK_PRESETS["quantum-mature"] is QUANTUM_MATURE

    def test_quantum_rounds_cost_more_than_classical(self):
        """The premium every crossover argument rests on."""
        for quantum in (QUANTUM_MATURE, QUANTUM_NEAR_TERM):
            assert quantum.round_time_us(16) > CLASSICAL_METRO.round_time_us(16)
