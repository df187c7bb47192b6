"""Tests for fitting, report tables, and graph ground-truth utilities."""

import networkx as nx
import numpy as np
import pytest

from repro.analysis.fitting import fit_power_law
from repro.analysis.graphtruth import (
    cycle_value,
    girth,
    light_subgraph,
    min_cycle_at_most,
    shortest_cycle_through,
)
from repro.analysis.report import ExperimentTable
from repro.congest import topologies


class TestPowerLawFit:
    def test_exact_power_law_recovered(self):
        xs = [10, 20, 40, 80, 160]
        ys = [3 * x ** 0.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_fit_close(self, rng):
        xs = np.array([16, 32, 64, 128, 256, 512], dtype=float)
        ys = 2.0 * xs ** (2 / 3) * np.exp(rng.normal(0, 0.05, size=len(xs)))
        fit = fit_power_law(xs, ys)
        assert abs(fit.exponent - 2 / 3) < 0.1

    def test_predict(self):
        fit = fit_power_law([1, 2, 4], [2, 4, 8])
        assert fit.predict(8) == pytest.approx(16.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 1])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])


class TestExperimentTable:
    def test_render_contains_data(self):
        table = ExperimentTable("E1", "demo", ["x", "y"])
        table.add_row(1, 2.5)
        table.add_note("hello")
        text = table.render()
        assert "E1" in text and "2.5" in text and "hello" in text

    def test_row_arity_checked(self):
        table = ExperimentTable("E1", "demo", ["x", "y"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_bool_formatting(self):
        table = ExperimentTable("E", "t", ["ok"])
        table.add_row(True)
        assert "yes" in table.render()


class TestGraphTruth:
    def test_girth_of_cycle(self):
        assert girth(nx.cycle_graph(9)) == 9

    def test_girth_of_tree_none(self):
        assert girth(nx.balanced_tree(2, 3)) is None

    def test_girth_petersen(self):
        assert girth(nx.petersen_graph()) == 5

    def test_girth_complete(self):
        assert girth(nx.complete_graph(5)) == 3

    def test_girth_matches_planted(self):
        for g in [4, 5, 6, 8]:
            net = topologies.planted_cycle(30, g, seed=g)
            assert girth(net.graph) == g

    def test_shortest_cycle_through_vertex(self):
        g = nx.cycle_graph(6)
        g.add_edge(0, 3)  # chord creating two 4-cycles through 0 and 3
        assert shortest_cycle_through(g, 0) == 4
        assert shortest_cycle_through(g, 1) == 4
        # vertex 2 lies on the 4-cycle 0-1-2-3.
        assert shortest_cycle_through(g, 2) == 4

    def test_shortest_cycle_through_acyclic_vertex(self):
        g = nx.cycle_graph(5)
        g.add_edge(0, 99)
        assert shortest_cycle_through(g, 99) is None

    def test_shortest_cycle_cap(self):
        g = nx.cycle_graph(10)
        assert shortest_cycle_through(g, 0, cap=5) is None
        assert shortest_cycle_through(g, 0, cap=10) == 10

    def test_min_cycle_at_most(self):
        g = nx.petersen_graph()
        assert min_cycle_at_most(g, 4) is None
        assert min_cycle_at_most(g, 5) == 5

    def test_cycle_value_sentinel(self):
        g = nx.balanced_tree(2, 3)
        assert cycle_value(g, 0, 6) == 7

    def test_cycle_value_through_neighbor(self):
        g = nx.cycle_graph(4)
        g.add_edge(0, 4)  # vertex 4 hangs off the cycle
        assert cycle_value(g, 4, 5) == 4  # neighbor 0 is on the C4

    def test_light_subgraph(self):
        g = nx.star_graph(10)
        sub = light_subgraph(g, degree_cap=2)
        assert 0 not in sub.nodes()
        assert sub.number_of_nodes() == 10
