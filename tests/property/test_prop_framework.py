"""Property-based tests for the Theorem 8 framework invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import topologies
from repro.core.cost import CostModel
from repro.core.framework import (
    DistributedInput,
    FrameworkConfig,
    run_framework,
)
from repro.core.semigroup import max_semigroup, sum_semigroup, xor_semigroup

FAST = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

NETWORKS = {
    "path": topologies.path(7),
    "grid": topologies.grid(3, 3),
    "star": topologies.star(8),
}


@st.composite
def framework_cases(draw):
    name = draw(st.sampled_from(sorted(NETWORKS)))
    net = NETWORKS[name]
    k = draw(st.integers(min_value=2, max_value=24))
    semigroup_name = draw(st.sampled_from(["sum", "xor", "max"]))
    if semigroup_name == "sum":
        sg = sum_semigroup(net.n)
        value_range = 2
    elif semigroup_name == "xor":
        sg = xor_semigroup(3)
        value_range = 8
    else:
        sg = max_semigroup(31)
        value_range = 32
    vectors = {
        v: [
            draw(st.integers(min_value=0, max_value=value_range - 1))
            for _ in range(k)
        ]
        for v in net.nodes()
    }
    return net, DistributedInput(vectors, sg)


class TestOracleTruth:
    @FAST
    @given(framework_cases(), st.data())
    def test_every_query_answer_is_the_true_aggregate(self, case, data):
        net, di = case
        truth = di.aggregated()
        p = data.draw(st.integers(min_value=1, max_value=min(di.k, 6)))
        queries = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=di.k - 1),
                min_size=1, max_size=p,
            )
        )

        def algorithm(oracle, _rng):
            return oracle.query_batch(queries)

        run = run_framework(net, algorithm, config=FrameworkConfig(
            parallelism=p, dist_input=di, seed=0, leader=0,
        ))
        assert run.result == [truth[j] for j in queries]

    @FAST
    @given(framework_cases(), st.data())
    def test_total_rounds_decompose_exactly(self, case, data):
        """formula mode: total = setup + Σ per-batch charges, always."""
        net, di = case
        p = data.draw(st.integers(min_value=1, max_value=min(di.k, 5)))
        batches = data.draw(st.integers(min_value=0, max_value=4))

        def algorithm(oracle, _rng):
            for _ in range(batches):
                oracle.query_batch(list(range(p)), label="b")
            return None

        run = run_framework(net, algorithm, config=FrameworkConfig(
            parallelism=p, dist_input=di, seed=0, leader=0,
        ))
        cm = CostModel.for_network(net)
        expected_batches = batches * cm.batch_rounds(p, di.semigroup.bits, di.k)
        phases = run.rounds.by_phase()
        assert phases.get("batch:b", 0) == expected_batches
        assert run.total_rounds == phases["setup:bfs-tree"] + expected_batches

    @FAST
    @given(framework_cases())
    def test_peek_never_charges_rounds(self, case):
        net, di = case

        def algorithm(oracle, _rng):
            oracle.peek_all()
            return None

        run = run_framework(net, algorithm, config=FrameworkConfig(
            parallelism=1, dist_input=di, seed=0, leader=0,
        ))
        assert all(
            phase.startswith("setup") for phase, _ in run.rounds.charges
        )

    @FAST
    @given(framework_cases(), st.data())
    def test_engine_and_formula_values_agree(self, case, data):
        net, di = case
        p = data.draw(st.integers(min_value=1, max_value=min(di.k, 4)))
        queries = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=di.k - 1),
                min_size=1, max_size=p,
            )
        )

        def algorithm(oracle, _rng):
            return oracle.query_batch(queries)

        cfg = FrameworkConfig(parallelism=p, dist_input=di, seed=0,
                              leader=0)
        f = run_framework(net, algorithm, config=cfg)
        e = run_framework(net, algorithm, config=cfg.replace(mode="engine"))
        assert f.result == e.result
