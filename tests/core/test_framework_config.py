"""FrameworkConfig: validation, flat-call rejection, cache tripwire."""

import dataclasses

import pytest

from repro.congest import topologies
from repro.core.framework import (
    DistributedInput,
    FrameworkConfig,
    StalePreparedNetworkError,
    invalidate_prepared,
    prepare_network,
    run_framework,
)
from repro.core.semigroup import sum_semigroup


K = 12


@pytest.fixture
def network():
    return topologies.grid(3, 4)


@pytest.fixture
def di(network):
    vectors = {
        v: [(v + 2 * j) % 4 for j in range(K)] for v in network.nodes()
    }
    return DistributedInput(vectors, sum_semigroup(4 * network.n))


def algorithm(oracle, _rng):
    first = oracle.query_batch([0, 1], label="a")
    second = oracle.query_batch([2, 3], label="b")
    return first + second


class TestConfigValidation:
    def test_parallelism_must_be_positive(self):
        with pytest.raises(ValueError, match="parallelism"):
            FrameworkConfig(parallelism=0)

    def test_mode_must_be_known(self):
        with pytest.raises(ValueError, match="mode"):
            FrameworkConfig(parallelism=1, mode="quantum")

    def test_frozen(self):
        cfg = FrameworkConfig(parallelism=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.parallelism = 3

    def test_replace_builds_variant(self, di):
        base = FrameworkConfig(parallelism=2, dist_input=di, seed=0)
        variant = base.replace(seed=7, mode="engine")
        assert (variant.seed, variant.mode) == (7, "engine")
        assert base.seed == 0 and base.mode == "formula"
        assert variant.dist_input is di

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            FrameworkConfig(parallelism=2).replace(parallelism=-1)


class TestShimEquivalence:
    """The flat pre-config signature is gone: only config= is accepted."""

    def test_config_plus_legacy_rejected(self, network, di):
        cfg = FrameworkConfig(parallelism=2, dist_input=di)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_framework(network, algorithm, parallelism=2, config=cfg)

    def test_no_arguments_rejected(self, network):
        with pytest.raises(TypeError, match="config="):
            run_framework(network, algorithm)

    def test_unknown_keyword_rejected(self, network, di):
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_framework(
                network, algorithm, parallelism=2, dist_input=di,
                typo_field=1,
            )

    def test_duplicated_argument_rejected(self, network, di):
        with pytest.raises(TypeError):
            run_framework(network, algorithm, 2, parallelism=2, dist_input=di)

    def test_missing_parallelism_rejected(self, network, di):
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_framework(network, algorithm, dist_input=di)


class TestStaleCacheTripwire:
    def test_in_place_mutation_detected(self):
        net = topologies.grid(3, 3)
        invalidate_prepared(net)
        prepare_network(net, seed=0)
        net.graph.add_edge(0, 8)  # mutate the topology in place
        try:
            with pytest.raises(StalePreparedNetworkError):
                prepare_network(net, seed=0)
        finally:
            invalidate_prepared(net)

    def test_unmutated_network_still_cached(self):
        net = topologies.grid(3, 3)
        invalidate_prepared(net)
        first = prepare_network(net, seed=0)
        assert prepare_network(net, seed=0) is first
        invalidate_prepared(net)

    def test_run_framework_surfaces_tripwire(self, di):
        net = topologies.grid(3, 4)
        invalidate_prepared(net)
        cfg = FrameworkConfig(parallelism=2, dist_input=di, seed=4)
        run_framework(net, algorithm, config=cfg)
        net.graph.add_edge(0, 11)
        try:
            with pytest.raises(StalePreparedNetworkError):
                run_framework(net, algorithm, config=cfg)
        finally:
            invalidate_prepared(net)
