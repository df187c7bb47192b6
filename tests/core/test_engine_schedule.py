"""The framework has no round-loop option: the engine chooses its loop.

PR 7 let a framework run ask its engine-mode protocols to execute
column-major through ``FrameworkConfig.engine_schedule``.  The engine now
runs them on its bulk loop by default, so the option is gone: passing it
is a ``TypeError``, every engine-mode round runs on the bulk loop, and
every measured quantity keeps the value the per-node loop produced.
"""

import pytest

from repro.congest import topologies
from repro.core.framework import (
    DistributedInput,
    FrameworkConfig,
    prepare_network,
    run_framework,
)
from repro.core.semigroup import sum_semigroup
from repro.obs import MetricsSink, Recorder, install

K = 12

#: Written by the per-node (``"active"``) loop before the engine's
#: default became the bulk loop, on the fixtures below.
PINNED = {
    "formula": (
        [18, 18, 18, 18], 56,
        {"setup:leader-election": 6, "setup:bfs-tree": 12,
         "batch:a": 19, "batch:b": 19},
        2,
    ),
    "engine": (
        [18, 18, 18, 18], 74,
        {"setup:leader-election": 6, "setup:bfs-tree": 12,
         "index-distribute": 12, "value-upcast": 16,
         "value-uncompute": 16, "index-uncompute": 12},
        2,
    ),
}


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


class TestValidation:
    def test_config_rejects_unknown_schedule(self):
        with pytest.raises(TypeError, match="engine_schedule"):
            FrameworkConfig(parallelism=1, engine_schedule="vectorized")

    def test_legacy_shim_does_not_accept_it(self, network, di):
        # There is no flat signature: the knob is config-only.
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_framework(
                network, algorithm, parallelism=2, dist_input=di,
                engine_schedule="vectorized",
            )


class TestEquivalence:
    @pytest.mark.parametrize("mode", ["formula", "engine"])
    def test_vectorized_run_is_bit_identical(
        self, network, di, mode, cold_setup
    ):
        config = FrameworkConfig(
            parallelism=3, dist_input=di, seed=1, mode=mode,
        )
        run = run_framework(network, algorithm, config=config)
        assert (
            run.result, run.total_rounds, run.rounds.by_phase(), run.batches
        ) == PINNED[mode]

    def test_engine_batches_run_every_round_on_the_bulk_loop(
        self, network, di, cold_setup
    ):
        # Warm the setup cache so only the batches' protocols emit rounds.
        prepare_network(network, seed=1)
        sink = MetricsSink()
        config = FrameworkConfig(
            parallelism=3, dist_input=di, seed=1, mode="engine",
        )
        with install(Recorder([sink])):
            phases = run_framework(
                network, algorithm, config=config
            ).rounds.by_phase()
        engine_rounds = sum(
            phases[p]
            for p in ("index-distribute", "value-upcast", "value-uncompute")
        )
        assert engine_rounds == 44
        assert sink.vectorized_rounds == engine_rounds
