"""The vectorized (column-major) engine schedule: fast path and fallbacks.

``Engine(schedule="vectorized")``, the default, must be observationally
identical to the per-node schedules on the audited program families, and
must fall back — with a recorded reason, still producing identical
results — on anything it cannot bulk-execute.  The property-based twin of
this file is ``tests/property/test_prop_vectorized.py``.
"""

import pytest

from repro.congest import topologies
from repro.congest.algorithms.aggregate import (
    aggregate_single,
    build_downcast_programs,
    build_upcast_programs,
)
from repro.congest.algorithms.bfs import BFSEchoProgram, bfs_with_echo
from repro.congest.algorithms.leader import (
    BoundedMaxIdFloodProgram,
    MaxIdFloodProgram,
)
from repro.congest.algorithms.multibfs import MultiSourceBFSProgram
from repro.congest.engine import Engine
from repro.congest.vectorized import build_vectorized
from repro.core.semigroup import (
    combine_and,
    combine_max,
    combine_min,
    combine_or,
    combine_sum,
    combine_xor,
)
from repro.obs import MemorySink, Recorder


def _assert_identical(res_a, res_b):
    assert res_a.rounds == res_b.rounds
    assert res_a.outputs == res_b.outputs
    assert res_a.stats == res_b.stats


def _run(net, programs, schedule, **kwargs):
    engine = Engine(net, programs, seed=3, schedule=schedule, **kwargs)
    return engine, engine.run()


def _upcast(net, tree, values, combine, domain, schedule, seed=None):
    """``pipelined_upcast``'s result, on a pinned round loop."""
    programs = build_upcast_programs(net, tree, values, combine, domain)
    result = Engine(net, programs, seed=seed, schedule=schedule).run()
    return tuple(result.outputs[tree.root]), result.rounds


def _downcast(net, tree, payload, domain, schedule, seed=None):
    """``pipelined_downcast``'s result, on a pinned round loop."""
    programs = build_downcast_programs(net, tree, payload, domain)
    result = Engine(net, programs, seed=seed, schedule=schedule).run()
    return {v: tuple(result.outputs[v]) for v in net.nodes()}, result.rounds


def _same_on_every_loop(build, name):
    return pytest.param(build, True, id=name)


def _bulk_only(build, name):
    return pytest.param(build, False, id=name)


class TestFastPath:
    @pytest.mark.parametrize("build,check_identity", [
        _same_on_every_loop(lambda: topologies.grid(4, 5), "grid(4,5)"),
        _same_on_every_loop(
            lambda: topologies.random_regular(200, 4, seed=1),
            "random_regular(200,4)",
        ),
        _same_on_every_loop(lambda: topologies.grid(12, 10), "grid(12,10)"),
        _same_on_every_loop(lambda: topologies.cycle(200), "cycle(200)"),
        _same_on_every_loop(
            lambda: topologies.random_regular(500, 4, seed=7),
            "random_regular(500,4)",
        ),
        _same_on_every_loop(lambda: topologies.grid(22, 22), "grid(22,22)"),
        _same_on_every_loop(lambda: topologies.star(500), "star(500)"),
        # Larger instances: the bulk loop must run them without falling
        # back; the per-node loops are not run at this size.
        _bulk_only(
            lambda: topologies.random_regular(2000, 4, seed=7),
            "random_regular(2000,4)",
        ),
        _bulk_only(lambda: topologies.grid(45, 45), "grid(45,45)"),
        _bulk_only(lambda: topologies.star(2000), "star(2000)"),
    ])
    def test_bfs_echo_identical_and_fully_vectorized(
        self, build, check_identity
    ):
        net = build()
        make = lambda: {v: BFSEchoProgram(v, 0) for v in net.nodes()}
        engine, vec = _run(net, make(), "vectorized")
        assert engine.vectorized_fallback is None
        assert engine.vectorized_rounds == vec.rounds
        if check_identity:
            for schedule in ("active", "dense"):
                _, per_node = _run(net, make(), schedule)
                _assert_identical(per_node, vec)

    def test_multibfs_identical(self):
        net = topologies.random_regular(14, 3, seed=5)
        sources = [0, 7]
        make = lambda: {
            v: MultiSourceBFSProgram(v, sources) for v in net.nodes()
        }
        _, active = _run(net, make(), "active", stop_on_quiescence=True)
        engine, vec = _run(net, make(), "vectorized", stop_on_quiescence=True)
        _assert_identical(active, vec)
        assert engine.vectorized_fallback is None
        assert engine.vectorized_rounds == vec.rounds

    def test_leader_flood_identical_in_reversed_program_order(self):
        # Program order fixes the canonical delivery order, so the deliver
        # events are compared too; each carries the bare id, as the
        # per-node ``Message.value`` of a one-field payload does.
        net = topologies.grid(3, 4)
        runs = []
        for schedule in ("active", "vectorized"):
            sink = MemorySink()
            engine = Engine(
                net,
                {v: MaxIdFloodProgram(v) for v in reversed(net.nodes())},
                seed=3, schedule=schedule, stop_on_quiescence=True,
                recorder=Recorder([sink]),
            )
            runs.append((engine, engine.run(), sink.events_of_kind("deliver")))
        (_, active, active_events), (engine, vec, vec_events) = runs
        _assert_identical(active, vec)
        assert active_events == vec_events
        assert all(type(e.value) is int for e in vec_events)
        assert engine.vectorized_fallback is None
        assert engine.vectorized_rounds == vec.rounds

    def test_leader_flood_on_one_node_runs_no_round(self):
        net = topologies.path(1)
        engine, result = _run(
            net, {0: MaxIdFloodProgram(0)}, "vectorized",
            stop_on_quiescence=True,
        )
        assert (result.rounds, result.outputs) == (0, {0: 0})
        assert engine.vectorized_fallback is None

    def test_fast_path_never_builds_contexts(self):
        # The whole point of the bulk schedule: no per-node Context objects
        # (or their RNG streams) are ever constructed.
        net = topologies.cycle(12)
        engine = Engine(
            net, {v: BFSEchoProgram(v, 0) for v in net.nodes()},
            seed=0, schedule="vectorized",
        )
        engine.run()
        assert engine.vectorized_fallback is None
        assert engine._contexts is None

    def test_lazy_contexts_are_bit_identical_to_eager(self):
        # Laziness must not change the per-node RNG streams: two engines
        # over the same seed draw identical values whether or not the
        # contexts were forced early.
        net = topologies.cycle(6)
        make = lambda: {v: MaxIdFloodProgram(v) for v in net.nodes()}
        a = Engine(net, make(), seed=9)
        _ = a.contexts  # force before running
        b = Engine(net, make(), seed=9)
        assert [a.contexts[v].rng.integers(1 << 30) for v in net.nodes()] == [
            b.contexts[v].rng.integers(1 << 30) for v in net.nodes()
        ]

    @pytest.mark.parametrize("combine,expected", [
        (combine_sum, sum(range(20))),
        (combine_max, 19),
        (combine_xor, 0 ^ 1 ^ 2),
    ])
    def test_upcast_named_combines(self, combine, expected):
        net = topologies.grid(4, 5)
        tree = bfs_with_echo(net, 0)
        if combine is combine_xor:
            values = {v: [v & 3 if v < 3 else 0] for v in net.nodes()}
            expected = 0
            for v in net.nodes():
                expected ^= v & 3 if v < 3 else 0
        else:
            values = {v: [v] for v in net.nodes()}
        active = _upcast(net, tree, values, combine, 1 << 16, "active")
        vec = _upcast(net, tree, values, combine, 1 << 16, "vectorized")
        assert active == vec
        assert vec[0] == (expected,)

    @pytest.mark.parametrize(
        "combine",
        [max, min, combine_sum, combine_xor, combine_max, combine_min,
         combine_and, combine_or],
        ids=["max", "min", "sum", "xor", "semigroup-max", "semigroup-min",
             "and", "or"],
    )
    def test_combine_table_runs_on_the_bulk_loop(self, combine):
        net = topologies.grid(3, 4)
        tree = bfs_with_echo(net, 0)
        values = {v: [v % 4 + 1, v % 3] for v in net.nodes()}
        programs = build_upcast_programs(net, tree, values, combine, 1 << 8)
        engine = Engine(net, programs, seed=0)
        result = engine.run()
        assert engine.vectorized_fallback is None
        assert (tuple(result.outputs[tree.root]), result.rounds) == _upcast(
            net, tree, values, combine, 1 << 8, "active"
        )

    def test_downcast_identical(self):
        net = topologies.balanced_tree(2, 3)
        tree = bfs_with_echo(net, 0)
        payload = [5, 1, 4, 1]
        active = _downcast(net, tree, payload, 8, "active")
        vec = _downcast(net, tree, payload, 8, "vectorized")
        assert active == vec
        assert all(got == tuple(payload) for got in vec[0].values())

    def test_aggregate_single_identical(self):
        net = topologies.star(9)
        tree = bfs_with_echo(net, 0)
        values = {v: v for v in net.nodes()}
        (combined,), rounds = _upcast(
            net, tree, {v: [x] for v, x in values.items()}, combine_sum,
            1 << 12, "active",
        )
        active = (combined, rounds)
        vec = aggregate_single(net, tree, values, combine_sum, domain=1 << 12)
        assert active == vec


class TestFallbacks:
    """Unsupported shapes fall back per-node with identical results."""

    def _expect_fallback(self, net, make, reason, **kwargs):
        _, active = _run(net, make(), "active", **kwargs)
        engine, vec = _run(net, make(), "vectorized", **kwargs)
        _assert_identical(active, vec)
        assert engine.vectorized_fallback == reason
        assert engine.vectorized_rounds == 0
        return engine

    def test_unsupported_program_family(self):
        # The audit matches exact types: a subclass of an audited family
        # has no port.
        net = topologies.cycle(9)
        self._expect_fallback(
            net,
            lambda: {
                v: BoundedMaxIdFloodProgram(v, horizon=net.n)
                for v in net.nodes()
            },
            "unsupported-program-BoundedMaxIdFloodProgram",
        )

    def test_mixed_program_types(self):
        # A mixed dict is semantically broken under every schedule (the
        # families' wire formats differ), so only the audit verdict is
        # checked — not a run.
        net = topologies.cycle(6)
        programs = {v: BFSEchoProgram(v, 0) for v in net.nodes()}
        programs[5] = MaxIdFloodProgram(5)
        vp, reason = build_vectorized(
            Engine(net, programs, seed=0, schedule="vectorized")
        )
        assert vp is None and reason == "mixed-program-types"

    def test_bfs_roots_disagree(self):
        net = topologies.cycle(8)
        engine, _ = _run(
            net,
            {v: BFSEchoProgram(v, root=v % 2) for v in net.nodes()},
            "vectorized",
        )
        assert engine.vectorized_fallback == "bfs-roots-disagree"
        assert engine.vectorized_rounds == 0

    def test_multibfs_sources_disagree(self):
        net = topologies.cycle(8)
        programs = {
            v: MultiSourceBFSProgram(v, [0] if v < 4 else [1])
            for v in net.nodes()
        }
        vp, reason = build_vectorized(
            Engine(net, programs, seed=0, schedule="vectorized",
                   stop_on_quiescence=True)
        )
        assert vp is None and reason == "multibfs-sources-disagree"

    def test_unregistered_combine_falls_back_correctly(self):
        net = topologies.grid(3, 4)
        tree = bfs_with_echo(net, 0)
        values = {v: [v % 7] for v in net.nodes()}
        anon = lambda a, b: max(a, b)  # noqa: E731 - deliberately unregistered
        programs = build_upcast_programs(net, tree, values, anon, domain=8)
        engine = Engine(net, programs, seed=0, schedule="vectorized")
        vec = engine.run()
        assert engine.vectorized_fallback == "upcast-combine-unregistered"
        active = _upcast(net, tree, values, anon, 8, "active", seed=0)
        assert (tuple(vec.outputs[tree.root]), vec.rounds) == active

    def test_upcast_params_disagree(self):
        net = topologies.cycle(5)
        tree = bfs_with_echo(net, 0)
        values = {v: [v] for v in net.nodes()}
        programs = build_upcast_programs(
            net, tree, values, combine_sum, domain=64
        )
        programs[2].domain = 128  # simulate a miswired batch
        vp, reason = build_vectorized(
            Engine(net, programs, seed=0, schedule="vectorized")
        )
        assert vp is None and reason == "upcast-params-disagree"

    def test_faulty_engine_vetoes_vectorization(self):
        from repro.faults import BernoulliLoss, FaultyEngine

        net = topologies.grid(3, 3)
        make = lambda: {
            v: BoundedMaxIdFloodProgram(v, horizon=net.n)
            for v in net.nodes()
        }
        runs = []
        for schedule in ("active", "vectorized"):
            engine = FaultyEngine(
                net, make(), fault_model=BernoulliLoss(0.2), fault_seed=4,
                seed=4, schedule=schedule,
            )
            runs.append((engine, engine.run()))
        (_, res_a), (b, res_b) = runs
        _assert_identical(res_a, res_b)
        assert b.vectorized_fallback == "fault-channel"
        assert b.vectorized_rounds == 0


class TestDefaultSchedule:
    """With no ``schedule`` argument the engine chooses its loop."""

    @pytest.mark.parametrize(
        "family", ["bfs-echo", "multibfs", "leader", "upcast", "downcast"]
    )
    def test_audited_families_run_on_the_bulk_loop(self, family):
        net = topologies.grid(3, 4)
        tree = bfs_with_echo(net, 0)
        kwargs = {}
        if family == "bfs-echo":
            programs = {v: BFSEchoProgram(v, 0) for v in net.nodes()}
        elif family == "multibfs":
            programs = {
                v: MultiSourceBFSProgram(v, [0, 5]) for v in net.nodes()
            }
            kwargs["stop_on_quiescence"] = True
        elif family == "leader":
            programs = {v: MaxIdFloodProgram(v) for v in net.nodes()}
            kwargs["stop_on_quiescence"] = True
        elif family == "upcast":
            values = {v: [v, 1] for v in net.nodes()}
            programs = build_upcast_programs(net, tree, values, combine_sum, 128)
        else:
            programs = build_downcast_programs(net, tree, [3, 1, 2], 4)
        engine = Engine(net, programs, seed=0, **kwargs)
        result = engine.run()
        assert engine.vectorized_fallback is None
        assert result.rounds > 0
        assert engine.vectorized_rounds == result.rounds

    def test_unaudited_program_falls_back(self):
        net = topologies.cycle(9)
        engine = Engine(
            net,
            {v: BoundedMaxIdFloodProgram(v, horizon=net.n) for v in net.nodes()},
            seed=0,
        )
        result = engine.run()
        assert engine.vectorized_fallback == (
            "unsupported-program-BoundedMaxIdFloodProgram"
        )
        assert result.rounds > 0 and engine.vectorized_rounds == 0

    def test_faulty_engine_falls_back(self):
        from repro.faults import FaultyEngine, NoFaults

        net = topologies.grid(3, 3)
        engine = FaultyEngine(
            net, {v: BFSEchoProgram(v, 0) for v in net.nodes()},
            fault_model=NoFaults(), seed=0,
        )
        result = engine.run()
        assert engine.vectorized_fallback == "fault-channel"
        assert result.rounds > 0 and engine.vectorized_rounds == 0
