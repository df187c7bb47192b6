"""The engine's vectorized (column-major) bulk loop: fast path and fallbacks.

The bulk loop, which the engine tries first, must be observationally
identical to the per-node loop and to the textbook reference loop on the
audited program families, and must fall back — with a recorded reason,
still producing identical results — on anything it cannot bulk-execute.
The per-node loop is reached on an audited family through the per-node
subclasses of ``reference_loop.py``, and on a tree transfer through its
program dict.  The property-based twin of this file is
``tests/property/test_prop_vectorized.py``.
"""

import pytest

from repro.congest import topologies
from repro.congest.algorithms.aggregate import (
    Downcast,
    Upcast,
    UpcastProgram,
    aggregate_single,
    build_downcast_programs,
    build_upcast_programs,
    parent_array,
)
from repro.congest.algorithms.bfs import BFSEchoProgram, bfs_with_echo
from repro.congest.algorithms.leader import (
    BoundedMaxIdFloodProgram,
    MaxIdFloodProgram,
)
from repro.congest.algorithms.multibfs import MultiSourceBFSProgram
from repro.congest.engine import Engine
from repro.congest.errors import NotANeighbor, RoundLimitExceeded
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

from .reference_loop import (
    PerNodeBFS,
    PerNodeMaxIdFlood,
    PerNodeMultiBFS,
    reference_run,
)


def _assert_identical(res_a, res_b):
    assert res_a.rounds == res_b.rounds
    assert res_a.outputs == res_b.outputs
    assert res_a.stats == res_b.stats


def _run(net, programs, **kwargs):
    engine = Engine(net, programs, seed=3, **kwargs)
    return engine, engine.run()


def _upcast_arrays(net, tree, values, combine, domain):
    """A convergecast as arrays: the only entry onto the bulk loop."""
    rows = [values[v] for v in net.nodes()]
    return Upcast(parent_array(tree, net.n), rows, combine, domain)


def _upcast(net, tree, values, combine, domain, arrays, seed=None):
    """``pipelined_upcast``'s result, given as arrays (the bulk loop) or
    as its per-node programs (the per-node loop)."""
    if arrays:
        programs = _upcast_arrays(net, tree, values, combine, domain)
    else:
        programs = build_upcast_programs(net, tree, values, combine, domain)
    result = Engine(net, programs, seed=seed).run()
    return tuple(result.outputs[tree.root]), result.rounds


def _downcast(net, tree, payload, domain, arrays, seed=None):
    """``pipelined_downcast``'s result, given as arrays or as programs."""
    if arrays:
        programs = Downcast(parent_array(tree, net.n), payload, domain)
    else:
        programs = build_downcast_programs(net, tree, payload, domain)
    result = Engine(net, programs, seed=seed).run()
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
        # back; the other loops are not run at this size.
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
        engine, vec = _run(net, {v: BFSEchoProgram(v, 0) for v in net.nodes()})
        assert engine.vectorized_fallback is None
        assert engine.vectorized_rounds == vec.rounds
        if check_identity:
            _, per_node = _run(net, {v: PerNodeBFS(v, 0) for v in net.nodes()})
            _assert_identical(per_node, vec)
            reference = reference_run(
                Engine(net, {v: BFSEchoProgram(v, 0) for v in net.nodes()},
                       seed=3)
            )
            _assert_identical(reference, vec)

    def test_multibfs_identical(self):
        net = topologies.random_regular(14, 3, seed=5)
        sources = [0, 7]
        _, per_node = _run(
            net, {v: PerNodeMultiBFS(v, sources) for v in net.nodes()},
            stop_on_quiescence=True,
        )
        engine, vec = _run(
            net, {v: MultiSourceBFSProgram(v, sources) for v in net.nodes()},
            stop_on_quiescence=True,
        )
        _assert_identical(per_node, vec)
        assert engine.vectorized_fallback is None
        assert engine.vectorized_rounds == vec.rounds

    def test_leader_flood_identical_in_reversed_program_order(self):
        # Program order fixes the canonical delivery order, so the deliver
        # events are compared too; each carries the bare id, as the
        # per-node ``Message.value`` of a one-field payload does.
        net = topologies.grid(3, 4)
        runs = []
        for program in (PerNodeMaxIdFlood, MaxIdFloodProgram):
            sink = MemorySink()
            engine = Engine(
                net,
                {v: program(v) for v in reversed(net.nodes())},
                seed=3, stop_on_quiescence=True,
                recorder=Recorder([sink]),
            )
            runs.append((engine, engine.run(), sink.events_of_kind("deliver")))
        (_, per_node, per_node_events), (engine, vec, vec_events) = runs
        _assert_identical(per_node, vec)
        assert per_node_events == vec_events
        assert all(type(e.value) is int for e in vec_events)
        assert engine.vectorized_fallback is None
        assert engine.vectorized_rounds == vec.rounds

    def test_leader_flood_on_one_node_runs_no_round(self):
        net = topologies.path(1)
        engine, result = _run(
            net, {0: MaxIdFloodProgram(0)}, stop_on_quiescence=True,
        )
        assert (result.rounds, result.outputs) == (0, {0: 0})
        assert engine.vectorized_fallback is None

    def test_fast_path_never_builds_contexts(self):
        # The whole point of the bulk loop: no per-node Context objects
        # (or their RNG streams) are ever constructed.
        net = topologies.cycle(12)
        engine = Engine(
            net, {v: BFSEchoProgram(v, 0) for v in net.nodes()}, seed=0,
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
        per_node = _upcast(net, tree, values, combine, 1 << 16, arrays=False)
        vec = _upcast(net, tree, values, combine, 1 << 16, arrays=True)
        assert per_node == vec
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
        transfer = _upcast_arrays(net, tree, values, combine, 1 << 8)
        engine = Engine(net, transfer, seed=0)
        result = engine.run()
        assert engine.vectorized_fallback is None
        assert (tuple(result.outputs[tree.root]), result.rounds) == _upcast(
            net, tree, values, combine, 1 << 8, arrays=False
        )

    def test_downcast_identical(self):
        net = topologies.balanced_tree(2, 3)
        tree = bfs_with_echo(net, 0)
        payload = [5, 1, 4, 1]
        per_node = _downcast(net, tree, payload, 8, arrays=False)
        vec = _downcast(net, tree, payload, 8, arrays=True)
        assert per_node == vec
        assert all(got == tuple(payload) for got in vec[0].values())

    @pytest.mark.parametrize("upcast", [True, False], ids=["upcast", "downcast"])
    def test_round_limit_on_a_spanning_transfer(self, upcast):
        # A spanning transfer of R rounds (R from the per-node loop) runs
        # to completion at max_rounds = R and raises RoundLimitExceeded at
        # the step that would run round R at max_rounds = R - 1, on both
        # loops and on the bulk loop recorded or not.
        net = topologies.grid(3, 4)
        tree = bfs_with_echo(net, 0)
        values = {v: [v % 5, v % 3, 1] for v in net.nodes()}
        if upcast:
            def programs():
                return build_upcast_programs(
                    net, tree, values, combine_sum, 1 << 8
                )
            arrays = _upcast_arrays(net, tree, values, combine_sum, 1 << 8)
        else:
            def programs():
                return build_downcast_programs(net, tree, values[0], 1 << 8)
            arrays = Downcast(parent_array(tree, net.n), values[0], 1 << 8)
        limit = Engine(net, programs()).run().rounds
        assert limit == 7
        for max_rounds in (limit - 1, limit):
            ends = []
            for entry, recorder in (
                (programs(), None),
                (arrays, None),
                (arrays, Recorder([MemorySink()])),
            ):
                engine = Engine(
                    net, entry, max_rounds=max_rounds, recorder=recorder
                )
                stepper = engine.stepper()
                steps = 0
                try:
                    while stepper.step():
                        steps += 1
                except RoundLimitExceeded:
                    ends.append(("limit", steps))
                else:
                    ends.append(("done", steps, stepper.result.rounds))
            expected = (
                ("limit", limit - 1) if max_rounds < limit
                else ("done", limit, limit)
            )
            assert ends == [expected] * 3

    @pytest.mark.parametrize(
        "stop_on_quiescence", [False, True], ids=["halting", "quiescence"]
    )
    def test_single_node_transfers(self, stop_on_quiescence):
        # A lone root streams three coordinates to nobody: two rounds
        # with no traffic, or none when the run may end at quiescence.
        net = topologies.path(1)
        tree = bfs_with_echo(net, 0)
        for programs, arrays in (
            (
                build_upcast_programs(net, tree, {0: [1, 2, 3]}, combine_sum, 8),
                _upcast_arrays(net, tree, {0: [1, 2, 3]}, combine_sum, 8),
            ),
            (
                build_downcast_programs(net, tree, [1, 2, 3], 8),
                Downcast(parent_array(tree, net.n), [1, 2, 3], 8),
            ),
        ):
            per_node = Engine(
                net, programs, stop_on_quiescence=stop_on_quiescence
            ).run()
            engine = Engine(net, arrays, stop_on_quiescence=stop_on_quiescence)
            _assert_identical(per_node, engine.run())
            assert per_node.rounds == (0 if stop_on_quiescence else 2)
            assert engine.vectorized_fallback is None

    def test_aggregate_single_identical(self):
        net = topologies.star(9)
        tree = bfs_with_echo(net, 0)
        values = {v: v for v in net.nodes()}
        (combined,), rounds = _upcast(
            net, tree, {v: [x] for v, x in values.items()}, combine_sum,
            1 << 12, arrays=False,
        )
        vec = aggregate_single(net, tree, values, combine_sum, domain=1 << 12)
        assert (combined, rounds) == vec


class TestFallbacks:
    """Unsupported shapes fall back per-node with identical results."""

    def _expect_fallback(self, net, make, reason, **kwargs):
        reference = reference_run(Engine(net, make(), seed=3, **kwargs))
        engine, vec = _run(net, make(), **kwargs)
        _assert_identical(reference, vec)
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
        # A mixed dict is semantically broken on every loop (the
        # families' wire formats differ), so only the audit verdict is
        # checked — not a run.
        net = topologies.cycle(6)
        programs = {v: BFSEchoProgram(v, 0) for v in net.nodes()}
        programs[5] = MaxIdFloodProgram(5)
        vp, reason = build_vectorized(Engine(net, programs, seed=0))
        assert vp is None and reason == "mixed-program-types"

    def test_bfs_roots_disagree(self):
        net = topologies.cycle(8)
        engine, _ = _run(
            net,
            {v: BFSEchoProgram(v, root=v % 2) for v in net.nodes()},
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
            Engine(net, programs, seed=0, stop_on_quiescence=True)
        )
        assert vp is None and reason == "multibfs-sources-disagree"

    def test_unregistered_combine_falls_back_correctly(self):
        net = topologies.grid(3, 4)
        tree = bfs_with_echo(net, 0)
        values = {v: [v % 7] for v in net.nodes()}
        anon = lambda a, b: max(a, b)  # noqa: E731 - deliberately unregistered
        transfer = _upcast_arrays(net, tree, values, anon, domain=8)
        engine = Engine(net, transfer, seed=0)
        vec = engine.run()
        assert engine.vectorized_fallback == "upcast-combine-unregistered"
        per_node = _upcast(net, tree, values, anon, 8, arrays=False, seed=0)
        assert (tuple(vec.outputs[tree.root]), vec.rounds) == per_node

    @pytest.mark.parametrize("parents,error", [
        # Node 2's parent is not its neighbour on the cycle: the per-node
        # loop raises at the send, which the bulk loop never makes.
        ([None, 0, 0, 2, 0], NotANeighbor),
        # A parent cycle never reaches the root, so nodes 1-3 never
        # send or halt and the run exhausts its budget on either loop.
        ([None, 2, 3, 1, 0], RoundLimitExceeded),
    ], ids=["non-neighbour-parent", "parent-cycle"])
    def test_tree_that_does_not_span_the_network(self, parents, error):
        net = topologies.cycle(5)
        programs = {
            v: UpcastProgram(
                v, parents[v],
                [c for c in net.nodes() if parents[c] == v],
                [1], combine_sum, 8, 1,
            )
            for v in net.nodes()
        }
        transfer = Upcast(
            [-1 if p is None else p for p in parents], [[1]] * net.n,
            combine_sum, 8,
        )
        for entry in (programs, transfer):
            engine = Engine(net, entry, max_rounds=40)
            with pytest.raises(error):
                engine.run()
        assert engine.vectorized_fallback == "upcast-tree-malformed"

    def test_faulty_engine_vetoes_vectorization(self):
        from repro.faults import BernoulliLoss, FaultyEngine

        net = topologies.grid(3, 3)
        runs = []
        for run in (reference_run, FaultyEngine.run):
            engine = FaultyEngine(
                net,
                {v: BoundedMaxIdFloodProgram(v, horizon=net.n)
                 for v in net.nodes()},
                fault_model=BernoulliLoss(0.2), fault_seed=4, seed=4,
            )
            runs.append((engine, run(engine)))
        (_, reference), (engine, result) = runs
        _assert_identical(reference, result)
        assert engine.vectorized_fallback == "fault-channel"
        assert engine.vectorized_rounds == 0


class TestDefaultSchedule:
    """The engine chooses its loop from what it is given."""

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
            programs = _upcast_arrays(net, tree, values, combine_sum, 128)
        else:
            programs = Downcast(parent_array(tree, net.n), [3, 1, 2], 4)
        engine = Engine(net, programs, seed=0, **kwargs)
        result = engine.run()
        assert engine.vectorized_fallback is None
        assert result.rounds > 0
        assert engine.vectorized_rounds == result.rounds

    @pytest.mark.parametrize("family", ["upcast", "downcast"])
    def test_transfer_programs_run_per_node(self, family):
        # Arrays are the only entry onto the bulk loop: a dict of a
        # transfer's per-node programs is not audited, and runs per node
        # exactly as the arrays run on the bulk loop.
        net = topologies.grid(3, 4)
        tree = bfs_with_echo(net, 0)
        if family == "upcast":
            values = {v: [v, 1] for v in net.nodes()}
            programs = build_upcast_programs(net, tree, values, combine_sum, 128)
            transfer = _upcast_arrays(net, tree, values, combine_sum, 128)
            reason = "unsupported-program-UpcastProgram"
        else:
            programs = build_downcast_programs(net, tree, [3, 1, 2], 4)
            transfer = Downcast(parent_array(tree, net.n), [3, 1, 2], 4)
            reason = "unsupported-program-DowncastProgram"
        runs = []
        for entry in (programs, transfer):
            sink = MemorySink()
            engine = Engine(net, entry, seed=0, recorder=Recorder([sink]))
            runs.append((engine, engine.run(), sink.events_of_kind("deliver")))
        (per_node, res_a, deliver_a), (bulk, res_b, deliver_b) = runs
        assert per_node.vectorized_fallback == reason
        assert per_node.vectorized_rounds == 0
        assert bulk.vectorized_fallback is None
        assert bulk.vectorized_rounds == res_b.rounds > 0
        _assert_identical(res_a, res_b)
        assert deliver_a == deliver_b

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
