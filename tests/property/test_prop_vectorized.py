"""Property: the engine's bulk loop is bit-identical to its per-node loop.

The column-major bulk loop, which the engine tries first, is an
*oracle-checked optimization*: over random topologies, seeds, and program
parameters it must reproduce the per-node loop exactly — rounds, outputs,
traffic statistics and observability events (delivery order included).
The per-node side runs an audited family as its per-node subclass, and a
tree transfer as its program dict.  ``mode`` on RoundEvents is the one
sanctioned difference and is excluded by construction.  A tree transfer
on the bulk loop also runs under the null recorder, as every served
batch does, and must end the same way after the same steps.
"""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import topologies
from repro.congest.algorithms.aggregate import (
    Downcast,
    Upcast,
    build_downcast_programs,
    build_upcast_programs,
    parent_array,
)
from repro.congest.algorithms.bfs import bfs_with_echo
from repro.congest.engine import Engine
from repro.congest.errors import RoundLimitExceeded
from repro.congest.vectorized import combine_ufuncs
from repro.core.semigroup import combine_sum
from repro.obs import NULL_RECORDER, MemorySink, Recorder, install

from ..congest.reference_loop import flood_family

_SETTINGS = dict(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _make_network(draw):
    kind = draw(st.sampled_from(["grid", "cycle", "regular", "star", "tree"]))
    if kind == "grid":
        return topologies.grid(draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    if kind == "cycle":
        return topologies.cycle(draw(st.integers(3, 24)))
    if kind == "regular":
        n = draw(st.integers(4, 16).filter(lambda v: v % 2 == 0))
        return topologies.random_regular(n, 3, seed=draw(st.integers(0, 5)))
    if kind == "star":
        return topologies.star(draw(st.integers(3, 20)))
    return topologies.balanced_tree(2, draw(st.integers(1, 3)))


def _assert_identical(res_a, res_b):
    assert res_a.rounds == res_b.rounds
    assert res_a.outputs == res_b.outputs
    assert res_a.stats == res_b.stats


def _strip_mode(events):
    return [
        dataclasses.replace(e, mode="") if hasattr(e, "mode") else e
        for e in events
    ]


#: Value domain of the tree transfers: a summed 255-per-node vector over
#: at most 25 nodes stays in range, and with a 24-coordinate index field
#: the message still fits the smallest default bandwidth, so every
#: transfer runs on the bulk loop.
_DOMAIN = 1 << 13


def _combines():
    """Every combine in the bulk loop's table: the builtins and the six
    semigroup combines."""
    return st.sampled_from(list(combine_ufuncs()))


def _recorded(net, programs):
    """A run's engine and result, with its deliver and round events."""
    sink = MemorySink()
    with install(Recorder([sink])):
        engine = Engine(net, programs)
        result = engine.run()
    rounds = _strip_mode(sink.events_of_kind("round"))
    return engine, result, sink.events_of_kind("deliver"), rounds


def _assert_transfer_identical(net, programs, transfer):
    """A tree transfer given as arrays matches its per-node programs on
    the per-node loop: rounds, outputs, stats and event streams, with
    every round on the bulk loop, recorded or not."""
    _, per_node, *per_node_events = _recorded(net, programs)
    engine, vec, *vec_events = _recorded(net, transfer)
    _assert_identical(per_node, vec)
    assert per_node_events == vec_events
    assert engine.vectorized_fallback is None
    assert engine.vectorized_rounds == vec.rounds
    silent_engine = Engine(net, transfer, recorder=NULL_RECORDER)
    _assert_identical(per_node, silent_engine.run())
    assert silent_engine.vectorized_fallback is None
    assert silent_engine.vectorized_rounds == vec.rounds


class TestVectorizedEquivalence:
    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_flood_families(self, data):
        net = _make_network(data.draw)
        family = data.draw(st.sampled_from(["bfs", "multibfs", "leader"]))
        seed = data.draw(st.integers(0, 100))
        make, kwargs = flood_family(data.draw, net, family)
        per_node = Engine(net, make(per_node=True), seed=seed, **kwargs).run()
        engine = Engine(net, make(), seed=seed, **kwargs)
        vec = engine.run()
        _assert_identical(per_node, vec)
        # The audited families never fall back, and every round of a
        # fast-path run is a vectorized round.
        assert engine.vectorized_fallback is None
        assert engine.vectorized_rounds == vec.rounds

    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_obs_event_streams_identical(self, data):
        net = _make_network(data.draw)
        family = data.draw(st.sampled_from(["bfs", "multibfs", "leader"]))
        seed = data.draw(st.integers(0, 100))
        make, kwargs = flood_family(data.draw, net, family)
        streams = []
        for per_node in (True, False):
            sink = MemorySink()
            with install(Recorder([sink])):
                Engine(net, make(per_node), seed=seed, **kwargs).run()
            streams.append(sink)
        per_node_sink, vec_sink = streams
        # Deliveries: same events in the same canonical order.
        assert (
            per_node_sink.events_of_kind("deliver")
            == vec_sink.events_of_kind("deliver")
        )
        # Rounds: identical up to the advisory `mode` tag.
        assert _strip_mode(
            per_node_sink.events_of_kind("round")
        ) == _strip_mode(vec_sink.events_of_kind("round"))
        assert all(
            e.mode == "vectorized" for e in vec_sink.events_of_kind("round")
        )

    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_tree_transfers(self, data):
        net = _make_network(data.draw)
        root = data.draw(st.integers(0, net.n - 1))
        tree = bfs_with_echo(net, root)
        # Up to 24 coordinates: an engine-mode serving batch upcasts 16.
        length = data.draw(st.integers(0, 24))
        combine = data.draw(_combines())
        values = {
            v: [
                data.draw(st.integers(0, 255)) for _ in range(length)
            ]
            for v in net.nodes()
        }
        parent = parent_array(tree, net.n)
        _assert_transfer_identical(
            net,
            build_upcast_programs(net, tree, values, combine, _DOMAIN),
            Upcast(parent, [values[v] for v in net.nodes()], combine, _DOMAIN),
        )
        payload = [data.draw(st.integers(0, 255)) for _ in range(length)]
        _assert_transfer_identical(
            net,
            build_downcast_programs(net, tree, payload, _DOMAIN),
            Downcast(parent, payload, _DOMAIN),
        )

    def test_tree_shape_is_keyed_by_tree(self):
        # Bulk transfers reuse one cached schedule per tree: one tree at
        # two lengths, then a second root on the same network, must each
        # match the per-node loop, so a schedule cached under the wrong
        # key (the topology alone, or the length) fails here.
        net = topologies.grid(3, 5)
        for root, length in ((0, 2), (0, 9), (7, 9)):
            tree = bfs_with_echo(net, root)
            values = {
                v: [(7 * v + i) % 256 for i in range(length)]
                for v in net.nodes()
            }
            parent = parent_array(tree, net.n)
            _assert_transfer_identical(
                net,
                build_upcast_programs(net, tree, values, combine_sum, _DOMAIN),
                Upcast(
                    parent, [values[v] for v in net.nodes()], combine_sum,
                    _DOMAIN,
                ),
            )
            _assert_transfer_identical(
                net,
                build_downcast_programs(net, tree, values[root], _DOMAIN),
                Downcast(parent, values[root], _DOMAIN),
            )


def _stepped(net, programs, max_rounds, recorded=True):
    """How a run ends, the ``step()`` calls before that, and (when
    ``recorded``) its deliver and round events: ``("ok", rounds,
    outputs, stats)`` or ``("error", type, message)``."""
    sink = MemorySink()
    recorder = Recorder([sink]) if recorded else NULL_RECORDER
    engine = Engine(net, programs, max_rounds=max_rounds, recorder=recorder)
    stepper = engine.stepper()
    steps = 0
    try:
        while stepper.step():
            steps += 1
    except (ValueError, RoundLimitExceeded) as err:
        end = ("error", type(err), str(err))
    else:
        result = stepper.result
        end = ("ok", result.rounds, result.outputs, result.stats)
    events = (
        sink.events_of_kind("deliver"),
        _strip_mode(sink.events_of_kind("round")),
    )
    return engine, (end, steps, events)


class TestArrayHandOff:
    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_array_entry_matches_programs(self, data):
        """A transfer handed to the engine as arrays, on the bulk loop,
        matches its programs on the per-node loop: the same run, or the
        same domain error or round limit after the same steps and
        events.  Under the null recorder it ends the same way after the
        same steps and bulk rounds.

        Small domains put the violations in random rounds: values fit
        their domain (below a drawn cap), but sums outgrow it, and one
        drawn value (the root's, for a downcast) may not.  A drawn round
        budget cuts some runs short.
        """
        net = _make_network(data.draw)
        tree = bfs_with_echo(net, data.draw(st.integers(0, net.n - 1)))
        upcast = data.draw(st.booleans())
        length = data.draw(st.integers(0, 24))
        domain = data.draw(st.integers(2, 64))
        fits = st.integers(0, data.draw(st.integers(0, domain - 1)))
        rows = [[data.draw(fits) for _ in range(length)] for _ in net.nodes()]
        if length and data.draw(st.booleans()):
            v = data.draw(st.integers(0, net.n - 1)) if upcast else tree.root
            i = data.draw(st.integers(0, length - 1))
            rows[v][i] = data.draw(st.sampled_from([-1, domain, 2 * domain]))
        parent = parent_array(tree, net.n)
        matrix = np.array(rows, dtype=np.int64).reshape(net.n, length)
        max_rounds = data.draw(st.one_of(st.none(), st.integers(0, 40)))
        if upcast:
            combine = data.draw(_combines())
            transfer = Upcast(parent, matrix, combine, domain)
            programs = build_upcast_programs(
                net, tree, dict(enumerate(rows)), combine, domain
            )
        else:
            transfer = Downcast(parent, matrix[tree.root], domain)
            programs = build_downcast_programs(
                net, tree, rows[tree.root], domain
            )
        _, expected = _stepped(net, programs, max_rounds)
        engine, got = _stepped(net, transfer, max_rounds)
        assert got == expected
        assert engine.vectorized_fallback is None
        silent_engine, silent = _stepped(
            net, transfer, max_rounds, recorded=False
        )
        assert silent[:2] == got[:2]
        assert silent_engine.vectorized_fallback is None
        assert silent_engine.vectorized_rounds == engine.vectorized_rounds
