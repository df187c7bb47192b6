"""Seeded operation streams for the four workloads, and their properties.

Everything here is a pure function of ``(workload, seed, seconds)``: the
program under test only ever receives the generated operations.  The
properties printed with every run (:func:`input_stats`) and the stream
digest make that checkable — the same seed must give the same digest.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from typing import Dict, List, Sequence, Tuple

from repro.core.operation import Operation

#: Tenants of every serving workload, all of equal weight.
TENANTS = ("t0", "t1", "t2", "t3")

# serve_formula: a 4x4 grid lane, p = 8, with an index domain large enough
# that under 1% of requests repeat an earlier index set (birthday bound on
# the one-index requests: C(1250, 2) / 2**15 ~ 24 repeats in 5000).
FORMULA_K = 1 << 15
FORMULA_RATE_HZ = 1000.0
# Share of --seconds spent in the Poisson latency phase; the rest is left
# to the throughput phase, which replays the same requests all at once.
LATENCY_SHARE = 0.5

# serve_engine: closed loop over an 8x8 grid lane (n = 64, k = 64, p = 8).
ENGINE_K = 64
ENGINE_CLIENTS = 16
ENGINE_OPS_PER_SECOND = 110  # fixed work: about --seconds of serving on a 2-vCPU machine
ENGINE_SET_UNIVERSE = 4000
ENGINE_ZIPF_S = 0.85

# sketch_mixed: 1-2-item inserts and queries over Zipf-hot keys.
SKETCH_RATE_HZ = 1000.0
SKETCH_KEYS = 2048
SKETCH_ZIPF_S = 1.1
SKETCH_INSERT_SHARE = 0.075


def _rng(workload: str, seed: int) -> random.Random:
    """One independent stream per (workload, seed)."""
    digest = hashlib.blake2b(
        f"e2ebench/{workload}/{seed}".encode(), digest_size=8
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _poisson_times(rnd: random.Random, rate_hz: float, duration_s: float) -> List[float]:
    """Due offsets of a Poisson arrival process over ``duration_s``."""
    times, t = [], rnd.expovariate(rate_hz)
    while t < duration_s:
        times.append(t)
        t += rnd.expovariate(rate_hz)
    return times


def _zipf_sampler(rnd: random.Random, size: int, s: float):
    """Draw ranks 0..size-1 with probability proportional to 1/(rank+1)^s."""
    cumulative = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(size)))
    total = cumulative[-1]

    def draw() -> int:
        return bisect.bisect_left(cumulative, rnd.random() * total)

    return draw


def _index_set(rnd: random.Random, k: int) -> Tuple[int, ...]:
    return tuple(rnd.sample(range(k), rnd.randint(1, 4)))


def formula_ops(seed: int, seconds: float) -> List[Tuple[float, Operation]]:
    """Open-loop ``(due offset, operation)`` pairs for serve_formula."""
    rnd = _rng("serve_formula", seed)
    times = _poisson_times(rnd, FORMULA_RATE_HZ, LATENCY_SHARE * seconds)
    return [
        (t, Operation.query(rnd.choice(TENANTS), _index_set(rnd, FORMULA_K)))
        for t in times
    ]


def engine_ops(seed: int, seconds: float) -> List[List[Operation]]:
    """Per-client operation lists for the serve_engine closed loop.

    Index sets come from a fixed universe drawn Zipf-skewed, so about half
    of the operations repeat an earlier set and can be served by the memo.
    Client ``c``'s ``i``-th operation is generated at position
    ``i * ENGINE_CLIENTS + c``, the order :func:`input_stats` uses.
    """
    rnd = _rng("serve_engine", seed)
    # Set sizes cycle 1..4 by rank, so the hot sets weigh the same for
    # every seed and only their indices differ.
    universe = [
        tuple(rnd.sample(range(ENGINE_K), 1 + rank % 4))
        for rank in range(ENGINE_SET_UNIVERSE)
    ]
    draw = _zipf_sampler(rnd, len(universe), ENGINE_ZIPF_S)
    per_client = max(1, round(ENGINE_OPS_PER_SECOND * seconds / ENGINE_CLIENTS))
    clients: List[List[Operation]] = [[] for _ in range(ENGINE_CLIENTS)]
    for _ in range(per_client):
        for c, ops in enumerate(clients):
            ops.append(Operation.query(TENANTS[c % len(TENANTS)], universe[draw()]))
    return clients


def sketch_key(rank: int) -> str:
    return f"key-{rank}"


def sketch_ops(seed: int, seconds: float) -> List[Tuple[float, Operation]]:
    """Open-loop ``(due offset, operation)`` pairs for sketch_mixed."""
    rnd = _rng("sketch_mixed", seed)
    draw = _zipf_sampler(rnd, SKETCH_KEYS, SKETCH_ZIPF_S)
    times = _poisson_times(rnd, SKETCH_RATE_HZ, LATENCY_SHARE * seconds)
    # A fixed number of inserts at random positions: the write share is
    # the same for every seed.
    writes = set(rnd.sample(range(len(times)), round(SKETCH_INSERT_SHARE * len(times))))
    out = []
    for i, t in enumerate(times):
        tenant = rnd.choice(TENANTS)
        items = tuple(sketch_key(draw()) for _ in range(rnd.randint(1, 2)))
        kind = Operation.insert if i in writes else Operation.sketch_query
        out.append((t, kind(tenant, items)))
    return out


def sketch_probes() -> List[str]:
    """Fixed probe set for the final sketch-state check: hot keys and
    keys the generator never emits."""
    return [sketch_key(r) for r in range(64)] + [f"absent-{i}" for i in range(64)]


def input_stats(
    ops: Sequence[Operation], times: Sequence[float] = ()
) -> Dict[str, object]:
    """``input.*`` properties and the digest of a generated stream.

    ``repeat_share`` counts operations whose (kind, payload multiset)
    repeats an earlier operation's in generation order.  The digest
    covers every operation and, for open-loop streams, every due time.
    """
    seen = set()
    repeats = inserts = width = 0
    h = hashlib.blake2b(digest_size=12)
    for op in ops:
        payload = op.indices or op.items
        key = (op.kind, tuple(sorted(payload)))
        repeats += key in seen
        seen.add(key)
        inserts += op.is_write
        width += op.size
        h.update(repr((op.kind, op.caller, payload)).encode())
    for t in times:
        h.update(f"{t:.9f};".encode())
    n = len(ops)
    return {
        "input.repeat_share": repeats / n,
        "input.insert_share": inserts / n,
        "input.mean_op_size": width / n,
        "digest": h.hexdigest(),
    }

