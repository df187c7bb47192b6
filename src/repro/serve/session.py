"""One-shot serving sessions: the ``python -m repro serve`` back end.

The daemon has no network protocol — clients are coroutines on the same
loop (the repository reproduces round complexity, not RPC plumbing) — so
"running the daemon" means: build a synthetic serving profile, start a
:class:`~repro.serve.daemon.QueryService`, drive it with the deterministic
open-loop generator, drain cleanly, and report.  The CLI and CI's serve
and sketch sessions both go through this module, so they describe the
same code path.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Dict, Optional, Tuple

from ..apps.sketches import AmplitudeSketch, SketchSpec
from ..congest import topologies
from ..congest.network import Network
from ..core.framework import DistributedInput, FrameworkConfig
from ..core.semigroup import sum_semigroup
from ..obs import JSONLSink, MetricsSink, Recorder
from ..obs.jsonl import validate_jsonl
from .daemon import QueryService
from .loadgen import (
    LoadReport,
    LoadSpec,
    SketchLoadSpec,
    run_load,
    run_operation_load,
)
from .tenants import TenantQuota

__all__ = [
    "build_profile",
    "build_sketch_profile",
    "run_serve_session",
    "run_sketch_session",
]


def build_profile(
    rows: int = 4,
    cols: int = 4,
    k: int = 64,
    parallelism: int = 8,
    mode: str = "formula",
    seed: int = 4,
) -> Tuple[Network, FrameworkConfig]:
    """A deterministic synthetic serving profile (grid + random vectors).

    The same construction as the scheduler's amortization test, so
    serve numbers are directly comparable to the synchronous-scheduler
    ones.
    """
    net = topologies.grid(rows, cols)
    rnd = random.Random(11)
    vectors = {
        v: [rnd.randint(0, 7) for _ in range(k)] for v in net.nodes()
    }
    di = DistributedInput(vectors=vectors, semigroup=sum_semigroup(8 * net.n))
    return net, FrameworkConfig(
        parallelism=parallelism, dist_input=di, mode=mode, seed=seed,
        leader=0,
    )


def build_sketch_profile(
    family: str = "qcount",
    m: int = 64,
    k: int = 3,
    seed: int = 0,
    backend: str = "auto",
    recorder: Optional[Recorder] = None,
) -> AmplitudeSketch:
    """A deterministic shared sketch for a serving session.

    Pass the session's ``recorder`` so the sketch's physical
    insert/query events land in the same trace as the daemon's — the
    sketch emits those itself (the lane scheduler only emits memo-edge
    events).
    """
    return AmplitudeSketch(
        SketchSpec(family=family, m=m, k=k, seed=seed, backend=backend),
        name=f"{family}-m{m}",
        recorder=recorder,
    )


def run_sketch_session(
    clients: int = 1000,
    tenants: int = 4,
    rate_hz: float = 4000.0,
    insert_fraction: float = 0.5,
    seed: int = 0,
    family: str = "qcount",
    m: int = 64,
    k: int = 3,
    parallelism: int = 64,
    universe: int = 512,
    max_pending: int = 1 << 16,
    flush_after_ms: float = 2.0,
    time_scale: float = 0.0,
    jsonl: Optional[str] = None,
    items_max: int = 4,
    memo: Any = True,
) -> Dict[str, Any]:
    """Run one full mixed insert/query sketch-serving session.

    The write-capable twin of :func:`run_serve_session`: a shared
    :class:`~repro.apps.sketches.AmplitudeSketch` behind a pinned daemon
    lane, driven by the deterministic open-loop operation generator.
    The returned report adds the sketch-lane scheduler's accounting
    (including ``memo_invalidations`` — the write-path invariant CI's
    ``sketches-smoke`` asserts on) and the sink's sketch op counters.
    """
    metrics = MetricsSink()
    sinks: list = [metrics]
    if jsonl is not None:
        sinks.append(JSONLSink(jsonl))
    recorder = Recorder(sinks)
    sketch = build_sketch_profile(
        family=family, m=m, k=k, seed=seed, recorder=recorder,
    )
    service = QueryService(
        default_quota=TenantQuota("default", max_pending=max_pending),
        flush_after_ms=flush_after_ms,
        recorder=recorder,
        memo=memo,
    )
    service.add_sketch_profile("sketch", sketch, parallelism=parallelism)
    spec = SketchLoadSpec(
        clients=clients, tenants=tenants, rate_hz=rate_hz,
        insert_fraction=insert_fraction, items_max=items_max,
        universe=universe, seed=seed, time_scale=time_scale,
    )
    report: LoadReport = asyncio.run(
        run_operation_load(service, spec, profile="sketch")
    )
    recorder.close()
    lane_report = service.pool.acquire("sketch").scheduler.report()
    out: Dict[str, Any] = {
        "load": report.to_json(),
        "service": service.report(),
        "lane": lane_report.__dict__,
        "metrics": {
            "serve_requests": dict(metrics.serve_requests),
            "serve_batches": metrics.serve_batches,
            "serve_drains": metrics.serve_drains,
            "sketch_ops": dict(metrics.sketch_ops),
            "sketch_memo": dict(metrics.sketch_memo),
            "memo_invalidations": metrics.memo_invalidations,
        },
        "sketch": {
            "family": family, "m": m, "k": k,
            "backend": sketch.backend,
            "inserts": sketch.inserts,
            "queries": sketch.queries,
        },
    }
    if jsonl is not None:
        out["trace"] = {"path": jsonl, "records": validate_jsonl(jsonl)}
    return out


def run_serve_session(
    clients: int = 1000,
    tenants: int = 4,
    rate_hz: float = 2000.0,
    seed: int = 0,
    rows: int = 4,
    cols: int = 4,
    k: int = 64,
    parallelism: int = 8,
    mode: str = "formula",
    max_pending: int = 1 << 16,
    flush_after_ms: float = 2.0,
    time_scale: float = 0.0,
    jsonl: Optional[str] = None,
    queries_max: int = 4,
    memo: Any = True,
) -> Dict[str, Any]:
    """Run one full daemon session and return its JSON-ready report.

    ``max_pending`` defaults high because the canonical session measures
    an *offered* open-loop workload end to end; lower it to exercise
    backpressure.  When ``jsonl`` is set the whole session streams to a
    ``repro-trace/1`` file which is validated before returning (the
    ``serve-smoke`` CI contract).
    """
    net, cfg = build_profile(
        rows=rows, cols=cols, k=k, parallelism=parallelism, mode=mode,
    )
    metrics = MetricsSink()
    sinks: list = [metrics]
    if jsonl is not None:
        sinks.append(JSONLSink(jsonl))
    recorder = Recorder(sinks)
    service = QueryService(
        default_quota=TenantQuota("default", max_pending=max_pending),
        flush_after_ms=flush_after_ms,
        recorder=recorder,
        memo=memo,
    )
    service.add_profile(net, cfg)
    spec = LoadSpec(
        clients=clients, tenants=tenants, rate_hz=rate_hz, seed=seed,
        time_scale=time_scale, queries_max=min(queries_max, parallelism),
    )
    report: LoadReport = asyncio.run(run_load(service, spec))
    recorder.close()
    sched_report = service.pool.acquire("default").scheduler.report()
    out: Dict[str, Any] = {
        "load": report.to_json(),
        "service": service.report(),
        "metrics": {
            "serve_requests": dict(metrics.serve_requests),
            "serve_batches": metrics.serve_batches,
            "serve_batch_rounds": metrics.serve_batch_rounds,
            "serve_drains": metrics.serve_drains,
            # The lane's own memo counters: one lookup per submission.
            "memo": {
                "hits": sched_report.memo_hits,
                "misses": sched_report.memo_misses,
                "evictions": sched_report.memo_evictions,
            },
        },
        "amortized_rounds_per_query": sched_report.amortized_rounds_per_query,
    }
    if jsonl is not None:
        out["trace"] = {"path": jsonl, "records": validate_jsonl(jsonl)}
    return out
