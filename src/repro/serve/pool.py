"""The daemon's warm pool of prepared serving lanes.

A *lane* is one (network, :class:`~repro.core.framework.FrameworkConfig`)
profile with its own :class:`~repro.sched.CoalescingScheduler` — one
physical oracle whose batches the daemon steps round-by-round.  The pool
keeps lanes warm in an LRU bounded by ``max_lanes``: re-acquiring a
profile reuses its scheduler (and therefore its memo and setup), while
cold acquisition builds a scheduler whose setup phase hits the
process-wide :class:`~repro.core.framework.PreparedCache` — the bounded
LRU of BFS trees keyed by topology fingerprint — so even a freshly built
lane over a previously seen topology skips leader election and tree
construction.

Only *idle* lanes are evictable; a lane with queued or in-flight work is
busy until it drains.  While every lane past the bound is busy the pool
holds more than ``max_lanes``; the next acquisition after lanes go idle
evicts back down to the bound.  A profile outlives its lane: the pool
remembers the network and config each oracle lane was built from, and
rebuilds an evicted lane on the next :meth:`PreparedPool.acquire` of its
name.  Evicting a lane costs nothing but warmth: the PreparedCache below
it usually still holds the topology's setup.

Sketch lanes (PR 10) are different: a :class:`~repro.sched.sketch.
SketchScheduler` lane *holds authoritative data* (the accumulated sketch
state), so dropping it would lose inserts, not warmth.  Sketch lanes are
therefore ``pinned`` — never LRU-evicted — and have no profile to rebuild
from (sketch operations are local phase rotations, not oracle batches).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..apps.sketches import AmplitudeSketch
from ..congest.network import Network
from ..core.framework import FrameworkConfig, prepared_cache_stats
from ..obs.recorder import Recorder, current_recorder
from ..sched import CoalescingScheduler, LaneScheduler, SketchScheduler

__all__ = ["Lane", "PreparedPool"]

DEFAULT_MAX_LANES = 8


@dataclass
class Lane:
    """One serving profile: a named scheduler (oracle or sketch lane).

    An oracle lane's network and config live on its scheduler and in the
    pool's remembered profile.  Sketch lanes are ``pinned`` because their
    scheduler's sketch is authoritative state, not a rebuildable cache.
    """

    name: str
    scheduler: LaneScheduler  # CoalescingScheduler | SketchScheduler
    in_flight: Dict[int, Any] = field(default_factory=dict)  # ticket id -> req
    batches: int = 0
    pinned: bool = False

    @property
    def idle(self) -> bool:
        return not self.in_flight and self.scheduler.pack_would_be_empty()


class PreparedPool:
    """Bounded LRU of warm serving lanes keyed by profile name."""

    def __init__(
        self,
        max_lanes: int = DEFAULT_MAX_LANES,
        recorder: Optional[Recorder] = None,
        memo: Any = True,
    ):
        if max_lanes < 1:
            raise ValueError(f"max_lanes must be >= 1, got {max_lanes}")
        self.max_lanes = max_lanes
        self.memo = memo
        self._recorder = (
            recorder if recorder is not None else current_recorder()
        )
        self._lanes: "OrderedDict[str, Lane]" = OrderedDict()
        #: Oracle profile name -> what its lane was last built from.
        self._profiles: Dict[str, Tuple[Network, FrameworkConfig]] = {}
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._lanes)

    def __contains__(self, name: str) -> bool:
        return name in self._lanes

    def lanes(self) -> List[Lane]:
        return list(self._lanes.values())

    def acquire(
        self,
        name: str,
        network: Optional[Network] = None,
        config: Optional[FrameworkConfig] = None,
    ) -> Lane:
        """The warm lane for ``name``, building it when it is cold.

        A cold acquire builds the lane from ``network``/``config`` and
        remembers them as the profile; without them it rebuilds the
        remembered profile (a lane evicted earlier), and raises
        ``KeyError`` for a name never built.  A warm lane ignores the
        arguments.  Acquisition refreshes LRU recency, and every
        acquisition, warm or cold, then evicts least-recently-acquired
        *idle* lanes until the pool is back within ``max_lanes`` (see
        :meth:`_evict_if_over`).
        """
        lane = self._lanes.get(name)
        if lane is not None:
            self._lanes.move_to_end(name)
            self._evict_if_over()
            return lane
        if network is not None and config is not None:
            self._profiles[name] = (network, config)
        if name not in self._profiles:
            raise KeyError(
                f"lane {name!r} is not warm; pass network and config to "
                f"build it"
            )
        network, config = self._profiles[name]
        # Each lane forks the recorder so interleaved lanes never share a
        # span stack; events still fan into the same sinks.
        scheduler = CoalescingScheduler(
            network, config, memo=self.memo,
            recorder=self._recorder.fork(),
        )
        lane = Lane(name=name, scheduler=scheduler)
        self._lanes[name] = lane
        self._evict_if_over()
        return lane

    def add_sketch(
        self,
        name: str,
        sketch: AmplitudeSketch,
        parallelism: int = 64,
    ) -> Lane:
        """Register a *pinned* sketch lane serving ``sketch``, under the
        pool's memo policy.

        Re-adding a warm name returns the existing lane (the sketch
        argument must then be the same object — a lane's sketch is
        authoritative and cannot be swapped out from under its memo).
        """
        lane = self._lanes.get(name)
        if lane is not None:
            if getattr(lane.scheduler, "sketch", None) is not sketch:
                raise ValueError(
                    f"lane {name!r} already serves a different sketch"
                )
            self._lanes.move_to_end(name)
            self._evict_if_over()
            return lane
        scheduler = SketchScheduler(
            sketch, parallelism=parallelism, memo=self.memo,
            recorder=self._recorder.fork(),
        )
        lane = Lane(name=name, scheduler=scheduler, pinned=True)
        self._lanes[name] = lane
        self._evict_if_over()
        return lane

    def _evict_if_over(self) -> None:
        """Drop LRU idle, unpinned lanes until within ``max_lanes``.

        The newest lane, the one just acquired, is never a candidate, and
        neither are busy lanes or pinned (sketch) lanes, which hold
        authoritative data.  While too few lanes qualify the pool stays
        over its bound; every later acquisition tries again.
        """
        excess = len(self._lanes) - self.max_lanes
        if excess <= 0:
            return
        newest = next(reversed(self._lanes))
        for candidate, lane in list(self._lanes.items()):
            if candidate != newest and not lane.pinned and lane.idle:
                del self._lanes[candidate]
                self.evictions += 1
                excess -= 1
                if not excess:
                    return

    def stats(self) -> Dict[str, Any]:
        """Pool occupancy plus the PreparedCache counters beneath it."""
        return {
            "lanes": len(self._lanes),
            "max_lanes": self.max_lanes,
            "lane_evictions": self.evictions,
            "prepared_cache": prepared_cache_stats(),
        }
