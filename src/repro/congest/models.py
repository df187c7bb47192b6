"""Pluggable communication models: CONGEST, CONGEST-CLIQUE, LOCAL.

The engine used to hard-code one set of communication rules — the
CONGEST model's "physical neighbors only, O(log n) bits per edge per
round".  This module abstracts those rules behind a :class:`CommModel`
so new workload families can swap them without touching the round loop:

* :class:`CongestModel` — the historical default, byte-for-byte: a node
  may message its physical neighbors, every message is capped at the
  per-edge bandwidth (``4·⌈log2 n⌉ + 16`` bits unless overridden).
* :class:`CongestCliqueModel` — the CONGEST-CLIQUE model of
  [Izumi–Le Gall, arXiv:1906.02456]: *every* pair of nodes shares a
  logical link of O(log n) bits per round, regardless of the physical
  graph.  Messages between physically non-adjacent nodes are routed
  over the physical topology and the extra relay traffic is charged to
  the engine's bit statistics (``route_hops``), so clique runs over a
  sparse physical graph surface their true transport cost.
* :class:`LocalModel` — the LOCAL model
  [Le Gall–Nishimura–Rosmanis, arXiv:1810.10838]: physical neighbors
  only, but message size is *unbounded* (``bandwidth is None``), which
  is how LOCAL-vs-CONGEST separations are expressed.

A model pins down four things, each consumed by a different layer:

1. **connectivity** — :meth:`CommModel.peers`: whom a node may message
   (drives the :class:`~repro.congest.program.Context` handed to node
   programs);
2. **bandwidth** — :meth:`CommModel.resolve_bandwidth`: the per-link
   per-round bit cap, ``None`` for unbounded (enforced at
   ``Context.send`` time, raising
   :class:`~repro.congest.errors.MessageTooLargeError`);
3. **admission** — :meth:`CommModel.admit`: the one-call validation
   seam combining both rules (used by tests, tooling, and any transport
   that bypasses ``Context.send``);
4. **cost accounting** — :meth:`CommModel.router`: an optional
   per-round routing biller (CLIQUE charges relay hops; CONGEST and
   LOCAL deliver over physical edges and need none).

Identity plumbing: :attr:`CommModel.cache_key` feeds the network
topology fingerprint, which keys the setup cache, the result memo and
the transfers' tree shapes, so two models over the same graph never
share cached state; :attr:`CommModel.event_token`
stamps observability round/charge events (empty for the default CONGEST
model, keeping pre-refactor trace streams byte-identical).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .encoding import bits_for_domain
from .errors import CongestError, MessageTooLargeError, NotANeighbor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .network import Network

#: Default bandwidth allowance, as a multiple of ceil(log2 n).  CONGEST
#: messages are O(log n) bits; proofs in the paper pack a constant number
#: of identifiers/distances per message, so we allow 4 log-n-sized fields
#: plus a small tag budget by default.
DEFAULT_LOG_FACTOR = 4
DEFAULT_TAG_BITS = 16


def default_bandwidth(n: int) -> int:
    """The historical CONGEST default: ``4·⌈log2 n⌉ + 16`` bits."""
    return DEFAULT_LOG_FACTOR * bits_for_domain(max(n, 2)) + DEFAULT_TAG_BITS


class Router:
    """Per-round transport biller attached by models that route messages.

    The engine calls :meth:`extra_bits` once per round with the round's
    delivered messages; the return value is *added* to the round's bit
    statistic.  Models whose logical links coincide with physical edges
    (CONGEST, LOCAL) attach no router and pay nothing.
    """

    def extra_bits(self, delivered) -> int:
        """Additional transport bits this round's deliveries cost."""
        raise NotImplementedError


class CliqueRouter(Router):
    """Charges CLIQUE logical links routed over the physical graph.

    A logical message ``src -> dst`` physically traverses
    ``hops(src, dst)`` edges; the first hop is already counted by the
    engine's per-message bit accounting, so the router bills
    ``bits · (hops - 1)`` extra.  Hop counts are BFS distances over the
    physical graph, computed lazily one source at a time and cached for
    the network's lifetime (clique programs tend to reuse pairs).
    """

    def __init__(self, network: "Network"):
        self.network = network
        self._dist: Dict[int, Dict[int, int]] = {}

    def hops(self, src: int, dst: int) -> int:
        """Physical hop count of the logical link ``src -> dst``."""
        if src == dst:
            return 0
        dist = self._dist.get(src)
        if dist is None:
            dist = self._bfs(src)
            self._dist[src] = dist
        return dist[dst]

    def _bfs(self, src: int) -> Dict[int, int]:
        dist = {src: 0}
        frontier = deque([src])
        neighbors = self.network.neighbors
        while frontier:
            u = frontier.popleft()
            du = dist[u]
            for w in neighbors(u):
                if w not in dist:
                    dist[w] = du + 1
                    frontier.append(w)
        return dist

    def extra_bits(self, delivered) -> int:
        total = 0
        for msg in delivered:
            total += msg.bits * (self.hops(msg.src, msg.dst) - 1)
        return total


@dataclass(frozen=True)
class CommModel:
    """Abstract communication model: connectivity + bandwidth + billing.

    Concrete models are small frozen dataclasses, so they compare and
    hash structurally and are safe to share across networks, cache keys,
    and process-pool pickles.
    """

    #: Short stable identifier (``"congest"``, ``"congest-clique"``,
    #: ``"local"``) used by registries and config fields.
    name = "abstract"

    def resolve_bandwidth(self, n: int) -> Optional[int]:
        """Per-link per-round bit cap for an n-node network (None = ∞)."""
        raise NotImplementedError

    def peers(self, network: "Network", v: int) -> Tuple[int, ...]:
        """The nodes ``v`` may message, ascending (the connectivity rule)."""
        raise NotImplementedError

    def is_peer(self, network: "Network", src: int, dst: int) -> bool:
        """Whether the logical link ``src -> dst`` exists under this model."""
        raise NotImplementedError

    def admit(self, network: "Network", src: int, dst: int, bits: int) -> None:
        """The message-admission check: one call validating both rules.

        Raises :class:`~repro.congest.errors.NotANeighbor` when the
        logical link does not exist and
        :class:`~repro.congest.errors.MessageTooLargeError` when the
        message exceeds the link's per-round budget.  A message that
        returns without raising is admissible this round (modulo the
        one-message-per-link rule, which is per-round state the
        :class:`~repro.congest.program.Context` owns).
        """
        if not self.is_peer(network, src, dst):
            raise NotANeighbor(src, dst)
        cap = network.bandwidth
        if cap is not None and bits > cap:
            raise MessageTooLargeError(src, dst, bits, cap, model=self.name)

    def router(self, network: "Network") -> Optional[Router]:
        """A per-round transport biller, or None when links are physical."""
        return None

    @property
    def cache_key(self) -> str:
        """Stable token separating per-model cached state (CSR, setup)."""
        return self.name

    @property
    def event_token(self) -> str:
        """The ``model`` field stamped on obs round/charge events.

        Empty for the default CONGEST model so pre-refactor trace
        streams stay byte-identical; concrete non-default models return
        their :attr:`name`.
        """
        return self.name

    @property
    def csr_port(self) -> bool:
        """Whether the vectorized engine's CSR bulk path may run.

        The column-major loop assumes physical-edge delivery with a
        uniform per-message bit size; models that route over logical
        links (or meter differently) return False and the engine falls
        back to the per-node path, recording the reason.
        """
        return False


@dataclass(frozen=True)
class CongestModel(CommModel):
    """The classical CONGEST model — the byte-for-byte default.

    Physical neighbors only; every message capped at ``bandwidth`` bits
    (``4·⌈log2 n⌉ + 16`` when left at None, the historical default).
    An engine run under this model is bit-identical — rounds, outputs,
    traffic statistics, and observability event streams — to the
    pre-model-layer engine, which the hypothesis suite in
    ``tests/property/test_prop_models.py`` pins.
    """

    bandwidth: Optional[int] = None

    name = "congest"

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth < 1:
            raise CongestError(
                f"bandwidth must be positive, got {self.bandwidth}"
            )

    def resolve_bandwidth(self, n: int) -> Optional[int]:
        """The explicit override, or the ``4·⌈log2 n⌉ + 16`` default."""
        if self.bandwidth is not None:
            return self.bandwidth
        return default_bandwidth(n)

    def peers(self, network: "Network", v: int) -> Tuple[int, ...]:
        """Physical neighbors (the network's adjacency, unchanged)."""
        return network.neighbors(v)

    def is_peer(self, network: "Network", src: int, dst: int) -> bool:
        """True iff ``src`` and ``dst`` share a physical edge."""
        return network.has_edge(src, dst)

    @property
    def event_token(self) -> str:
        """Empty: default-model traces stay byte-identical to history."""
        return ""

    @property
    def csr_port(self) -> bool:
        """True — the vectorized bulk loop was built for this model."""
        return True


@dataclass(frozen=True)
class CongestCliqueModel(CommModel):
    """CONGEST-CLIQUE: all-pairs logical links of O(log n) bits per round.

    Every ordered pair of distinct nodes shares a logical link — the
    physical graph constrains *cost*, not *connectivity*.  Messages
    between physically non-adjacent nodes are routed over the physical
    topology; the engine's bit statistics charge the full relay path via
    :class:`CliqueRouter` (``bits × hops``), so a clique algorithm run
    over a sparse physical graph shows its true transport bill.  The
    per-pair budget defaults to the same ``Θ(log n)`` allowance CONGEST
    uses; an explicit ``bandwidth`` overrides it.
    """

    bandwidth: Optional[int] = None

    name = "congest-clique"

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth < 1:
            raise CongestError(
                f"bandwidth must be positive, got {self.bandwidth}"
            )

    def resolve_bandwidth(self, n: int) -> Optional[int]:
        """Per-pair budget: the explicit override or ``Θ(log n)`` bits."""
        if self.bandwidth is not None:
            return self.bandwidth
        return default_bandwidth(n)

    def peers(self, network: "Network", v: int) -> Tuple[int, ...]:
        """Every other node: the clique's all-pairs connectivity."""
        return tuple(u for u in range(network.n) if u != v)

    def is_peer(self, network: "Network", src: int, dst: int) -> bool:
        """True for every distinct pair (self-links never exist)."""
        return src != dst and 0 <= dst < network.n

    def router(self, network: "Network") -> Optional[Router]:
        """The physical-path biller (identity on an actual clique)."""
        return CliqueRouter(network)

    @property
    def cache_key(self) -> str:
        """Distinct from CONGEST so cached setup and memo state never mixes."""
        return self.name


@dataclass(frozen=True)
class LocalModel(CommModel):
    """The LOCAL model: physical edges, unbounded message size.

    Connectivity is exactly CONGEST's; the bandwidth cap is gone
    (``resolve_bandwidth`` returns None, ``Network.words`` collapses to
    one round per transfer).  This is the cheap third backend the
    LOCAL-vs-CONGEST separation scenarios need.
    """

    name = "local"

    def resolve_bandwidth(self, n: int) -> Optional[int]:
        """None: LOCAL messages are unbounded."""
        return None

    def peers(self, network: "Network", v: int) -> Tuple[int, ...]:
        """Physical neighbors, same as CONGEST."""
        return network.neighbors(v)

    def is_peer(self, network: "Network", src: int, dst: int) -> bool:
        """True iff ``src`` and ``dst`` share a physical edge."""
        return network.has_edge(src, dst)


#: The process-wide default model instance (the pre-refactor behavior).
DEFAULT_MODEL = CongestModel()

#: name -> zero-argument default instance, for string-based configs.
MODELS = {
    CongestModel.name: CongestModel(),
    CongestCliqueModel.name: CongestCliqueModel(),
    LocalModel.name: LocalModel(),
}


def resolve_model(model) -> CommModel:
    """Coerce a model spec — name string, instance, or None — to a model.

    ``None`` resolves to the default :class:`CongestModel`; a string
    must name a registered model (``"congest"``, ``"congest-clique"``,
    ``"local"``); a :class:`CommModel` instance passes through.
    """
    if model is None:
        return DEFAULT_MODEL
    if isinstance(model, CommModel):
        return model
    if isinstance(model, str):
        try:
            return MODELS[model]
        except KeyError:
            raise CongestError(
                f"unknown communication model {model!r}; "
                f"available: {sorted(MODELS)}"
            ) from None
    raise CongestError(
        f"comm_model must be a CommModel, a model name, or None; "
        f"got {type(model).__name__}"
    )
