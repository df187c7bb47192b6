"""Content-addressed result memo for the coalescing scheduler.

Query values served by a :class:`~repro.core.framework.CongestBatchOracle`
are deterministic functions of the oracle's *content*: the network
topology, the semigroup, and the per-node input vectors (or the value
computer).  Two submissions asking for the same index multiset against
the same content therefore receive bit-identical answers — the second
distribute/convergecast is pure waste.  The memo exploits this with a
content address::

    (oracle fingerprint) x (sorted index tuple)  ->  {index: value}

The *oracle fingerprint* (:func:`oracle_fingerprint`) hashes everything
the answer can depend on; a mutated input or a different topology yields
a different fingerprint, so for the read-only oracles stale entries can
never be served — addresses simply stop being asked for.  Writable lanes
(the PR 10 amplitude sketches, whose *identity* fingerprint is stable
across inserts by design) break that assumption, so the memo also has an
explicit write-path protocol: :meth:`ResultMemo.invalidate_fingerprint`
drops every entry under one fingerprint, and the sketch scheduler calls
it on every insert — a stale memo can never serve a pre-insert overlap.
Entries are indexed by fingerprint, so an invalidation costs the entries
it drops, not the size of a memo that other lanes share.
Index tuples are sorted (duplicates kept) so permuted submissions share
one entry; values are stored per index and re-ordered to the submission
order at serve time.

The store is a bounded LRU (``max_entries``): inserting past capacity
evicts the least-recently-used entry, and lookups refresh recency, so a
long-lived serving daemon keeps the memo tracking its live traffic.
Hit/miss/evict counters feed the scheduler's ``coalesce`` events on the
observability spine (:mod:`repro.obs`) and :class:`~repro.obs.sinks.
MetricsSink` roll-ups.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..congest.network import Network
from ..core.framework import FrameworkConfig
from ..obs.recorder import Recorder

__all__ = ["ResultMemo", "oracle_fingerprint"]


def oracle_fingerprint(
    network: Network, config: FrameworkConfig
) -> Optional[str]:
    """Hash everything a query answer can depend on, or None.

    Returns ``None`` when the content cannot be fingerprinted — an
    on-the-fly :class:`~repro.core.framework.ValueComputer` without a
    ``fingerprint()`` method — in which case the memo must stay disabled
    for that oracle (serving would risk wrong answers across inputs).

    The execution ``mode`` is deliberately excluded: formula and engine
    mode answer queries with identical *values* (only the round charges
    differ), and the memo stores values, never charges.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(b"congest-oracle/1;")
    h.update(network.topology_fingerprint().encode())
    if config.dist_input is not None:
        di = config.dist_input
        sg = di.semigroup
        h.update(f";sg={sg.name}/{sg.bits};k={di.k}".encode())
        for v in sorted(di.vectors):
            h.update(f";{v}:".encode())
            h.update(",".join(str(x) for x in di.vectors[v]).encode())
        return h.hexdigest()
    if config.computer is not None:
        fp = getattr(config.computer, "fingerprint", None)
        token = fp() if callable(fp) else None
        if not isinstance(token, str) or not token:
            return None
        sg = config.semigroup
        sg_token = f"{sg.name}/{sg.bits}" if sg is not None else "none"
        h.update(f";computer={token};k={config.k};sg={sg_token}".encode())
        return h.hexdigest()
    return None


class ResultMemo:
    """The content-addressed store; shareable across schedulers.

    One memo object may serve any number of schedulers (even over
    different networks and inputs) because every entry is addressed by
    the full oracle fingerprint — cross-oracle collisions are
    cryptographically excluded rather than procedurally avoided.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        recorder: Optional[Recorder] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive when set")
        self._entries: "OrderedDict[Tuple[str, Tuple[int, ...]], Dict[int, Any]]" = (
            OrderedDict()
        )
        #: The keys of ``_entries`` grouped by fingerprint, kept in step
        #: with every store, eviction and invalidation: invalidating one
        #: fingerprint touches only its own entries, however many other
        #: lanes share the memo.
        self._keys_by_fingerprint: Dict[str, Set[Tuple[str, Tuple[int, ...]]]] = {}
        self.max_entries = max_entries
        self._recorder = recorder
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0  # entries dropped by write-path invalidation

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(fingerprint: str, indices: Sequence[int]) -> Tuple[str, Tuple[int, ...]]:
        return (fingerprint, tuple(sorted(indices)))

    def lookup(
        self, fingerprint: str, indices: Sequence[int]
    ) -> Optional[List[Any]]:
        """Values in submission order on a hit, else None; counts either way.

        A hit refreshes the entry's LRU recency: a daemon's hot addresses
        stay resident while one-shot submissions age out.
        """
        key = self._key(fingerprint, indices)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return [entry[j] for j in indices]

    def store(
        self, fingerprint: str, indices: Sequence[int], values: Sequence[Any]
    ) -> None:
        """Record one answered submission, evicting the LRU entry if full.

        Eviction (rather than refusing the insert) keeps a long-lived
        daemon's memo tracking its *current* traffic instead of freezing
        at whatever filled it during cold start.  Dropping an entry only
        costs rounds on a future re-ask — values are recomputed
        bit-identically — and is surfaced as a ``coalesce`` event with
        ``memo="evict"`` when a recorder is attached.
        """
        if len(indices) != len(values):
            raise ValueError(
                f"{len(indices)} indices but {len(values)} values"
            )
        key = self._key(fingerprint, indices)
        self._entries[key] = dict(zip(indices, values, strict=True))
        self._entries.move_to_end(key)
        self._keys_by_fingerprint.setdefault(fingerprint, set()).add(key)
        if (
            self.max_entries is not None
            and len(self._entries) > self.max_entries
        ):
            evicted_key, evicted = self._entries.popitem(last=False)
            keys = self._keys_by_fingerprint[evicted_key[0]]
            keys.remove(evicted_key)
            if not keys:
                del self._keys_by_fingerprint[evicted_key[0]]
            self.evictions += 1
            if self._recorder is not None and self._recorder.active:
                self._recorder.coalesce(
                    size=len(evicted), submissions=0, callers=0,
                    rounds=0, memo="evict",
                )

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every entry addressed under ``fingerprint``; returns count.

        The write-path protocol: a lane whose content just changed but
        whose identity fingerprint is stable (an amplitude sketch after
        an insert) must call this *before* the write is acknowledged, so
        no reader can be served a pre-write value.  Dropped entries are
        counted in ``invalidations`` (distinct from LRU ``evictions``,
        which are a capacity phenomenon, not a correctness one) and
        surfaced as one ``coalesce`` event with ``memo="invalidate"``.
        """
        stale = self._keys_by_fingerprint.pop(fingerprint, ())
        for key in stale:
            del self._entries[key]
        if stale:
            self.invalidations += len(stale)
            if self._recorder is not None and self._recorder.active:
                self._recorder.coalesce(
                    size=len(stale), submissions=0, callers=0,
                    rounds=0, memo="invalidate",
                )
        return len(stale)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._entries.clear()
        self._keys_by_fingerprint.clear()
