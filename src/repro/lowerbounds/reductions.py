"""The reduction gadgets of Lemmas 11, 13, 15 and Theorem 18, runnable.

A lower-bound proof cannot be executed, but its *reduction* can: given a
disjointness instance, each builder constructs the exact CONGEST input the
paper describes (a path with loaded endpoints, or two joined stars), and
the checker runs one of our CONGEST algorithms on it and maps the output
back to the disjointness answer.  Tests assert the mapping is correct on
both intersecting and disjoint instances — i.e. that the reductions are
sound, which is the machine-checkable content of the lemmas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..congest import topologies
from ..congest.network import Network
from .disjointness import DisjointnessInstance


@dataclass
class MeetingGadget:
    """Lemma 11: disjointness → meeting scheduling on a path of length D."""

    network: Network
    calendars: Dict[int, List[int]]
    instance: DisjointnessInstance

    def interpret(self, best_availability: int) -> bool:
        """max_i Σ_v x_i^{(v)} = 2 iff the sets intersect."""
        return best_availability == 2


def build_meeting_gadget(
    instance: DisjointnessInstance, distance: int
) -> MeetingGadget:
    """Nodes v_A = 0 and v_B = distance hold the two inputs; relays hold 0^k."""
    network = topologies.path_with_endpoints(distance)
    k = instance.k
    calendars = {v: [0] * k for v in network.nodes()}
    calendars[0] = list(instance.x)
    calendars[distance] = list(instance.y)
    return MeetingGadget(network=network, calendars=calendars, instance=instance)


@dataclass
class EDVectorGadget:
    """Lemma 13: disjointness → element distinctness in distributed vector.

    The length-2k encoding of the lemma: v_A writes i (match candidates)
    or 2k+i (private fillers) in the first half, v_B writes i−k or 3k+i in
    the second half; a collision in x^{(v_A)} + x^{(v_B)} exists iff some
    index is 1 in both inputs.
    """

    network: Network
    vectors: Dict[int, List[int]]
    max_value: int
    instance: DisjointnessInstance

    def interpret(self, pair: Optional[Tuple[int, int]]) -> bool:
        return pair is not None


def build_ed_vector_gadget(
    instance: DisjointnessInstance, distance: int
) -> EDVectorGadget:
    """Build the Lemma 13 path gadget for a disjointness instance."""
    network = topologies.path_with_endpoints(distance)
    k = instance.k
    length = 2 * k
    vectors = {v: [0] * length for v in network.nodes()}

    va = [0] * length
    for i in range(k):
        # Paper indices are 1-based; we keep the same arithmetic shifted
        # to 0-based positions with disjoint private ranges.
        va[i] = (i + 1) if instance.x[i] == 1 else (2 * k + i + 1)
    vb = [0] * length
    for i in range(k):
        vb[k + i] = (i + 1) if instance.y[i] == 1 else (4 * k + i + 1)
    vectors[0] = va
    vectors[distance] = vb
    return EDVectorGadget(
        network=network,
        vectors=vectors,
        max_value=5 * k + 1,
        instance=instance,
    )


@dataclass
class EDNodesGadget:
    """Lemma 15: disjointness → element distinctness between nodes.

    Two stars joined center-to-center; A's leaves hold the indices of A's
    set, B's leaves hold B's; a repeated node value exists iff the sets
    intersect.  Centers hold fresh private values.
    """

    network: Network
    values: Dict[int, int]
    max_value: int
    instance: DisjointnessInstance

    def interpret(self, pair: Optional[Tuple[int, int]]) -> bool:
        return pair is not None


def build_ed_nodes_gadget(instance: DisjointnessInstance) -> EDNodesGadget:
    """Build the Lemma 15 two-star gadget for a disjointness instance."""
    set_a = [i for i, b in enumerate(instance.x) if b]
    set_b = [i for i, b in enumerate(instance.y) if b]
    if not set_a or not set_b:
        # Stars need at least one leaf; pad with private non-colliding
        # sentinel elements (cannot create a spurious intersection).
        k = instance.k
        set_a = set_a or [k + 1]
        set_b = set_b or [k + 2]
    network = topologies.two_stars(len(set_a), len(set_b))
    k = instance.k
    values: Dict[int, int] = {}
    values[0] = k + 10  # center A, private
    values[1] = k + 11  # center B, private
    next_node = 2
    for element in set_a:
        values[next_node] = element
        next_node += 1
    for element in set_b:
        values[next_node] = element
        next_node += 1
    return EDNodesGadget(
        network=network,
        values=values,
        max_value=k + 12,
        instance=instance,
    )


@dataclass
class DJGadget:
    """Theorem 18: two-party Deutsch–Jozsa → distributed DJ on a path.

    Endpoints hold the two halves of a promise input (x at v_A, y at v_B
    with x ⊕ y constant or balanced); relays hold 0^k.
    """

    network: Network
    inputs: Dict[int, List[int]]
    constant_truth: bool


def build_dj_gadget(
    x: List[int], y: List[int], distance: int
) -> DJGadget:
    """Build the Theorem 18 path gadget from a two-party DJ input pair."""
    if len(x) != len(y):
        raise ValueError("halves must have equal length")
    xor = [a ^ b for a, b in zip(x, y, strict=True)]
    total = sum(xor)
    if total not in (0, len(xor)) and 2 * total != len(xor):
        raise ValueError("x ⊕ y violates the DJ promise")
    network = topologies.path_with_endpoints(distance)
    inputs = {v: [0] * len(x) for v in network.nodes()}
    inputs[0] = list(x)
    inputs[distance] = list(y)
    return DJGadget(
        network=network,
        inputs=inputs,
        constant_truth=total in (0, len(xor)),
    )
