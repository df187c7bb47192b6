"""Error types for the CONGEST simulation substrate.

The engine distinguishes between *model violations* (an algorithm breaking
the rules of the CONGEST model, e.g. oversized messages or sending to a
non-neighbor) and ordinary *engine errors* (misconfiguration, exceeding the
round budget).  Tests rely on this distinction: a model violation always
means the algorithm under test is wrong, never the harness.
"""

from __future__ import annotations


class CongestError(Exception):
    """Base class for all errors raised by the CONGEST substrate."""


class ModelViolation(CongestError):
    """An algorithm broke the rules of the CONGEST model."""


class BandwidthExceeded(ModelViolation):
    """A message was larger than the per-edge per-round bandwidth.

    Attributes:
        src: sender node id.
        dst: receiver node id.
        bits: declared size of the offending message in bits.
        bandwidth: the per-edge bandwidth limit in bits.
    """

    def __init__(self, src: int, dst: int, bits: int, bandwidth: int):
        self.src = src
        self.dst = dst
        self.bits = bits
        self.bandwidth = bandwidth
        super().__init__(
            f"message {src}->{dst} of {bits} bits exceeds the "
            f"{bandwidth}-bit CONGEST bandwidth"
        )


class MessageTooLargeError(BandwidthExceeded):
    """A message exceeded the communication model's per-link budget.

    Subclass of :class:`BandwidthExceeded` so code written against the
    historical CONGEST-only hierarchy keeps catching it; the extra
    ``model`` attribute names the communication model whose admission
    rule rejected the message (e.g. ``"congest-clique"`` when a logical
    clique pair went over its per-round O(log n) allowance).
    """

    def __init__(
        self, src: int, dst: int, bits: int, bandwidth: int, model: str = ""
    ):
        super().__init__(src, dst, bits, bandwidth)
        self.model = model
        if model:
            self.args = (
                f"message {src}->{dst} of {bits} bits exceeds the "
                f"{bandwidth}-bit per-link budget of the {model} model",
            )


class NotANeighbor(ModelViolation):
    """A node tried to send a message to a node it is not adjacent to."""

    def __init__(self, src: int, dst: int):
        self.src = src
        self.dst = dst
        super().__init__(f"node {src} attempted to send to non-neighbor {dst}")


class DuplicateSend(ModelViolation):
    """A node sent two messages over the same edge in one round.

    The CONGEST model allows one message per edge direction per round; a
    program that needs to send more must either pack the payload (subject to
    the bandwidth limit) or spread it over several rounds.
    """

    def __init__(self, src: int, dst: int, round_no: int):
        self.src = src
        self.dst = dst
        self.round_no = round_no
        super().__init__(
            f"node {src} sent twice to {dst} in round {round_no}"
        )


class RoundLimitExceeded(CongestError):
    """The engine ran past its configured maximum number of rounds."""

    def __init__(self, max_rounds: int):
        self.max_rounds = max_rounds
        super().__init__(f"execution exceeded the {max_rounds}-round budget")
