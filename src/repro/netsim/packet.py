"""Packet objects exchanged over the simulated network.

Both data segments and ACKs are :class:`Packet` instances; ACKs carry the
cumulative acknowledgment plus a SACK-like ``sacked`` hint (the highest
sequence received), which lets the sender detect holes the same way a
kernel's SACK scoreboard does.
"""

from __future__ import annotations

from typing import Optional

#: Default maximum segment size, matching the common Ethernet MTU payload.
MSS_BYTES = 1500

#: Size of a bare ACK on the wire (negligible; the return path is uncongested).
ACK_BYTES = 40


class Packet:
    """A single data segment (or ACK) flowing through the network."""

    __slots__ = (
        "flow_id",
        "seq",
        "size",
        "sent_time",
        "enqueue_time",
        "is_ack",
        "is_retx",
        "ack_seq",
        "sacked_seq",
        "sack_holes",
        "ack_of_sent_time",
        "delivered_at",
        "ect",
        "ce",
        "ece",
    )

    def __init__(
        self,
        flow_id: int,
        seq: int,
        size: int = MSS_BYTES,
        sent_time: float = 0.0,
        is_ack: bool = False,
        is_retx: bool = False,
        ack_seq: int = -1,
        sacked_seq: int = -1,
        sack_holes: tuple = (),
        ack_of_sent_time: float = 0.0,
    ) -> None:
        self.flow_id = flow_id
        self.seq = seq
        self.size = size
        self.sent_time = sent_time
        self.enqueue_time = 0.0
        self.is_ack = is_ack
        self.is_retx = is_retx
        self.ack_seq = ack_seq
        self.sacked_seq = sacked_seq
        #: ACKs: missing sequences below ``sacked_seq``, ascending (the
        #: receiver reports the first 128 within 1024 of ``ack_seq``)
        self.sack_holes = sack_holes
        self.ack_of_sent_time = ack_of_sent_time
        self.delivered_at: Optional[float] = None
        #: ECN: sender marks capability (ECT), the AQM sets CE on standing
        #: congestion, and the receiver echoes it on ACKs (ECE).
        self.ect = False
        self.ce = False
        self.ece = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else ("RETX" if self.is_retx else "DATA")
        return f"<{kind} flow={self.flow_id} seq={self.seq} t={self.sent_time:.4f}>"
