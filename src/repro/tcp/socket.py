"""The TCP-like sender and receiver endpoints.

The sender implements the transport machinery every congestion-control
scheme in the paper relies on:

- sequence/cumulative-ACK reliability with a SACK-style "highest received"
  hint;
- RFC 6298 RTT estimation (srtt, rttvar, RTO) with Karn's algorithm;
- dupACK fast retransmit with NewReno partial-ACK recovery;
- RTO fallback with window collapse;
- delivery-rate sampling (the kernel's ``rate_sample``) for model-based
  schemes such as BBR2 and Westwood;
- optional pacing for rate-based schemes.

The congestion window lives on the socket (in packets, as a float) and is
mutated by the :class:`~repro.tcp.cc_base.CongestionControl` hooks, exactly
like a kernel module mutates ``tcp_sock``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.engine import EventLoop, Timer
from repro.netsim.network import Network
from repro.netsim.packet import ACK_BYTES, MSS_BYTES, Packet
from repro.tcp.cc_base import CongestionControl

# Socket congestion-avoidance states (mirrors kernel TCP_CA_*).
CA_OPEN = 0
CA_RECOVERY = 1
CA_LOSS = 2

#: RTO bounds. The lower bound is well below RFC 6298's 1 s so that
#: short simulated experiments are not dominated by timer waits; the
#: qualitative behaviour (timeout >> RTT) is preserved.
RTO_MIN = 0.2
RTO_MAX = 60.0

DUPACK_THRESHOLD = 3


class TcpReceiver:
    """Receiver endpoint: reassembly cursor plus per-packet ACKs.

    With ``delayed_acks=True`` the receiver follows RFC 1122 delayed
    acknowledgments: in-order segments are ACKed every second packet or
    after ``delack_timeout`` (40 ms here, the common kernel value), while
    out-of-order segments still elicit an immediate (dup)ACK. Default off —
    per-packet ACKs give the GR unit and rate-based schemes the cleanest
    signal, and most experiments in the paper's lineage disable delacks.
    """

    __slots__ = (
        "flow_id",
        "network",
        "delayed_acks",
        "delack_timeout",
        "_received",
        "_holes",
        "rcv_next",
        "max_seq_seen",
        "total_packets",
        "total_bytes",
        "owd_sum",
        "owd_count",
        "owd_max",
        "acks_sent",
        "_delack_pending",
        "_delack_timer",
    )

    def __init__(
        self,
        flow_id: int,
        network: Network,
        delayed_acks: bool = False,
        delack_timeout: float = 0.040,
    ) -> None:
        self.flow_id = flow_id
        self.network = network
        self.delayed_acks = delayed_acks
        self.delack_timeout = delack_timeout
        self._received = set()  # out-of-order sequences above rcv_next
        #: the sequences missing below max_seq_seen, ascending
        self._holes: List[int] = []
        self.rcv_next = 0  # next expected sequence number
        self.max_seq_seen = -1
        self.total_packets = 0
        self.total_bytes = 0
        #: running sums for one-way delay statistics
        self.owd_sum = 0.0
        self.owd_count = 0
        self.owd_max = 0.0
        self.acks_sent = 0
        self._delack_pending: Optional[Packet] = None
        self._delack_timer: Optional[Timer] = (
            Timer(network.loop, self._on_delack_timeout) if delayed_acks else None
        )

    def on_data(self, pkt: Packet) -> None:
        """Network callback: a data packet arrived; record it and ACK."""
        now = self.network.loop.now
        owd = now - pkt.sent_time
        self.owd_sum += owd
        self.owd_count += 1
        if owd > self.owd_max:
            self.owd_max = owd
        seq = pkt.seq
        holes_list = self._holes
        if seq >= self.rcv_next and seq not in self._received:
            self._received.add(seq)
            self.total_packets += 1
            self.total_bytes += pkt.size
            if seq > self.max_seq_seen:
                # everything skipped over is a new hole, above all older ones
                holes_list.extend(range(self.max_seq_seen + 1, seq))
                self.max_seq_seen = seq
            else:
                del holes_list[bisect_left(holes_list, seq)]  # a hole filled
            while self.rcv_next in self._received:
                self._received.discard(self.rcv_next)
                self.rcv_next += 1
        # SACK-style hole report: sequences missing below the highest seen.
        # It is bounded (first 128 holes within a 1024-seq horizon) so a
        # pathological overshoot cannot make ACKs grow without limit; holes
        # beyond the horizon are reported once earlier ones fill.
        if holes_list:
            n = bisect_left(holes_list, self.rcv_next + 1024)
            holes = tuple(holes_list[: n if n < 128 else 128])
        else:
            holes = ()
        ack = Packet(
            flow_id=self.flow_id,
            seq=pkt.seq,
            size=ACK_BYTES,
            sent_time=now,
            is_ack=True,
            # Carries whether the *triggering data packet* was a
            # retransmission, so the sender can take exact per-packet RTT
            # samples while honouring Karn's algorithm.
            is_retx=pkt.is_retx,
            ack_seq=self.rcv_next,
            sacked_seq=self.max_seq_seen,
            sack_holes=holes,
            ack_of_sent_time=pkt.sent_time,
        )
        # per-packet CE echo (DCTCP-style exact feedback)
        ack.ece = pkt.ce

        if not self.delayed_acks:
            self._emit(ack)
            return
        out_of_order = holes or pkt.seq != ack.ack_seq - 1
        if out_of_order or pkt.ce:
            # dup/SACK/ECN information must not be delayed
            self._flush_pending()
            self._emit(ack)
            return
        if self._delack_pending is not None:
            # second in-order segment: ack both now
            self._delack_timer.cancel()
            self._delack_pending = None
            self._emit(ack)
            return
        self._delack_pending = ack
        self._delack_timer.mod(now + self.delack_timeout)

    # -- delayed-ack machinery -------------------------------------------
    def _emit(self, ack: Packet) -> None:
        self.acks_sent += 1
        self.network.send_ack(ack)

    def _flush_pending(self) -> None:
        if self._delack_pending is not None:
            self._delack_timer.cancel()
            pending, self._delack_pending = self._delack_pending, None
            self._emit(pending)

    def _on_delack_timeout(self) -> None:
        self._flush_pending()

    @property
    def mean_owd(self) -> float:
        """Mean one-way delay of all packets seen so far (seconds)."""
        return self.owd_sum / self.owd_count if self.owd_count else 0.0


class TcpSender:
    """Sender endpoint with pluggable congestion control.

    The application model is an infinite backlog (bulk transfer), matching
    the paper's experiments.
    """

    __slots__ = (
        "flow_id",
        "network",
        "loop",
        "cc",
        "max_cwnd",
        "cwnd",
        "ssthresh",
        "ca_state",
        "snd_nxt",
        "snd_una",
        "_unacked",
        "_dup_acks",
        "_recovery_point",
        "_high_sacked",
        "_lost_set",
        "_sacked_est",
        "srtt",
        "rttvar",
        "rto",
        "min_rtt",
        "latest_rtt",
        "delivered",
        "delivered_bytes",
        "lost",
        "lost_bytes",
        "retransmits",
        "sent_packets",
        "delivery_rate",
        "max_delivery_rate",
        "_delivered_time",
        "ecn_ce_acks",
        "total_acks",
        "_rto_timer",
        "_pacing_blocked",
        "_started",
        "_stopped",
        "start_time",
        "external_cwnd_control",
        "size_pkts",
        "on_complete",
        "completed_at",
    )

    def __init__(
        self,
        flow_id: int,
        network: Network,
        cc: CongestionControl,
        initial_cwnd: float = 10.0,
        max_cwnd: float = 4096.0,
        size_pkts: Optional[int] = None,
    ) -> None:
        if size_pkts is not None and size_pkts < 1:
            raise ValueError(f"size_pkts must be >= 1, got {size_pkts}")
        self.flow_id = flow_id
        self.network = network
        self.loop: EventLoop = network.loop
        self.cc = cc
        #: hard window cap, the analogue of the kernel's socket-buffer limit
        #: (tcp_wmem); keeps a runaway policy from flooding the simulator.
        self.max_cwnd = float(max_cwnd)

        # -- window state (packets) --
        self.cwnd = float(initial_cwnd)
        self.ssthresh = 1e9  # "infinite" until the first loss
        self.ca_state = CA_OPEN

        # -- sequence state --
        self.snd_nxt = 0  # next fresh sequence number to send
        self.snd_una = 0  # lowest unacknowledged sequence
        #: seq -> (sent_time, is_retx, delivered_snapshot, delivered_t_snapshot)
        self._unacked: Dict[int, Tuple[float, bool, int, float]] = {}
        self._dup_acks = 0
        self._recovery_point = -1
        self._high_sacked = -1
        #: sequences declared lost and not yet retransmitted (out of the pipe)
        self._lost_set: set = set()
        #: estimate of packets SACKed above snd_una (received, out of the pipe)
        self._sacked_est = 0

        # -- RTT estimation (RFC 6298) --
        self.srtt = 0.0
        self.rttvar = 0.0
        self.rto = 1.0
        self.min_rtt = float("inf")
        self.latest_rtt = 0.0

        # -- counters the GR unit samples --
        self.delivered = 0  # cumulatively acked packets
        self.delivered_bytes = 0
        self.lost = 0  # packets declared lost
        self.lost_bytes = 0
        self.retransmits = 0
        self.sent_packets = 0
        self.delivery_rate = 0.0  # latest per-ack rate sample, bits/s
        self.max_delivery_rate = 0.0
        self._delivered_time = 0.0
        self.ecn_ce_acks = 0  # ACKs carrying an ECE echo
        self.total_acks = 0

        # -- timers/pacing --
        #: re-armed on every transmit and ACK; dropped by :meth:`stop`
        self._rto_timer: Optional[Timer] = Timer(self.loop, self._on_rto)
        self._pacing_blocked = False
        self._started = False
        self._stopped = False
        self.start_time = 0.0

        #: when set, the cwnd is frozen and driven externally (Sage's
        #: Execution block and the RL baselines use this).
        self.external_cwnd_control = False

        # -- finite flows (open-loop workloads) --
        #: total packets to send, or None for an unbounded flow
        self.size_pkts = size_pkts
        #: called with this sender once the final packet is cumulatively acked
        self.on_complete: Optional[Callable[["TcpSender"], None]] = None
        self.completed_at: Optional[float] = None

        self.cc.on_init(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, at: float = 0.0) -> None:
        """Begin transmitting at absolute simulation time ``at``."""
        if self._started:
            raise RuntimeError("sender already started")
        self._started = True

        def _go() -> None:
            self.start_time = self.loop.now
            self._delivered_time = self.loop.now
            self._try_send()

        if at <= self.loop.now:
            _go()
        else:
            self.loop.call_at(at, _go)

    def stop(self) -> None:
        """Stop transmitting and cancel timers."""
        self._stopped = True
        if self._rto_timer is not None:
            # Drop the timer too: it holds ``self._on_rto``, a cycle that
            # would leave every finished sender to the cyclic GC.
            self._rto_timer.cancel()
            self._rto_timer = None

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Packets actually in the network: sent minus lost minus SACKed.

        This is the kernel's ``pipe`` — declaring a packet lost or learning
        it was received out of order removes it from the pipe, otherwise a
        big drop burst would freeze the sender against its own window.
        """
        return max(len(self._unacked) - len(self._lost_set) - self._sacked_est, 0)

    @property
    def inflight_bytes(self) -> int:
        return self.inflight * MSS_BYTES

    def _can_send(self) -> bool:
        return (
            not self._stopped
            and not self._pacing_blocked
            # the ``inflight`` property, inlined: this runs once per send
            and max(len(self._unacked) - len(self._lost_set) - self._sacked_est, 0)
            < self.cwnd
            and (self.size_pkts is None or self.snd_nxt < self.size_pkts)
        )

    def _try_send(self) -> None:
        while self._can_send():
            self._transmit(self.snd_nxt, is_retx=False)
            self.snd_nxt += 1
            rate = self.cc.pacing_rate(self)
            if rate is not None and rate > 0:
                self._pacing_blocked = True
                gap = MSS_BYTES * 8.0 / rate
                self.loop.call_later(gap, self._pacing_done)
                break

    def _pacing_done(self) -> None:
        self._pacing_blocked = False
        self._try_send()

    def _transmit(self, seq: int, is_retx: bool) -> None:
        now = self.loop.now
        pkt = Packet(
            flow_id=self.flow_id,
            seq=seq,
            size=MSS_BYTES,
            sent_time=now,
            is_retx=is_retx,
        )
        pkt.ect = self.cc.ecn_capable
        self._unacked[seq] = (now, is_retx, self.delivered, self._delivered_time)
        self._lost_set.discard(seq)  # a retransmission re-enters the pipe
        self.sent_packets += 1
        if is_retx:
            self.retransmits += 1
        self.network.send_data(pkt)
        self._arm_rto()

    # ------------------------------------------------------------------
    # receiving ACKs
    # ------------------------------------------------------------------
    def on_ack(self, ack: Packet) -> None:
        """Network callback: an ACK returned from the receiver."""
        if self._stopped:
            return
        now = self.loop.now
        new_cum = ack.ack_seq
        if ack.sacked_seq > self._high_sacked:
            self._high_sacked = ack.sacked_seq

        # Exact per-packet RTT sample: every ACK echoes the send time of the
        # data packet that triggered it. Karn's algorithm: skip samples for
        # retransmitted packets.
        if not ack.is_retx and ack.ack_of_sent_time > 0:
            self._update_rtt(now - ack.ack_of_sent_time)

        if ack.ece:
            self.ecn_ce_acks += 1
            if not self.external_cwnd_control:
                self.cc.on_ecn_ack(self, now)
        self.total_acks += 1

        if new_cum > self.snd_una:
            self._process_cumulative_ack(new_cum, now)
        else:
            self._dup_acks += 1

        self._update_sacked_estimate(ack)
        self._sack_loss_detection(ack, now)
        self._try_send()
        if (
            self.size_pkts is not None
            and self.completed_at is None
            and self.snd_una >= self.size_pkts
        ):
            self.completed_at = now
            self.stop()
            if self.on_complete is not None:
                self.on_complete(self)

    def _update_sacked_estimate(self, ack: Packet) -> None:
        """Estimate how many packets above ``snd_una`` the receiver holds.

        Within ``[snd_una, high_sacked]`` every non-hole sequence has been
        received out of order; those packets are no longer in the network
        and must not count against the congestion window.
        """
        if self._high_sacked < self.snd_una:
            self._sacked_est = 0
            return
        # Only count SACKs inside the range the hole report actually covers.
        # The receiver's scan stops at 1024 sequences past its cumulative ack
        # or at 128 holes, whichever first — beyond that boundary we know
        # nothing, and assuming "received" there made the pipe estimate
        # collapse and the sender overrun the network.
        coverage_end = min(self._high_sacked, ack.ack_seq + 1024)
        if len(ack.sack_holes) >= 128:
            coverage_end = min(coverage_end, ack.sack_holes[-1])
        if coverage_end < self.snd_una:
            self._sacked_est = 0
            return
        span = coverage_end - self.snd_una + 1
        holes = ack.sack_holes  # ascending
        holes_in_span = bisect_right(holes, coverage_end) - bisect_left(
            holes, self.snd_una
        )
        self._sacked_est = max(span - holes_in_span, 0)

    def _process_cumulative_ack(self, new_cum: int, now: float) -> None:
        n_acked = 0
        newest_sent = -1.0  # most recent transmit time among non-retx acked
        newest_record = None
        newest_record_sent = -1.0
        for seq in range(self.snd_una, new_cum):
            rec = self._unacked.pop(seq, None)
            if rec is None:
                continue
            n_acked += 1
            self._lost_set.discard(seq)
            sent_time, is_retx, _, _ = rec
            if sent_time > newest_record_sent:
                newest_record_sent = sent_time
                newest_record = rec
            if not is_retx and sent_time > newest_sent:
                # Karn's algorithm: only never-retransmitted packets give RTT
                # samples, and only the most recently sent one — older packets
                # acked by the same cumulative jump sat behind a hole and
                # would inflate srtt with recovery time.
                newest_sent = sent_time

        # RTT is sampled per-ACK in on_ack; here we only report the freshest
        # cumulative sample to the CC hook (<= 0 means "no valid sample").
        best_sample = self.latest_rtt if newest_sent > 0 else -1.0
        self.snd_una = new_cum
        self._dup_acks = 0
        # Forward progress cancels any RTO exponential backoff (RFC 6298).
        if self.srtt > 0:
            rto = self.srtt + 4.0 * self.rttvar
            self.rto = RTO_MIN if rto < RTO_MIN else RTO_MAX if rto > RTO_MAX else rto

        if n_acked == 0:
            return

        self.delivered += n_acked
        self.delivered_bytes += n_acked * MSS_BYTES

        # Delivery-rate sample (kernel rate_sample): packets delivered since
        # the newest acked packet was sent, over the elapsed interval.
        if newest_record is not None:
            _, _, delivered_snap, delivered_t_snap = newest_record
            interval = now - delivered_t_snap
            if interval > 1e-9:
                rate = (self.delivered - delivered_snap) * MSS_BYTES * 8.0 / interval
                self.delivery_rate = rate
                if rate > self.max_delivery_rate:
                    self.max_delivery_rate = rate
        self._delivered_time = now

        if best_sample > 0:
            self._update_rtt(best_sample)

        if self.ca_state != CA_OPEN:
            if self.snd_una > self._recovery_point:
                # full ACK: recovery complete
                self.ca_state = CA_OPEN
                self._lost_set.clear()
                self._sacked_est = 0
            else:
                # partial ACK: retransmit the next hole (NewReno)
                self._mark_lost_and_retransmit(self.snd_una)

        if self.ca_state == CA_OPEN and not self.external_cwnd_control:
            self.cc.on_ack(self, n_acked, best_sample, now)
            cwnd = self.cwnd
            if cwnd < CongestionControl.MIN_CWND:
                cwnd = CongestionControl.MIN_CWND
            self.cwnd = self.max_cwnd if cwnd > self.max_cwnd else cwnd

        self._arm_rto()

    def _sack_loss_detection(self, ack: Packet, now: float) -> None:
        """Mark and repair holes the receiver reported (SACK scoreboard).

        A hole is declared lost once at least ``DUPACK_THRESHOLD`` packets
        above it have been received (the classic reordering guard). All lost
        holes are retransmitted in the same round, as a SACK-enabled kernel
        would, so a burst drop costs one recovery RTT instead of one RTT per
        hole.
        """
        reported = ack.sack_holes
        if not reported and self._dup_acks < DUPACK_THRESHOLD:
            return  # nothing reported missing: the common case
        # the reported holes (ascending) in [snd_una, high_sacked - 3]
        holes = reported[
            bisect_left(reported, self.snd_una):
            bisect_right(reported, self._high_sacked - DUPACK_THRESHOLD)
        ]
        if not holes and not (
            self._dup_acks >= DUPACK_THRESHOLD and self.ca_state == CA_OPEN
        ):
            return
        # A hole is repairable if never retransmitted, or if its last
        # retransmission is itself stale (presumed dropped as well) — without
        # the second clause a dropped retransmission deadlocks the connection
        # until an exponentially backed-off RTO.
        stale_after = max(2.0 * self.srtt, 4.0 * self.rttvar, 0.05)
        fresh = []
        for h in holes or [self.snd_una]:
            rec = self._unacked.get(h)
            if rec is None:
                continue
            if not rec[1] or (now - rec[0]) > stale_after:
                fresh.append(h)
        if not fresh:
            return
        if self.ca_state == CA_OPEN:
            self.ca_state = CA_RECOVERY
            self._recovery_point = self.snd_nxt - 1
            if not self.external_cwnd_control:
                self.cc.on_loss_event(self, now)
        # Mark every detected hole lost right away (it leaves the pipe), but
        # rate-limit actual repairs to a couple per ACK (PRR-style): a burst
        # of retransmissions would overflow the very queue that just dropped,
        # and every re-dropped retransmit stalls for a full RTO. Remaining
        # holes are re-reported by subsequent ACKs.
        for h in fresh:
            if h not in self._lost_set:
                self.lost += 1
                self.lost_bytes += MSS_BYTES
                self._lost_set.add(h)
        for h in fresh[:2]:
            self._transmit(h, is_retx=True)

    def _mark_lost_and_retransmit(self, seq: int) -> None:
        rec = self._unacked.get(seq)
        if rec is not None and rec[1]:
            # Already retransmitted once in this recovery; wait for RTO.
            return
        if seq not in self._lost_set:
            self.lost += 1
            self.lost_bytes += MSS_BYTES
        self._transmit(seq, is_retx=True)

    # ------------------------------------------------------------------
    # RTT / RTO
    # ------------------------------------------------------------------
    def _update_rtt(self, sample: float) -> None:
        self.latest_rtt = sample
        if sample < self.min_rtt:
            self.min_rtt = sample
        if self.srtt == 0.0:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        # clamped by comparisons rather than min()/max(): this runs twice
        # per ACK (same result, NaN included)
        rto = self.srtt + 4.0 * self.rttvar
        self.rto = RTO_MIN if rto < RTO_MIN else RTO_MAX if rto > RTO_MAX else rto

    def _arm_rto(self) -> None:
        if self._stopped:
            return
        if self._unacked:
            self._rto_timer.mod(self.loop.now + self.rto)
        else:
            self._rto_timer.cancel()

    def _on_rto(self) -> None:
        if self._stopped or not self._unacked:
            return
        self.ca_state = CA_LOSS
        self._recovery_point = self.snd_nxt - 1
        self._dup_acks = 0
        self.lost += 1
        self.lost_bytes += MSS_BYTES
        if not self.external_cwnd_control:
            self.cc.on_rto(self, self.loop.now)
            self.cwnd = max(self.cwnd, 1.0)
        self.rto = min(self.rto * 2.0, RTO_MAX)  # exponential backoff
        # Everything outstanding is presumed lost (kernel behaviour): it
        # leaves the pipe and becomes eligible for fast retransmission, so
        # recovery restarts from a clean scoreboard.
        for seq, rec in list(self._unacked.items()):
            self._lost_set.add(seq)
            if rec[1]:
                # allow the walk of partial ACKs to retransmit it again
                self._unacked[seq] = (rec[0], False, rec[2], rec[3])
        self._transmit(self.snd_una, is_retx=True)
        self._try_send()

    # ------------------------------------------------------------------
    # external cwnd control (Sage Execution block / RL baselines)
    # ------------------------------------------------------------------
    def set_cwnd(self, cwnd: float) -> None:
        """Directly set the congestion window (packets).

        Used by learned policies: the agent computes a cwnd ratio and the
        Execution block enforces it through this API (the repo's equivalent
        of the paper's TCP Pure socket option).
        """
        self.cwnd = min(max(cwnd, 1.0), self.max_cwnd)
        self._try_send()

    # -- GR-unit convenience views --------------------------------------
    @property
    def srtt_or_min(self) -> float:
        """srtt, falling back to min_rtt before the first sample."""
        if self.srtt > 0:
            return self.srtt
        return self.min_rtt if self.min_rtt != float("inf") else 0.0
