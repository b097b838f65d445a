"""Golden event traces: seeded rollouts pinned by digest.

The other bit-identity suites (the dumbbell facade in ``test_topo``, the
collector's serial-vs-parallel check) compare the simulator with itself, so a
reordering inside ``netsim.engine`` or ``tcp.socket`` would pass them all.
These digests were computed once and pinned; each covers

- the rollout's ``states``/``actions``/``rewards`` arrays,
- every flow's counters at stop: packets sent, retransmits, lost, drops,
- the ``(time, callback owner)`` sequence of every fired event.

The owner of a callback is the class it belongs to (``Link``, ``Topology``,
``TcpSender``...), so replacing a closure with a bound method or a
``functools.partial`` keeps the trace, while firing any callback at another
time, or two same-time callbacks in another order, changes it. Timer
callbacks (RTO, delayed ACK) are recorded where they run, so the trace does
not depend on how the event loop queues them.

If a change moves a digest on purpose, say why in the change description and
re-pin all of them from the same run.
"""

import functools
import hashlib
from dataclasses import replace

import numpy as np
import pytest

import repro.collector.environments as environments
import repro.tcp.flow as flow_module
from repro.collector.environments import EnvConfig
from repro.collector.rollout import collect_trajectory
from repro.netsim.engine import EventLoop
from repro.tcp.socket import TcpReceiver, TcpSender

SCHEMES = ("cubic", "vegas", "bbr2", "newreno")

_BASE = EnvConfig(env_id="golden", kind="flat", bw_mbps=12.0, min_rtt=0.03,
                  buffer_bdp=0.5, duration=3.0)

#: cell -> (environment, patches applied while the rollout runs). The step
#: drops to 60 kb/s, slower than one packet per RTO, so the RTO fires; the
#: delayed-ACK cell steps to 240 kb/s, where a lone segment waits out the
#: 40 ms delayed-ACK timer; the parking lot's 20% loss forces RTOs too.
CELLS = {
    "flat": (_BASE, {}),
    "step": (replace(_BASE, kind="step", step_m=0.005, step_at=1.5,
                     buffer_bdp=1.0), {}),
    "jitter": (_BASE, {"jitter": 0.004}),
    "competing_cubic": (
        replace(_BASE, n_competing_cubic=1, competitor_head_start=0.5), {}),
    "delayed_acks": (replace(_BASE, kind="step", step_m=0.02, step_at=1.5),
                     {"delayed_acks": True}),
    "lossy_parking_lot": (
        replace(_BASE, topology="parking_lot", n_segments=2,
                cross_per_segment=1, buffer_bdp=1.0),
        {"loss": 0.2}),
}

#: SHA-256 per (scheme, cell), pinned before the event loop's re-armable
#: timers replaced TCP's cancel-and-reschedule timers.
GOLDEN = {
    ("cubic", "competing_cubic"):
        "fff4af7a3fa33b536c554882562f45404f08ea3e60f75e9b1817cf6a6c89979d",
    ("cubic", "delayed_acks"):
        "6a293bc145670c0b9b4e2536a947161f676bd9bf14970b987d432eea01fcdf7f",
    ("cubic", "flat"):
        "eab12356b9398ec7ccf040d539c7e16b5b8b7f10a21bdc7068b2fb4a42bc18b3",
    ("cubic", "jitter"):
        "d86c03ed972dd26be9105a77eb6135a0a9d9fe41702a1d77d46aa13328654cd8",
    ("cubic", "lossy_parking_lot"):
        "b1b1acdfdebc80859d7256b3152a4e2551f4200f9d62d29218dd1eccf0248222",
    ("cubic", "step"):
        "802fd5a294a54f3f7d929cab35a226fc6976e270d185152995e3564ea9bb6b06",
    ("vegas", "competing_cubic"):
        "3f1d61a3a685b31db4d122a4fa0e1f9738a6f436ea52ed3bb2f6a6790fa0e8d6",
    ("vegas", "delayed_acks"):
        "f0193bc5eb84229b327df4b81036b080d0fd8c62ee6315d07a2944da8a22f374",
    ("vegas", "flat"):
        "274ca109665f951a5ec209f52bddd7d9778ecf607c51a2d6741a05da6b98dd26",
    ("vegas", "jitter"):
        "c719fb7f789efff81af301199d09b8903edb4e6ed7b85a400c2f8b7fd2605c5d",
    ("vegas", "lossy_parking_lot"):
        "b27e9a57eb9c7e625d00f99b390dcbc985c193e3ce7a24b0e08b13bd432efdf3",
    ("vegas", "step"):
        "0a54308783d2bdef036c9721a1c25fcc30239c4b4b3129c16870f1f51768f04c",
    ("bbr2", "competing_cubic"):
        "a3661522de0650709ad3285a67fa97f2f4adba627307e5f904c5ef21dd6eb2ae",
    ("bbr2", "delayed_acks"):
        "d9ebd0b77bde0188c461243d76dd64d1fa0bdac7ba28f789f21c881bc9593f64",
    ("bbr2", "flat"):
        "7af718731501057be7f2259c654c3249aec83fcce8f1b5fbc26ff095819fe751",
    ("bbr2", "jitter"):
        "f453dbc8e8d608812cfaa65e0be34e087653e7606a70385672452548b8da579c",
    ("bbr2", "lossy_parking_lot"):
        "9a9f0d784044a26e0ac0077a2f0e02fa8d518e0df5ed8d166f28667010f914dc",
    ("bbr2", "step"):
        "a62b0a53817bad4ca5ed7e9a7fe8c23ebef6aa60f69d98c38ca4c17f7d9a2c17",
    ("newreno", "competing_cubic"):
        "7d6ab7846884af38f47cf3808f966e61ac57f6e471860e1808bfce6a66a1dda4",
    ("newreno", "delayed_acks"):
        "6a1004e5694110b674a1f24173d64d30149afdd22df5e131413570763bf9bad7",
    ("newreno", "flat"):
        "00ebc6d970101211a9d2fa67452411c30e6072b0caa8f394cc4e249f7c26cd55",
    ("newreno", "jitter"):
        "c0c174f988f7ed076bbc80e7cbd396db97b82dffbd8151ea81c4726c6be932bd",
    ("newreno", "lossy_parking_lot"):
        "e87105a09bc2b9706c7e8ed7be5d4d758144ae0b572b9874ed65683cf5ef8ec9",
    ("newreno", "step"):
        "111f6d1059b6063590a8088a8e951de74d57d35d2f4e4efcb1711f4d6c73c106",
}


def _owner(callback) -> str:
    """The class a scheduled callback belongs to."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    bound_to = getattr(callback, "__self__", None)
    if bound_to is not None:
        return type(bound_to).__name__
    return callback.__qualname__.split(".")[0]


def _trace_digest(monkeypatch, scheme: str, cell: str) -> str:
    env, patches = CELLS[cell]
    events = []
    flows = []

    def recording(method, owner):
        def run(self):
            events.append(f"{self.network.loop.now!r}:{owner}")
            method(self)
        return run

    on_rto = recording(TcpSender._on_rto, "TcpSender")
    on_delack = recording(TcpReceiver._on_delack_timeout, "TcpReceiver")

    # every callback scheduled through the public call_at records its firing
    call_at = EventLoop.call_at

    def recording_call_at(self, when, callback):
        if getattr(callback, "__func__", None) in (on_rto, on_delack):
            return call_at(self, when, callback)  # records itself
        owner = _owner(callback)

        def fire():
            events.append(f"{self.now!r}:{owner}")
            callback()

        return call_at(self, when, fire)

    stop = TcpSender.stop

    def recording_stop(self):
        if not any(f[0] is self for f in flows):
            flows.append((self, (
                self.flow_id, self.sent_packets, self.retransmits, self.lost,
                self.network.dropped_by_flow[self.flow_id])))
        stop(self)

    monkeypatch.setattr(EventLoop, "call_at", recording_call_at)
    monkeypatch.setattr(TcpSender, "stop", recording_stop)
    monkeypatch.setattr(TcpSender, "_on_rto", on_rto)
    monkeypatch.setattr(TcpReceiver, "_on_delack_timeout", on_delack)
    if "jitter" in patches:
        monkeypatch.setattr(flow_module, "PathConfig", functools.partial(
            flow_module.PathConfig, jitter=patches["jitter"]))
    if "delayed_acks" in patches:
        monkeypatch.setattr(flow_module, "TcpReceiver", functools.partial(
            TcpReceiver, delayed_acks=patches["delayed_acks"]))
    if "loss" in patches:
        parking_lot = environments.parking_lot_topology

        def lossy_parking_lot(*args, **kwargs):
            topo = parking_lot(*args, **kwargs)
            for link in topo.links:
                link.loss = patches["loss"]
            return topo

        monkeypatch.setattr(environments, "parking_lot_topology",
                            lossy_parking_lot)

    result = collect_trajectory(env, scheme)
    monkeypatch.undo()

    h = hashlib.sha256()
    for arr in (result.states, result.actions, result.rewards):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(repr(sorted(counters for _, counters in flows)).encode())
    h.update(";".join(events).encode())
    return h.hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_golden_trace(monkeypatch, scheme, cell):
    assert _trace_digest(monkeypatch, scheme, cell) == GOLDEN[(scheme, cell)]
