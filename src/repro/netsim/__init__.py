"""Discrete-event single-bottleneck network emulator.

This package is the repo's substitute for the (improved) Mahimahi emulator
used by the paper: a dumbbell network with one bottleneck link whose capacity
may be constant (*flat* scenarios), change once (*step* scenarios), or follow
a trace (*cellular* scenarios), a finite buffer managed by a pluggable AQM,
and symmetric propagation delay setting the minimum RTT.

The public surface:

- :class:`~repro.netsim.engine.EventLoop` — the simulation clock, and
  :class:`~repro.netsim.engine.Timer`, its re-armable one-shot timer.
- :class:`~repro.netsim.packet.Packet` — what flows through the network.
- :class:`~repro.netsim.link.Link` — the bottleneck: queue + service process.
- :mod:`~repro.netsim.aqm` — TailDrop, HeadDrop, CoDel, PIE, BoDe, plus the
  intelligent queues: FQCoDel and LearnedECN (with
  :mod:`~repro.netsim.ecn_model` holding the marking predictor and
  :mod:`~repro.netsim.telemetry` the queue-trace recorder that trains it).
- :mod:`~repro.netsim.traces` — capacity processes (flat, step, cellular,
  Internet-path).
- :class:`~repro.netsim.network.Network` — wires senders, the bottleneck,
  and receivers together.
- :mod:`~repro.netsim.topo` — the graph engine underneath: multi-node
  topologies (parking lot, incast, proxy split) with per-link rate, delay,
  loss, and AQM; ``Network`` is its dumbbell facade.
"""

from repro.netsim.engine import EventLoop, Timer
from repro.netsim.packet import Packet, MSS_BYTES
from repro.netsim.link import Link
from repro.netsim.network import Network, PathConfig, make_network
from repro.netsim.aqm import (
    AQM,
    ECN_CAPABLE_AQMS,
    TailDrop,
    HeadDrop,
    CoDel,
    PIE,
    BoDe,
    FQCoDel,
    LearnedECN,
    aqm_names,
    make_aqm,
)
from repro.netsim.ecn_model import EcnPredictor
from repro.netsim.telemetry import QueueTelemetryRecorder
from repro.netsim.traces import (
    RateProcess,
    FlatRate,
    StepRate,
    TraceRate,
    cellular_trace,
    internet_path_rate,
)
from repro.netsim.topo import (
    TOPOLOGY_CLASSES,
    FlowPath,
    Node,
    PathView,
    TopoLink,
    Topology,
    describe_topology,
    dumbbell_topology,
    incast_topology,
    make_topology,
    parking_lot_topology,
    proxy_split_topology,
)

__all__ = [
    "EventLoop",
    "Timer",
    "Packet",
    "MSS_BYTES",
    "Link",
    "Network",
    "PathConfig",
    "make_network",
    "AQM",
    "TailDrop",
    "HeadDrop",
    "CoDel",
    "PIE",
    "BoDe",
    "FQCoDel",
    "LearnedECN",
    "ECN_CAPABLE_AQMS",
    "EcnPredictor",
    "QueueTelemetryRecorder",
    "aqm_names",
    "make_aqm",
    "RateProcess",
    "FlatRate",
    "StepRate",
    "TraceRate",
    "cellular_trace",
    "internet_path_rate",
    "TOPOLOGY_CLASSES",
    "FlowPath",
    "Node",
    "PathView",
    "TopoLink",
    "Topology",
    "describe_topology",
    "dumbbell_topology",
    "incast_topology",
    "make_topology",
    "parking_lot_topology",
    "proxy_split_topology",
]
