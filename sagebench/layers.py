"""Which public calls of ``repro`` the traced run wraps, and what it reports.

:func:`install` points every probe at one :class:`~tracing.Tracer`;
:func:`layer_metrics` turns the trace, plus the few counts a workload reads
off its own results (packets delivered, bytes written, trainer phase
seconds, flow outcomes), into the ``per_layer`` metrics of
``BENCHMARK.json``. The layer prefix of each metric is the ``repro``
package it measures.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from tracing import Patches, Tracer

#: (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER: List[Tuple[str, str]] = [
    ("netsim.events_scheduled", "count"),
    ("netsim.events_cancelled", "count"),
    ("netsim.useful_event_ratio", "ratio"),
    ("netsim.events_per_pkt", "events/pkt"),
    ("netsim.run_until_self_s", "s"),
    ("netsim.link_send_s", "s"),
    ("netsim.link_sends", "count"),
    ("netsim.drops", "count"),
    ("netsim.ecn_marks", "count"),
    ("tcp.on_ack_self_s", "s"),
    ("tcp.on_ack_calls", "count"),
    ("tcp.on_data_self_s", "s"),
    ("tcp.on_data_calls", "count"),
    ("tcp.retransmits", "count"),
    ("collector.gr_tick_s", "s"),
    ("collector.gr_ticks", "count"),
    ("collector.rollout_s_p50", "s"),
    ("collector.rollout_s_max", "s"),
    ("collector.rollouts", "count"),
    ("collector.rollouts_failed", "count"),
    ("datastore.write_s", "s"),
    ("datastore.bytes_written", "bytes"),
    ("datastore.write_mb_per_s", "MB/s"),
    ("datastore.verify_s", "s"),
    ("datastore.sample_s", "s"),
    ("datastore.windows_sampled", "count"),
    ("datastore.shard_cache_hit_ratio", "ratio"),
    ("train.sample_s", "s"),
    ("train.targets_s", "s"),
    ("train.critic_s", "s"),
    ("train.filter_s", "s"),
    ("train.policy_s", "s"),
    ("train.update_s", "s"),
    ("train.sampler_wait_s", "s"),
    ("nn.policy_forward_s", "s"),
    ("nn.policy_forward_calls", "count"),
    ("nn.forward_rows_mean", "rows"),
    ("serve.submit_s", "s"),
    ("serve.tick_self_s", "s"),
    ("serve.batch_size_mean", "flows"),
    ("serve.connect_s", "s"),
    ("serve.close_s", "s"),
    ("serve.connects", "count"),
    ("serve.decisions.policy", "count"),
    ("serve.decisions.symbolic", "count"),
    ("serve.symbolic_hit_rate", "ratio"),
    ("distill.predict_s", "s"),
    ("distill.predict_calls", "count"),
    ("workload.schedule_s", "s"),
    ("workload.flows_started", "count"),
    ("workload.flows_completed", "count"),
    ("workload.flows_abandoned", "count"),
    ("workload.peak_concurrent", "flows"),
    ("trace.overhead_s", "s"),
]

#: per-layer counts that must repeat exactly for a given workload and seed
DETERMINISTIC = (
    "netsim.events_scheduled", "netsim.events_cancelled", "netsim.link_sends",
    "netsim.drops", "netsim.ecn_marks", "tcp.on_ack_calls", "tcp.on_data_calls",
    "tcp.retransmits", "collector.gr_ticks", "collector.rollouts",
    "datastore.bytes_written", "datastore.windows_sampled",
    "nn.policy_forward_calls", "serve.connects", "serve.decisions.policy",
    "serve.decisions.symbolic", "distill.predict_calls",
    "workload.flows_started", "workload.flows_completed",
    "workload.flows_abandoned", "workload.peak_concurrent",
)


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap each layer's public calls; ``patches.restore()`` undoes it."""
    import repro.collector.parallel as collector_parallel
    import repro.datastore.manifest as ds_manifest
    import repro.serve.harness as serve_harness
    from repro.collector.gr_unit import GRUnit
    from repro.core.networks import FastPolicy
    from repro.datastore.reader import ShardedPool
    from repro.datastore.writer import ShardWriter
    from repro.distill.model import DistilledPolicy
    from repro.netsim.engine import EventHandle, EventLoop
    from repro.netsim.topo import TopoLink
    from repro.serve.engine import PolicyServer
    from repro.tcp.socket import TcpReceiver, TcpSender
    from repro.train.engine import FastCRRTrainer
    from repro.train.sampler import SequenceSampler

    count = tracer.count
    span, agg = tracer.wrap_span, tracer.wrap_aggregate

    # -- event loop: scheduled / fired / cancelled ----------------------
    def wrap_call_at(call_at):
        def call_at_counted(self, when, callback):
            def fire():
                count("netsim.events_fired")
                callback()

            count("netsim.events_scheduled")
            return call_at(self, when, fire)

        return call_at_counted

    def wrap_cancel(cancel):
        def cancel_counted(self):
            if not self.cancelled:
                count("netsim.events_cancelled")
            cancel(self)

        return cancel_counted

    def wrap_stop(stop):
        def stop_counted(self):
            # called once per sender: at completion, abandonment or rollout end
            count("tcp.retransmits", self.retransmits)
            stop(self)

        return stop_counted

    def on_send(args, ok):
        if ok is False:
            count("netsim.drops")

    def on_forward_batch(args, result):
        count("nn.rows", len(args[1]))

    def on_forward_one(args, result):
        count("nn.rows", 1)

    def on_tick(args, decisions):
        if decisions:
            count("serve.busy_ticks")
            for d in decisions.values():
                count("serve.decisions." + d.source)

    def on_sample(args, batch):
        count("datastore.windows_sampled", len(batch["actions"]))

    patches.wrap(EventLoop, "call_at", wrap_call_at)
    patches.wrap(EventHandle, "cancel", wrap_cancel)
    patches.wrap(TcpSender, "stop", wrap_stop)
    patches.wrap(EventLoop, "run_until", lambda f: agg("netsim.run_until", f))
    patches.wrap(TopoLink, "send", lambda f: agg("netsim.link_send", f, on_send))
    patches.wrap(TcpSender, "on_ack", lambda f: agg("tcp.on_ack", f))
    patches.wrap(TcpReceiver, "on_data", lambda f: agg("tcp.on_data", f))
    patches.wrap(GRUnit, "tick", lambda f: agg("collector.gr_tick", f))
    patches.wrap(collector_parallel, "collect_trajectory",
                 lambda f: span("collector.rollout", f))
    patches.wrap(ShardWriter, "flush", lambda f: agg("datastore.write", f))
    patches.wrap(ds_manifest, "verify_store",
                 lambda f: span("datastore.verify", f))
    patches.wrap(ShardedPool, "sample_sequences",
                 lambda f: agg("datastore.sample", f, on_sample))
    patches.wrap(SequenceSampler, "next_batch",
                 lambda f: agg("train.sampler_wait", f))
    patches.wrap(FastCRRTrainer, "train_step", lambda f: span("train.step", f))
    patches.wrap(FastPolicy, "step_batch",
                 lambda f: span("nn.forward", f, on_forward_batch))
    patches.wrap(FastPolicy, "step", lambda f: span("nn.forward", f, on_forward_one))
    patches.wrap(DistilledPolicy, "predict", lambda f: span("distill.predict", f))
    patches.wrap(PolicyServer, "tick", lambda f: span("serve.tick", f, on_tick))
    patches.wrap(PolicyServer, "submit", lambda f: agg("serve.submit", f))
    patches.wrap(PolicyServer, "connect", lambda f: span("serve.connect", f))
    patches.wrap(PolicyServer, "close", lambda f: span("serve.close", f))
    patches.wrap(serve_harness, "generate_schedule",
                 lambda f: agg("workload.schedule", f))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, stats: Dict[str, float],
                  overhead_s: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric, from the trace plus workload ``stats``.

    ``stats`` keys: ``sim_pkts``, ``ecn_marks``, ``rollouts_failed``,
    ``bytes_written``, ``cache_hits``, ``cache_misses``, ``phase.<name>``
    (trainer phase seconds spent in the traced pass) and ``flows_started``,
    ``flows_completed``, ``flows_abandoned``, ``peak_concurrent``.
    Absent keys read as 0: the layer was not exercised.
    """
    c = tracer.counters
    s = lambda key: float(stats.get(key, 0))  # noqa: E731
    n_sched = c.get("netsim.events_scheduled", 0)
    run_until = tracer.totals("netsim.run_until")
    link = tracer.totals("netsim.link_send")
    on_ack = tracer.totals("tcp.on_ack")
    on_data = tracer.totals("tcp.on_data")
    gr = tracer.totals("collector.gr_tick")
    rollouts = tracer.durations("collector.rollout")
    write = tracer.totals("datastore.write")
    sample = tracer.totals("datastore.sample")
    forward = tracer.totals("nn.forward")
    tick = tracer.totals("serve.tick")
    predict = tracer.totals("distill.predict")
    policy_n = c.get("serve.decisions.policy", 0)
    symbolic_n = c.get("serve.decisions.symbolic", 0)
    served = sum(v for k, v in c.items() if k.startswith("serve.decisions."))
    out = {
        "netsim.events_scheduled": n_sched,
        "netsim.events_cancelled": c.get("netsim.events_cancelled", 0),
        "netsim.useful_event_ratio": _ratio(c.get("netsim.events_fired", 0), n_sched),
        "netsim.events_per_pkt": _ratio(n_sched, s("sim_pkts")),
        "netsim.run_until_self_s": run_until[2],
        "netsim.link_send_s": link[1],
        "netsim.link_sends": link[0],
        "netsim.drops": c.get("netsim.drops", 0),
        "netsim.ecn_marks": s("ecn_marks"),
        "tcp.on_ack_self_s": on_ack[2],
        "tcp.on_ack_calls": on_ack[0],
        "tcp.on_data_self_s": on_data[2],
        "tcp.on_data_calls": on_data[0],
        "tcp.retransmits": c.get("tcp.retransmits", 0),
        "collector.gr_tick_s": gr[1],
        "collector.gr_ticks": gr[0],
        "collector.rollout_s_p50": statistics.median(rollouts) if rollouts else 0.0,
        "collector.rollout_s_max": max(rollouts, default=0.0),
        "collector.rollouts": len(rollouts),
        "collector.rollouts_failed": s("rollouts_failed"),
        "datastore.write_s": write[1],
        "datastore.bytes_written": s("bytes_written"),
        "datastore.write_mb_per_s": _ratio(s("bytes_written") / 1e6, write[1]),
        "datastore.verify_s": tracer.totals("datastore.verify")[1],
        "datastore.sample_s": sample[1],
        "datastore.windows_sampled": c.get("datastore.windows_sampled", 0),
        "datastore.shard_cache_hit_ratio": _ratio(
            s("cache_hits"), s("cache_hits") + s("cache_misses")
        ),
        "train.sample_s": s("phase.sample"),
        "train.targets_s": s("phase.targets"),
        "train.critic_s": s("phase.critic"),
        "train.filter_s": s("phase.filter"),
        "train.policy_s": s("phase.policy"),
        "train.update_s": s("phase.update"),
        "train.sampler_wait_s": tracer.totals("train.sampler_wait")[1],
        "nn.policy_forward_s": forward[1],
        "nn.policy_forward_calls": forward[0],
        "nn.forward_rows_mean": _ratio(c.get("nn.rows", 0), forward[0]),
        "serve.submit_s": tracer.totals("serve.submit")[1],
        "serve.tick_self_s": tick[2],
        "serve.batch_size_mean": _ratio(served, c.get("serve.busy_ticks", 0)),
        "serve.connect_s": tracer.totals("serve.connect")[1],
        "serve.close_s": tracer.totals("serve.close")[1],
        "serve.connects": tracer.totals("serve.connect")[0],
        "serve.decisions.policy": policy_n,
        "serve.decisions.symbolic": symbolic_n,
        "serve.symbolic_hit_rate": _ratio(symbolic_n, served),
        "distill.predict_s": predict[1],
        "distill.predict_calls": predict[0],
        "workload.schedule_s": tracer.totals("workload.schedule")[1],
        "workload.flows_started": s("flows_started"),
        "workload.flows_completed": s("flows_completed"),
        "workload.flows_abandoned": s("flows_abandoned"),
        "workload.peak_concurrent": s("peak_concurrent"),
        "trace.overhead_s": overhead_s,
    }
    missing = {name for name, _ in PER_LAYER} ^ set(out)
    if missing:
        raise KeyError(f"per-layer metrics out of step with PER_LAYER: {missing}")
    return out
