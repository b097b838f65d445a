"""The four workloads: collect, train, serve_ticks and serve_open.

Each workload builds its inputs from the seed in :meth:`setup` and then
runs *units* of work in :meth:`run`: a collection round, a train step, a
server tick, an open-loop traffic episode. Units are deterministic for a
given ``(seed, unit index)``, so the first ``digest_units`` of them give an
output digest that must repeat run to run, traced or not. An untraced run
keeps going past them until its time is up; a traced run stops there.

The timed end-to-end metric every workload reports (see ``END_TO_END`` in
``run.py``) is ``step_ms_p90``, the 90th percentile wall time of one step of
the workload's loop: one simulated 20 ms control interval of a rollout
(collect), one ``train_step`` (train), one server tick from its first
``submit`` to the return of ``tick()`` (serve_ticks), one 20 ms control
interval of the served network with at least one live flow, simulation
included (serve_open).

Each workload also reports figures: ``decisions_per_s`` (20 ms control
decisions recorded, trained on or served per wall second), simulated
packets per second, train steps per second, the flow ceiling under the
20 ms control interval, flow completion times, step p50 and p99.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: the paper's control interval; serving ticks slower than this miss it
TICK_LIMIT_S = 0.020

#: the seed of serve_ticks' random-init policy and of the episode serve_open
#: distils on: the traffic varies with the run's seed, the model does not
POLICY_SEED = 0

clock = time.perf_counter
#: CPU time of the calling thread: excludes time the host had it descheduled
cpu_clock = time.thread_time


@dataclass
class Measured:
    """What one :meth:`run` of a workload produced."""

    units: int = 0
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    #: end-to-end metric values by name
    metrics: Dict[str, float] = field(default_factory=dict)
    #: workload-specific figures (name -> value), reported beside the metrics
    figures: Dict[str, Any] = field(default_factory=dict)
    digest: str = ""
    #: counts the per-layer report needs that only the workload can see
    stats: Dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> bool:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)


def percentile_ms(seconds: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q) * 1e3) if seconds else 0.0


def _unit_span(tracer, unit: int):
    return tracer.span("bench.unit", request=unit) if tracer else nullcontext()


class Pace:
    """When a workload's unit loop stops, and what runs between its units.

    The loop runs at least ``min_units`` and at most ``max_units`` units,
    and past ``min_units`` only until ``deadline``. ``between`` holds
    ``(due time, callable)`` pairs, each called once at the first unit
    boundary after its due time, outside any unit's timing.
    """

    def __init__(self, min_units: int, max_units: Optional[int] = None,
                 deadline: Optional[float] = None,
                 between: Optional[List[Tuple[float, Any]]] = None) -> None:
        self.min_units = min_units
        self.max_units = max_units
        self.deadline = deadline
        self._between = sorted(between or [], key=lambda item: item[0])

    def poll(self) -> None:
        """Run what is due between units."""
        while self._between and clock() >= self._between[0][0]:
            self._between.pop(0)[1]()

    def more(self, unit: int, deadline: Optional[float] = None) -> bool:
        """Whether to run unit number ``unit`` (``deadline`` overrides)."""
        self.poll()
        if self.max_units is not None and unit >= self.max_units:
            return False
        if unit < self.min_units:
            return True
        deadline = self.deadline if deadline is None else deadline
        return deadline is not None and clock() < deadline

    def finish(self) -> None:
        """Run whatever is still due between units."""
        while self._between:
            self._between.pop(0)[1]()


class Workload:
    """Inputs built from a seed by :meth:`setup`, work done by :meth:`run`."""

    name = ""
    #: attributes :meth:`setup` builds and :meth:`close` drops
    built: Tuple[str, ...] = ()

    def __init__(self, cfg, seed: int, workdir: Path) -> None:
        self.cfg, self.seed, self.workdir = cfg, seed, Path(workdir)
        for attr in self.built:
            setattr(self, attr, None)

    def close(self) -> None:
        """Release what :meth:`setup` built; a later setup builds it again."""
        for attr in self.built:
            setattr(self, attr, None)
        shutil.rmtree(self.workdir, ignore_errors=True)


def _jitter(rng: np.random.Generator, value: float, share: float) -> float:
    return float(value * rng.uniform(1.0 - share, 1.0 + share))


# ---------------------------------------------------------------------------
# collect
# ---------------------------------------------------------------------------

#: pinned Set-I / Set-II dumbbell cells: (kind, Mbps, min RTT s, buffer BDP,
#: step multiplier, competing Cubic flows). Rounds walk this list in order.
#: Every cell averages about 48 Mbps (the step goes 32 -> 64), so rounds cost
#: about the same, and one pass of the grid fits in half a run.
COLLECT_GRID: Tuple[Tuple[str, float, float, float, float, int], ...] = (
    ("flat", 48.0, 0.04, 2.0, 1.0, 0),
    ("step", 32.0, 0.04, 2.0, 2.0, 0),
    ("flat", 48.0, 0.01, 0.5, 1.0, 0),
    ("flat", 48.0, 0.02, 1.0, 1.0, 1),
)


@dataclass(frozen=True)
class CollectConfig:
    schemes: Tuple[str, ...] = ("cubic", "vegas", "bbr2")
    duration: float = 10.0  # simulated seconds per rollout
    grid: Tuple[Tuple[str, float, float, float, float, int], ...] = COLLECT_GRID
    jitter: float = 0.05  # seeded +-share on bandwidth, RTT and buffer
    warmup_duration: float = 1.0
    digest_units: int = 2  # rounds (one grid cell x every scheme each)


class Collect(Workload):
    """Policy Collector rollouts streamed into a sharded store, then verified."""

    name = "collect"
    built = ("envs",)

    def setup(self) -> None:
        from repro.collector.environments import EnvConfig
        from repro.collector.rollout import collect_trajectory

        cfg = self.cfg
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        rng = np.random.default_rng(self.seed)
        self.envs = []
        for i, (kind, bw, rtt, buf, step_m, n_cubic) in enumerate(cfg.grid):
            bw = _jitter(rng, bw, cfg.jitter)
            rtt = _jitter(rng, rtt, cfg.jitter)
            buf = _jitter(rng, buf, cfg.jitter)
            self.envs.append(EnvConfig(
                env_id=f"bench{i}-{kind}-bw{bw:.3f}-rtt{rtt * 1e3:.3f}-q{buf:.3f}",
                kind=kind, bw_mbps=bw, min_rtt=rtt, buffer_bdp=buf,
                step_m=step_m, step_at=cfg.duration / 2.0 if kind == "step" else 0.0,
                n_competing_cubic=n_cubic, duration=cfg.duration,
            ))
        # warm the rollout path (imports, allocator) before anything is timed
        collect_trajectory(
            replace(self.envs[0], duration=cfg.warmup_duration, step_at=0.0),
            cfg.schemes[0],
        )

    def run(self, pace: Pace, tracer=None) -> Measured:
        import repro.datastore.manifest as ds_manifest
        from repro.collector.gr_unit import GRUnit
        from repro.collector.parallel import collect_pool_to_store
        from repro.collector.rollout import TICK
        from repro.datastore.reader import ShardedPool
        from repro.datastore.writer import ShardWriter
        from repro.netsim.packet import MSS_BYTES

        cfg, out = self.cfg, Measured()
        expected_ticks = int(round(cfg.duration / TICK))
        digest = hashlib.sha256()
        pkts = 0
        wall = 0.0
        # per grid cell: [rounds, decisions recorded, wall seconds]
        cells = [[0, 0, 0.0] for _ in self.envs]
        cell_intervals: List[List[float]] = [[] for _ in self.envs]
        last = [None, 0.0]  # GR unit of the previous tick, its time

        # Each GRUnit.tick closes one simulated 20 ms interval of its
        # rollout; the time between two ticks of one unit is that interval's
        # wall time (simulation + GR sampling + reward). The probe is in
        # place only while a round collects.
        original_tick = GRUnit.__dict__["tick"]

        def timed_tick(gr, *args, **kwargs):
            now = clock()
            if last[0] is gr:
                cell_intervals[unit % len(cells)].append(now - last[1])
            last[0], last[1] = gr, now
            return original_tick(gr, *args, **kwargs)

        unit = 0
        while pace.more(unit):
            env = self.envs[unit % len(self.envs)]
            root = self.workdir / f"round{unit}"
            rollouts: List[Tuple[int, bool, int, int]] = []
            reports: List = []
            writer = ShardWriter(root)
            add_rollout = writer.add_rollout

            def record(rollout, add_rollout=add_rollout, rollouts=rollouts):
                flows = [rollout.stats] + list(rollout.competitor_stats)
                delivered = sum(
                    round(s.avg_throughput_bps * s.duration / 8.0 / MSS_BYTES)
                    for s in flows
                )
                finite = all(
                    np.isfinite(a).all()
                    for a in (rollout.states, rollout.actions, rollout.rewards)
                )
                rollouts.append((rollout.length, finite, delivered,
                                 rollout.ecn_marks))
                add_rollout(rollout)

            writer.add_rollout = record
            with _unit_span(tracer, unit):
                GRUnit.tick = timed_tick
                t0 = clock()
                try:
                    collect_pool_to_store(
                        [env], cfg.schemes, writer, workers=1,
                        base_seed=self.seed, strict=False,
                        report_sink=reports.append,
                    )
                finally:
                    GRUnit.tick = original_tick
                    writer.close()
                report = ds_manifest.verify_store(root)
                round_s = clock() - t0
            wall += round_s
            n_failed = sum(len(r.failures) for r in reports)
            attempted = len(cfg.schemes) + 1  # rollouts + the store audit
            ok = all([
                out.check("rollouts_succeeded", n_failed == 0),
                out.check("store_verifies_clean",
                          report.clean and not report.tmp_orphans),
                out.check("tick_counts",
                          len(rollouts) == len(cfg.schemes) and all(
                              r[0] == expected_ticks for r in rollouts)),
                out.check("arrays_finite", all(r[1] for r in rollouts)),
            ])
            out.attempted += attempted
            out.failed += 0 if ok else attempted
            out.stats["rollouts_failed"] = out.stats.get("rollouts_failed", 0) + n_failed
            out.stats["ecn_marks"] = out.stats.get("ecn_marks", 0) + sum(r[3] for r in rollouts)
            out.stats["bytes_written"] = out.stats.get("bytes_written", 0) + sum(
                p.stat().st_size for p in root.glob("*.npy")
            )
            cell = cells[unit % len(self.envs)]
            cell[0] += 1
            cell[1] += sum(r[0] for r in rollouts)
            cell[2] += round_s
            pkts += sum(r[2] for r in rollouts)
            if unit < cfg.digest_units:
                for traj in ShardedPool.open(root).iter_trajectories():
                    digest.update(f"{traj.scheme}|{traj.env_id}|".encode())
                    for arr in (traj.states, traj.actions, traj.rewards):
                        digest.update(np.ascontiguousarray(arr).tobytes())
            shutil.rmtree(root)
            unit += 1

        out.units = unit
        out.digest = digest.hexdigest()
        out.stats["sim_pkts"] = pkts
        # one pass of the grid: each cell weighted once, however many times
        # the run got to it
        seen = [i for i, c in enumerate(cells) if c[0]]
        intervals = [t for i in seen for t in cell_intervals[i]]
        out.metrics = {
            "step_ms_p90": float(np.mean(
                [percentile_ms(cell_intervals[i], 90) for i in seen])),
        }
        out.figures = {
            "decisions_per_s": sum(cells[i][1] / cells[i][0] for i in seen) / sum(
                cells[i][2] / cells[i][0] for i in seen),
            "step_ms_p50": percentile_ms(intervals, 50),
            "step_ms_p99": percentile_ms(intervals, 99),
            "sim_pkts_per_s": pkts / wall,
            "sim_pkts": pkts,
            "rollouts": unit * len(cfg.schemes),
            "rollout_s_mean": wall / max(unit * len(cfg.schemes), 1),
            "control_intervals_timed": len(intervals),
        }
        return out


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    n_trajectories: int = 96
    #: trajectory lengths, in 20 ms ticks: 10-12 s rollouts
    min_length: int = 500
    max_length: int = 620
    #: ~4 trajectories per shard: ~24 shards, three times the 8 the
    #: ShardedPool keeps open, so sampling keeps re-mapping shards
    shard_bytes: int = 1 << 20
    warmup_steps: int = 2
    digest_units: int = 100  # train steps


class Train(Workload):
    """FastCRRTrainer at the CLI defaults over an out-of-core sharded store."""

    name = "train"
    built = ("trainer", "pool")

    def _trajectories(self):
        from repro.collector.gr_unit import STATE_DIM
        from repro.collector.pool import Trajectory

        rng = np.random.default_rng(self.seed)
        for i in range(self.cfg.n_trajectories):
            n = int(rng.integers(self.cfg.min_length, self.cfg.max_length + 1))
            # AR(1) log-features: slowly varying, strictly positive signals
            noise = rng.standard_normal((n, STATE_DIM)) * 0.1
            x = np.empty_like(noise)
            x[0] = rng.standard_normal(STATE_DIM)
            for t in range(1, n):
                x[t] = 0.95 * x[t - 1] + noise[t]
            states = np.exp(x) * rng.uniform(0.5, 50.0, STATE_DIM)
            actions = np.exp(np.clip(rng.normal(0.0, 0.3, n), -np.log(3.0), np.log(3.0)))
            rewards = rng.uniform(0.0, 1.0, n)
            yield Trajectory("bench", f"bench-{i}", bool(i % 2), states, actions, rewards)

    def setup(self) -> None:
        from repro.datastore.reader import ShardedPool
        from repro.datastore.writer import ShardWriter
        from repro.train.engine import FastCRRTrainer

        self.close()
        store = self.workdir / "store"
        with ShardWriter(store, shard_bytes=self.cfg.shard_bytes) as writer:
            for traj in self._trajectories():
                writer.add(traj)
        self.pool = ShardedPool.open(store)
        self.trainer = FastCRRTrainer(self.pool, seed=self.seed, prefetch=0)
        for _ in range(self.cfg.warmup_steps):
            self.trainer.train_step()

    def run(self, pace: Pace, tracer=None) -> Measured:
        trainer, out = self.trainer, Measured()
        cache = self.pool.cache
        hits0, misses0 = cache.hits, cache.misses
        phases0 = dict(trainer.phase_seconds)
        steps: List[float] = []
        losses: List[float] = []
        digest = hashlib.sha256()
        unit = 0
        while pace.more(unit):
            with _unit_span(tracer, unit):
                t0 = clock()
                m = trainer.train_step()
                steps.append(clock() - t0)
            values = (m["critic_loss"], m["policy_loss"], m["mean_f"])
            finite = all(math.isfinite(v) for v in values)
            out.check("losses_finite", finite)
            out.attempted += 1
            out.failed += 0 if finite else 1
            unit += 1
            if unit <= self.cfg.digest_units:
                losses.extend(values)
                if unit == self.cfg.digest_units:
                    digest.update(np.asarray(losses).tobytes())
                    for net in (trainer.policy, trainer.critic):
                        for name, param in net.named_parameters():
                            digest.update(name.encode())
                            digest.update(np.ascontiguousarray(param.data).tobytes())
        out.units = unit
        out.digest = digest.hexdigest()
        cfg = trainer.cfg
        busy = sum(steps)
        out.metrics = {"step_ms_p90": percentile_ms(steps, 90)}
        out.stats.update({
            "cache_hits": cache.hits - hits0,
            "cache_misses": cache.misses - misses0,
        })
        for name, total in trainer.phase_seconds.items():
            out.stats[f"phase.{name}"] = total - phases0[name]
        out.figures = {
            "decisions_per_s": unit * cfg.batch_size * cfg.seq_len / busy,
            "step_ms_p50": percentile_ms(steps, 50),
            "step_ms_p99": percentile_ms(steps, 99),
            "train_steps_per_s": unit / busy,
            "steps": unit,
            "batch_size": cfg.batch_size,
            "seq_len": cfg.seq_len,
            "shards": len(self.pool.manifest.shards),
            "max_open_shards": cache.max_open,
            "shard_cache_hit_ratio": (cache.hits - hits0) / max(
                cache.hits - hits0 + cache.misses - misses0, 1),
        }
        return out

    def close(self) -> None:
        if self.trainer is not None:
            self.trainer.close()
        super().close()


# ---------------------------------------------------------------------------
# serve_ticks
# ---------------------------------------------------------------------------

def _policy():
    from repro.core.networks import NetworkConfig, SagePolicy

    return SagePolicy(NetworkConfig(), np.random.default_rng(POLICY_SEED))


def _pretrained_policy():
    """The shipped checkpoint: a trained controller, so served flows behave
    like real ones (an untrained policy pins every cwnd near its floor)."""
    import json

    from repro.core.agent import SageAgent
    from repro.core.networks import NetworkConfig

    root = Path(__file__).resolve().parents[1] / "models"
    meta = json.loads((root / "sage_pretrained.json").read_text())
    net = NetworkConfig(**{k: meta[k] for k in
                           ("enc_dim", "gru_dim", "n_components", "n_atoms")})
    return SageAgent.load(root / "sage_pretrained.npz", net_config=net).policy


@dataclass(frozen=True)
class ServeTicksConfig:
    n_flows: int = 128
    stream_ticks: int = 64  # distinct state frames, replayed cyclically
    stream_flows: int = 1024  # distinct per-flow state columns
    ref_flows: int = 8  # flows checked against single-flow FastPolicy.step
    ref_ticks: int = 200
    #: the flow-ceiling search: N = start, start + step, ... until the p99
    #: tick passes TICK_LIMIT_S
    ceiling_start: int = 256
    ceiling_step: int = 128
    ceiling_max: int = 2048
    ceiling_min_ticks: int = 100
    #: share of the run's seconds spent at the fixed N (the rest searches)
    fixed_share: float = 0.8
    digest_units: int = 600  # ticks at the fixed N


class ServeTicks(Workload):
    """Closed loop: one driver submits every flow's state, then ticks."""

    name = "serve_ticks"
    built = ("policy", "stream", "server")

    def _server(self, n_flows: int):
        from repro.serve.engine import PolicyServer, ServeConfig

        server = PolicyServer(self.policy, ServeConfig(
            deterministic=True, tick_budget=None, seed=self.seed,
        ))
        for fid in range(n_flows):
            server.connect(fid)
        return server

    def setup(self) -> None:
        from repro.collector.gr_unit import STATE_DIM

        cfg = self.cfg
        self.policy = _policy()
        rng = np.random.default_rng(self.seed)
        self.stream = rng.standard_normal(
            (cfg.stream_ticks, cfg.stream_flows, STATE_DIM)
        )
        self.server = self._server(cfg.n_flows)

    def _tick(self, server, n_flows: int, t: int):
        frame = self.stream[t % len(self.stream)]
        cols = self.stream.shape[1]
        submit = server.submit
        t0, c0 = clock(), cpu_clock()
        for fid in range(n_flows):
            submit(fid, frame[fid % cols])
        decisions = server.tick()
        return clock() - t0, cpu_clock() - c0, decisions

    def run(self, pace: Pace, tracer=None) -> Measured:
        from repro.collector.gr_unit import normalize_state
        from repro.core.networks import FastPolicy

        cfg, out = self.cfg, Measured()
        n = cfg.n_flows
        fixed_deadline = None
        if pace.deadline is not None:
            start = clock()
            fixed_deadline = start + (pace.deadline - start) * cfg.fixed_share
        log = np.empty((cfg.digest_units, n))
        ticks: List[float] = []
        cpus: List[float] = []
        unit = 0
        while pace.more(unit, fixed_deadline):
            with _unit_span(tracer, unit):
                dt, cpu, decisions = self._tick(self.server, n, unit)
            ticks.append(dt)
            cpus.append(cpu)
            ratios = [decisions[fid].ratio for fid in range(n)]
            valid = all(math.isfinite(r) for r in ratios) and all(
                d.source == "policy" for d in decisions.values()
            )
            out.check("ratios_finite_from_policy", valid)
            out.attempted += n
            out.failed += 0 if valid else n
            if unit < cfg.digest_units:
                log[unit] = ratios
            unit += 1
        out.units = unit
        # A tick misses the control interval when the server spends more
        # than 20 ms of CPU on it. Its wall time also holds the host
        # descheduling the thread (ticks of 7-8 ms CPU seen at 16-24 ms wall),
        # which made a wall-time rule fail decisions in some runs of the same
        # code and not others. As max_flows_20ms does, the run is held to the
        # interval at p99, so a few outlying ticks do not fail it. Traced
        # ticks carry the wrappers' cost; only untraced runs are held to it.
        if tracer is None and percentile_ms(cpus, 99) > TICK_LIMIT_S * 1e3:
            out.failed += n * sum(c > TICK_LIMIT_S for c in cpus)
        logged = min(unit, cfg.digest_units)
        out.digest = hashlib.sha256(log[:logged].tobytes()).hexdigest()

        # reference: each sampled flow replayed alone through the 1-D path
        # (not traced: its forwards are not serving work)
        worst = 0.0
        if tracer is None:
            fast = FastPolicy(self.policy)
            cols = self.stream.shape[1]
            matched = True
            for fid in np.linspace(0, n - 1, cfg.ref_flows).astype(int):
                h = fast.initial_state()
                ref = np.empty(min(logged, cfg.ref_ticks))
                for t in range(len(ref)):
                    state = self.stream[t % len(self.stream), fid % cols]
                    ref[t], h = fast.step(normalize_state(state), h)
                got = log[: len(ref), fid]
                worst = max(worst, float(np.abs(got - ref).max(initial=0.0)))
                matched &= bool(np.allclose(got, ref, rtol=1e-7, atol=1e-9))
            out.check("batched_matches_single_flow", matched)

        busy = sum(ticks)
        out.metrics = {"step_ms_p90": percentile_ms(ticks, 90)}
        out.figures = {
            "decisions_per_s": unit * n / busy,
            "n_flows": n,
            "ticks": unit,
            "tick_ms_p50": percentile_ms(ticks, 50),
            "tick_ms_p99": percentile_ms(ticks, 99),
            "ticks_over_20ms": sum(dt > TICK_LIMIT_S for dt in ticks),
            "tick_cpu_ms_p99": percentile_ms(cpus, 99),
            "reference_max_abs_diff": worst,
        }
        if pace.deadline is not None:
            out.figures.update(self._ceiling(pace, out.figures["tick_ms_p99"]))
        return out

    def _ceiling(self, pace: Pace, fixed_p99_ms: float) -> Dict[str, Any]:
        """Largest N whose p99 tick stays within the 20 ms control interval.

        Probes N upward from ``ceiling_start`` until a probe's p99 passes
        the limit, then interpolates linearly between the last probe under
        it and the first over it.
        """
        cfg = self.cfg
        limit_ms = TICK_LIMIT_S * 1e3
        probes = [(cfg.n_flows, fixed_p99_ms)]
        report = []
        n = cfg.ceiling_start
        while n <= cfg.ceiling_max and probes[-1][1] <= limit_ms:
            remaining = pace.deadline - clock()
            # spend what is left over the probes still expected (~3)
            budget = max(remaining / max(4 - len(probes), 1), 0.0)
            server = self._server(n)
            times: List[float] = []
            t_end = clock() + budget
            while len(times) < cfg.ceiling_min_ticks or clock() < t_end:
                times.append(self._tick(server, n, len(times))[0])
                pace.poll()
            probes.append((n, percentile_ms(times, 99)))
            report.append({
                "n_flows": n, "ticks": len(times),
                "decisions_per_s": n * len(times) / sum(times),
                "tick_ms_p50": percentile_ms(times, 50),
                "tick_ms_p99": probes[-1][1],
            })
            n += cfg.ceiling_step
        over = [i for i, (_, p99) in enumerate(probes) if p99 > limit_ms]
        if not over:
            ceiling = float(probes[-1][0])
        elif over[0] == 0:
            ceiling = 0.0
        else:
            (n0, p0), (n1, p1) = probes[over[0] - 1], probes[over[0]]
            ceiling = float(math.floor(n0 + (limit_ms - p0) * (n1 - n0) / (p1 - p0)))
        return {"max_flows_20ms": ceiling, "ceiling_probes": report}


# ---------------------------------------------------------------------------
# serve_open
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServeOpenConfig:
    arrival_rate: float = 300.0  # sessions per simulated second
    duration: float = 5.0  # arrival window per unit, simulated seconds
    #: simulated seconds after the arrival window for the last flows to end
    drain: float = 30.0
    bw_mbps: float = 96.0
    size_dist: str = "lognormal"
    #: the distillation set: per-flow states of a short NN-only episode
    #: of the same traffic (pinned seed), replayed through the policy
    distill_duration: float = 2.0
    #: share of the distillation states the calibrated tree gate passes
    distill_coverage: float = 0.35
    digest_units: int = 3  # traffic episodes


class ServeOpen(Workload):
    """Open-loop Poisson arrivals served by a tiered (tree + NN) server."""

    name = "serve_open"
    built = ("policy", "distilled", "distill_report", "schedules",
             "schedule_digests")

    def unit_config(self, unit: int):
        from repro.collector.parallel import derive_seed

        return self._traffic(self.cfg.duration, self.cfg.drain,
                             derive_seed(self.seed, unit))

    def _traffic(self, duration: float, drain: float, seed: int):
        from repro.serve.harness import WorkloadServeConfig

        cfg = self.cfg
        return WorkloadServeConfig(
            bw_mbps=cfg.bw_mbps, arrival_rate=cfg.arrival_rate,
            size_dist=cfg.size_dist, duration=duration, drain=drain, seed=seed,
        )

    def _server(self, wcfg, distilled=None):
        from repro.serve.engine import PolicyServer, ServeConfig

        return PolicyServer(self.policy, ServeConfig(
            deterministic=True, tick_budget=None, tick_interval=wcfg.tick,
            seed=self.seed,
        ), distilled=distilled)

    def _served_states(self):
        """Per-flow GR state sequences of a short NN-only served episode."""
        from repro.collector.pool import PolicyPool, Trajectory
        from repro.serve.harness import run_served_workload

        wcfg = self._traffic(self.cfg.distill_duration, self.cfg.distill_duration,
                             POLICY_SEED)
        server = self._server(wcfg)
        seen: Dict[int, List[np.ndarray]] = {}
        submit = server.submit

        def record(fid, state, cwnd=None):
            seen.setdefault(fid, []).append(np.array(state, dtype=np.float64))
            submit(fid, state, cwnd=cwnd)

        server.submit = record
        run_served_workload(self.policy, wcfg, server=server)
        pool = PolicyPool()
        for fid, states in seen.items():
            n = len(states)
            pool.add(Trajectory("served", f"flow{fid}", False,
                                np.stack(states), np.ones(n), np.zeros(n)))
        return pool

    def setup(self) -> None:
        from repro.distill import DistillConfig, fit_distilled
        from repro.workload.generator import generate_schedule, schedule_digest

        cfg = self.cfg
        self.policy = _pretrained_policy()
        self.distilled, self.distill_report = fit_distilled(
            self.policy, self._served_states(),
            DistillConfig(target_coverage=cfg.distill_coverage, refresh_every=32,
                          max_depth=10),
        )
        t0 = clock()
        self.schedules = [
            generate_schedule(self.unit_config(u).workload())
            for u in range(cfg.digest_units)
        ]
        self.schedule_s = clock() - t0
        self.schedule_digests = [schedule_digest(s) for s in self.schedules]

    def run(self, pace: Pace, tracer=None) -> Measured:
        from repro.netsim.packet import MSS_BYTES
        from repro.serve.harness import run_served_workload
        from repro.workload.generator import generate_schedule, schedule_digest

        cfg, out = self.cfg, Measured()
        digest = hashlib.sha256()
        ticks: List[float] = []  # first submit -> tick() return
        intervals: List[float] = []  # tick() return -> next return, busy ones
        fcts: List[float] = []
        wall = 0.0
        decisions_total = pkts = 0
        by_source: Dict[str, int] = {}
        flows = {"flows_started": 0, "flows_completed": 0, "flows_abandoned": 0,
                 "peak_concurrent": 0}
        unit = 0
        while pace.more(unit):
            wcfg = self.unit_config(unit)
            schedule = (self.schedules[unit] if unit < len(self.schedules)
                        else generate_schedule(wcfg.workload()))
            server = self._server(wcfg, self.distilled)
            stream: List[Tuple[List[int], List[float]]] = []
            keep_stream = unit < cfg.digest_units
            first_submit = [None]
            last_return = [None]
            nonfinite = [0]
            submit, tick = server.submit, server.tick

            def timed_submit(fid, state, cwnd=None, submit=submit, first=first_submit):
                if first[0] is None:
                    first[0] = clock()
                submit(fid, state, cwnd=cwnd)

            def timed_tick(tick=tick, first=first_submit, last=last_return,
                           stream=stream, keep=keep_stream, nonfinite=nonfinite):
                decisions = tick()
                now = clock()
                if first[0] is not None:
                    ticks.append(now - first[0])
                    first[0] = None
                if decisions and last[0] is not None:
                    intervals.append(now - last[0])
                last[0] = now
                ratios = [d.ratio for d in decisions.values()]
                nonfinite[0] += sum(not math.isfinite(r) for r in ratios)
                if keep:
                    stream.append((list(decisions), ratios))
                return decisions

            server.submit, server.tick = timed_submit, timed_tick
            with _unit_span(tracer, unit):
                t0 = clock()
                res = run_served_workload(self.policy, wcfg, server=server)
                wall += clock() - t0

            n_requests = sum(len(a.requests) for a in schedule)
            fct = res.metrics["fct"]
            abandoned = int(fct["n_abandoned"])
            sources = res.metrics["sources"]
            n_decisions = sum(sources.values())
            out.check("ratios_finite", nonfinite[0] == 0)
            out.check("sessions_match_schedule",
                      res.n_sessions == len(schedule) and res.n_requests == n_requests)
            if unit < len(self.schedule_digests):
                out.check("schedule_digest_matches_seed",
                          schedule_digest(generate_schedule(wcfg.workload()))
                          == self.schedule_digests[unit])
            out.attempted += res.n_requests + n_decisions
            out.failed += abandoned + nonfinite[0]
            decisions_total += n_decisions
            for k, v in sources.items():
                by_source[k] = by_source.get(k, 0) + v
            pkts += sum(-(-r.size_bytes // MSS_BYTES) for a in schedule
                        for r in a.requests)
            flows["flows_started"] += res.n_requests
            flows["flows_completed"] += int(fct["n_completed"])
            flows["flows_abandoned"] += abandoned
            flows["peak_concurrent"] = max(flows["peak_concurrent"], res.peak_concurrent)
            if keep_stream:
                fcts.extend(server.metrics.fcts_s)
                digest.update(self.schedule_digests[unit].encode())
                for fids, ratios in stream:
                    digest.update(np.asarray(fids, dtype=np.int64).tobytes())
                    digest.update(np.asarray(ratios, dtype=np.float64).tobytes())
                digest.update(np.asarray(server.metrics.fcts_s).tobytes())
            unit += 1

        out.units = unit
        out.digest = digest.hexdigest()
        out.stats.update(flows)
        out.stats["sim_pkts"] = pkts
        out.metrics = {"step_ms_p90": percentile_ms(intervals, 90)}
        served = by_source.get("policy", 0) + by_source.get("symbolic", 0)
        out.figures = {
            "decisions_per_s": decisions_total / wall,
            "step_ms_p50": percentile_ms(intervals, 50),
            "step_ms_p99": percentile_ms(intervals, 99),
            "sim_pkts_per_s": pkts / wall,
            "tick_ms_p50": percentile_ms(ticks, 50),
            "tick_ms_p99": percentile_ms(ticks, 99),
            "fct_ms_p50": percentile_ms(fcts, 50),
            "fct_ms_p99": percentile_ms(fcts, 99),
            "fct_flows": len(fcts),
            "episodes": unit,
            "decisions_by_source": by_source,
            "symbolic_hit_rate": by_source.get("symbolic", 0) / max(served, 1),
            "schedule_s": self.schedule_s,
            "distill": self.distill_report,
            **flows,
        }
        return out


WORKLOADS = {
    "collect": (Collect, CollectConfig),
    "train": (Train, TrainConfig),
    "serve_ticks": (ServeTicks, ServeTicksConfig),
    "serve_open": (ServeOpen, ServeOpenConfig),
}
