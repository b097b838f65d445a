"""Serving-throughput benchmark core (shared by CLI and benchmarks/).

Measures flows/sec of the Execution block two ways over the same synthetic
state stream:

- **batch=1**: N independent :class:`SageAgent` instances, one forward per
  flow per tick — the pre-serving deployment model;
- **batched**: one :class:`PolicyServer` with N connected flows, one
  ``(N, 69)`` forward per tick.

Both run the policy in deterministic mode so the decision streams are
directly comparable (batched vs serial agree to float rounding; the bitwise
batch-composition guarantee is enforced by ``tests/test_serve.py``).
Optionally also runs the end-to-end multi-flow network harness.

``tiers=True`` adds the tiered-router section: a distilled symbolic
controller is fit on states the policy actually visits (short rollouts in
Set-1-style environments), the pooled states are replayed as a realistic
N-flow serving stream, and the same stream is timed through an NN-only
server and a tiered server. The section reports the symbolic hit-rate,
per-tier latency percentiles, and — via a small two-participant league —
the *fidelity* of tiered serving: the winning-rate delta vs NN-only.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.collector.gr_unit import STATE_DIM
from repro.core.agent import SageAgent
from repro.core.networks import NetworkConfig, SagePolicy
from repro.serve.engine import PolicyServer, ServeConfig
from repro.serve.harness import (
    MultiFlowConfig,
    WorkloadServeConfig,
    run_served_flows,
    run_served_workload,
)


def run_serve_bench(
    flows: int = 64,
    ticks: int = 200,
    seed: int = 0,
    net_config: Optional[NetworkConfig] = None,
    with_harness: bool = True,
    harness_duration: float = 3.0,
    tiers: bool = False,
    tiers_kwargs: Optional[dict] = None,
    workload: bool = False,
    workload_config: Optional[WorkloadServeConfig] = None,
) -> dict:
    """Benchmark batched serving against N batch=1 agents; returns a report.

    ``tiers=True`` appends the tiered-router section (see
    :func:`run_tiered_bench`); ``tiers_kwargs`` forwards its knobs.
    ``workload=True`` appends the open-loop section (see
    :func:`run_workload_bench`).
    """
    cfg = net_config if net_config is not None else NetworkConfig()
    rng = np.random.default_rng(seed)
    policy = SagePolicy(cfg, rng)
    states = rng.standard_normal((ticks, flows, STATE_DIM))

    # -- batch=1 baseline: N independent SageAgents ---------------------
    agents = [
        SageAgent(policy, deterministic=True, seed=seed + i) for i in range(flows)
    ]
    for agent in agents:
        agent.reset()
    serial_ratios = np.empty((ticks, flows))
    t0 = time.perf_counter()
    for t in range(ticks):
        for i, agent in enumerate(agents):
            serial_ratios[t, i] = agent.act(states[t, i])
    serial_s = time.perf_counter() - t0

    # -- batched: one PolicyServer, one (N, 69) forward per tick ---------
    server = PolicyServer(
        policy, ServeConfig(deterministic=True, tick_budget=None, seed=seed)
    )
    for i in range(flows):
        server.connect(i)
    batched_ratios = np.empty((ticks, flows))
    t0 = time.perf_counter()
    for t in range(ticks):
        for i in range(flows):
            server.submit(i, states[t, i])
        decisions = server.tick()
        for i in range(flows):
            batched_ratios[t, i] = decisions[i].ratio
    batched_s = time.perf_counter() - t0

    flow_ticks = flows * ticks
    max_diff = float(np.abs(serial_ratios - batched_ratios).max())
    snapshot = server.metrics.snapshot()
    result = {
        "flows": flows,
        "ticks": ticks,
        "gru_dim": cfg.gru_dim,
        "serial": {
            "elapsed_s": round(serial_s, 4),
            "flows_per_s": round(flow_ticks / serial_s, 1),
            "tick_ms": round(serial_s / ticks * 1e3, 4),
        },
        "batched": {
            "elapsed_s": round(batched_s, 4),
            "flows_per_s": round(flow_ticks / batched_s, 1),
            "tick_ms": round(batched_s / ticks * 1e3, 4),
            "latency_p50_ms": snapshot["latency_p50_ms"],
            "latency_p99_ms": snapshot["latency_p99_ms"],
            "batch_hist": snapshot["batch_hist"],
        },
        "speedup": round(serial_s / batched_s, 3),
        "serial_batched_max_abs_diff": max_diff,
        "serial_batched_allclose": bool(
            np.allclose(serial_ratios, batched_ratios, rtol=1e-7, atol=1e-9)
        ),
    }

    if with_harness:
        hcfg = MultiFlowConfig(
            n_flows=min(flows, 8),
            bw_mbps=48.0,
            min_rtt=0.04,
            buffer_bdp=2.0,
            duration=harness_duration,
        )
        hres = run_served_flows(policy, hcfg)
        result["harness"] = {
            "n_flows": hcfg.n_flows,
            "duration_s": hcfg.duration,
            "aggregate_throughput_mbps": round(
                hres.aggregate_throughput_bps / 1e6, 3
            ),
            "jain_fairness": round(hres.jain_fairness, 4),
            "fallback_rate": hres.metrics["fallback_rate"],
            "latency_p99_ms": hres.metrics["latency_p99_ms"],
        }

    if tiers:
        result["tiers_bench"] = run_tiered_bench(
            flows=flows, ticks=ticks, seed=seed, net_config=cfg,
            policy=policy, **(tiers_kwargs or {}),
        )

    if workload:
        result["workload"] = run_workload_bench(
            policy, config=workload_config, seed=seed
        )
    return result


def run_workload_bench(
    policy: SagePolicy,
    config: Optional[WorkloadServeConfig] = None,
    seed: int = 0,
) -> dict:
    """Serve an open-loop workload end to end; returns the FCT report.

    The headline number is ``arrivals_per_s_wall``: flow arrivals processed
    per wall-clock second through the full path (topology simulation + GR
    feature extraction + batched policy forward + cwnd enforcement).
    """
    cfg = config if config is not None else WorkloadServeConfig(seed=seed)
    t0 = time.perf_counter()
    res = run_served_workload(policy, cfg)
    wall = time.perf_counter() - t0
    fct = res.metrics.get("fct", {})
    return {
        "topology": cfg.topology,
        "arrival_rate": cfg.arrival_rate,
        "duration_s": cfg.duration,
        "mean_size_bytes": cfg.mean_size_bytes,
        "seed": cfg.seed,
        "n_sessions": res.n_sessions,
        "n_requests": res.n_requests,
        "peak_concurrent": res.peak_concurrent,
        "n_completed": fct.get("n_completed", 0),
        "n_abandoned": fct.get("n_abandoned", 0),
        "fct_p50_ms": fct.get("p50_ms", 0.0),
        "fct_p95_ms": fct.get("p95_ms", 0.0),
        "fct_p99_ms": fct.get("p99_ms", 0.0),
        "mean_slowdown": res.fct.mean_slowdown,
        "elapsed_s": round(wall, 4),
        "arrivals_per_s_wall": round(res.n_requests / wall, 1),
    }


# ---------------------------------------------------------------------------
# tiered-router section
# ---------------------------------------------------------------------------


def _collect_bench_pool(policy: SagePolicy, seed: int, duration: float):
    """Short policy rollouts in Set-1-style envs: the distillation pool."""
    from repro.collector.environments import set1_environments
    from repro.collector.pool import PolicyPool
    from repro.collector.rollout import run_policy

    envs = set1_environments(
        bws=(24.0, 48.0), rtts=(0.04,), buffers=(2.0,),
        step_ms=(1.0,), duration=duration,
    )
    pool = PolicyPool()
    agent = SageAgent(policy, deterministic=True, seed=seed)
    for env in envs:
        pool.add_rollout(run_policy(env, agent))
    return pool


def _replay_stream(pool, flows: int, ticks: int) -> np.ndarray:
    """Slice the pool's raw states into a ``(ticks, flows, 69)`` stream.

    Each flow reads a contiguous window (wrapping) of the concatenated
    pool states, so per-flow streams keep realistic temporal structure.
    """
    concat = np.concatenate(
        [np.asarray(t.states, dtype=np.float64) for t in pool.trajectories]
    )
    m = len(concat)
    stream = np.empty((ticks, flows, STATE_DIM))
    for i in range(flows):
        start = (i * max(m // flows, 1)) % m
        idx = (start + np.arange(ticks)) % m
        stream[:, i, :] = concat[idx]
    return stream


def _time_stream(server: PolicyServer, stream: np.ndarray) -> float:
    """Serve a ``(ticks, flows)`` stream; returns elapsed seconds."""
    ticks, flows = stream.shape[:2]
    for i in range(flows):
        server.connect(i)
    t0 = time.perf_counter()
    for t in range(ticks):
        for i in range(flows):
            server.submit(i, stream[t, i])
        server.tick()
    return time.perf_counter() - t0


def run_tiered_bench(
    flows: int = 64,
    ticks: int = 200,
    seed: int = 0,
    net_config: Optional[NetworkConfig] = None,
    policy: Optional[SagePolicy] = None,
    target_coverage: float = 0.98,
    refresh_every: int = 32,
    max_depth: int = 10,
    pool_duration: float = 8.0,
    with_league: bool = True,
    league_duration: float = 10.0,
) -> dict:
    """Benchmark the tiered router against NN-only serving; returns a report.

    The distilled controller is fit on states the policy itself visits
    (``pool_duration``-second rollouts); the serving stream replays those
    pooled states, so the symbolic tier is exercised on its own traffic
    distribution — the deployment the tiered router is built for.
    """
    from repro.distill import DistillConfig, fit_distilled

    cfg = net_config if net_config is not None else NetworkConfig()
    if policy is None:
        policy = SagePolicy(cfg, np.random.default_rng(seed))

    pool = _collect_bench_pool(policy, seed, pool_duration)
    distilled, fit_report = fit_distilled(
        policy,
        pool,
        DistillConfig(
            target_coverage=target_coverage,
            refresh_every=refresh_every,
            max_depth=max_depth,
        ),
    )

    stream = _replay_stream(pool, flows, ticks)
    serve_cfg = ServeConfig(deterministic=True, tick_budget=None, seed=seed)

    nn_server = PolicyServer(policy, serve_cfg)
    nn_s = _time_stream(nn_server, stream)

    tiered_server = PolicyServer(policy, serve_cfg, distilled=distilled)
    tiered_s = _time_stream(tiered_server, stream)
    snap = tiered_server.metrics.snapshot()

    flow_ticks = flows * ticks
    result = {
        "distill": fit_report,
        "nn_only": {
            "elapsed_s": round(nn_s, 4),
            "flows_per_s": round(flow_ticks / nn_s, 1),
            "tick_ms": round(nn_s / ticks * 1e3, 4),
        },
        "tiered": {
            "elapsed_s": round(tiered_s, 4),
            "flows_per_s": round(flow_ticks / tiered_s, 1),
            "tick_ms": round(tiered_s / ticks * 1e3, 4),
            "tiers": snap["tiers"],
            "sources": snap["sources"],
        },
        "speedup_vs_nn": round(nn_s / tiered_s, 3),
        "symbolic_hit_rate": snap["symbolic_hit_rate"],
    }

    if with_league:
        result["league_fidelity"] = _league_fidelity(
            policy, distilled, seed, league_duration
        )
    return result


def _league_fidelity(
    policy: SagePolicy, distilled, seed: int, duration: float
) -> dict:
    """Winning-rate delta of tiered serving vs NN-only in one small league."""
    from repro.collector.environments import set1_environments
    from repro.evalx.leagues import Participant, run_league

    envs = set1_environments(
        bws=(32.0,), rtts=(0.03, 0.05), buffers=(1.5,),
        step_ms=(1.0,), duration=duration,
    )
    participants = [
        Participant.from_served(
            policy, name="sage-nn", deterministic=True, seed=seed
        ),
        Participant.from_served(
            policy, name="sage-tiered", deterministic=True, seed=seed,
            distilled=distilled,
        ),
    ]
    league = run_league(participants, set1=envs, set2=envs[:1])
    nn_rate = league.set1_rates.get("sage-nn", 0.0)
    tiered_rate = league.set1_rates.get("sage-tiered", 0.0)
    return {
        "nn_winning_rate": round(nn_rate, 4),
        "tiered_winning_rate": round(tiered_rate, 4),
        "delta_points": round(abs(nn_rate - tiered_rate) * 100.0, 3),
    }


def format_report(result: dict) -> str:
    lines = [
        f"=== serve-bench: {result['flows']} flows x {result['ticks']} ticks "
        f"(gru_dim={result['gru_dim']}) ===",
        f"{'mode':>10} {'elapsed_s':>10} {'flows/s':>10} {'tick_ms':>9}",
    ]
    for mode in ("serial", "batched"):
        row = result[mode]
        lines.append(
            f"{mode:>10} {row['elapsed_s']:>10.3f} "
            f"{row['flows_per_s']:>10.0f} {row['tick_ms']:>9.3f}"
        )
    lines.append(
        f"speedup: {result['speedup']:.2f}x   "
        f"batched p50/p99: {result['batched']['latency_p50_ms']:.3f}/"
        f"{result['batched']['latency_p99_ms']:.3f} ms   "
        f"outputs allclose: {result['serial_batched_allclose']}"
    )
    if "harness" in result:
        h = result["harness"]
        lines.append(
            f"harness ({h['n_flows']} flows, {h['duration_s']:g}s): "
            f"{h['aggregate_throughput_mbps']:.1f} Mbps aggregate, "
            f"Jain {h['jain_fairness']:.3f}, "
            f"fallback rate {h['fallback_rate']:.3f}"
        )
    if "tiers_bench" in result:
        tb = result["tiers_bench"]
        lines.append(
            f"--- tiered router (tree: {tb['distill']['n_leaves']} leaves, "
            f"depth {tb['distill']['depth']}) ---"
        )
        for mode in ("nn_only", "tiered"):
            row = tb[mode]
            lines.append(
                f"{mode:>10} {row['elapsed_s']:>10.3f} "
                f"{row['flows_per_s']:>10.0f} {row['tick_ms']:>9.3f}"
            )
        tier_bits = []
        for tier, stats in tb["tiered"]["tiers"].items():
            tier_bits.append(
                f"{tier}: {stats['decisions']} "
                f"(p50/p99 {stats['latency_p50_ms']:.3f}/"
                f"{stats['latency_p99_ms']:.3f} ms)"
            )
        lines.append(
            f"speedup vs NN-only: {tb['speedup_vs_nn']:.2f}x   "
            f"symbolic hit-rate: {tb['symbolic_hit_rate'] * 100:.1f}%"
        )
        lines.append("per-tier: " + "   ".join(tier_bits))
        if "league_fidelity" in tb:
            lf = tb["league_fidelity"]
            lines.append(
                f"league fidelity: tiered {lf['tiered_winning_rate'] * 100:.2f}% "
                f"vs NN-only {lf['nn_winning_rate'] * 100:.2f}% "
                f"(delta {lf['delta_points']:.2f} points)"
            )
    if "workload" in result:
        w = result["workload"]
        lines.append(
            f"--- open-loop workload ({w['topology']}, "
            f"{w['arrival_rate']:g}/s x {w['duration_s']:g}s) ---"
        )
        lines.append(
            f"{w['n_requests']} flows ({w['n_completed']} completed, "
            f"{w['n_abandoned']} abandoned, peak {w['peak_concurrent']} "
            f"concurrent)   FCT p50/p95/p99: {w['fct_p50_ms']:.1f}/"
            f"{w['fct_p95_ms']:.1f}/{w['fct_p99_ms']:.1f} ms"
        )
        lines.append(
            f"served {w['arrivals_per_s_wall']:.0f} arrivals/s wall-clock "
            f"({w['elapsed_s']:.2f}s elapsed)"
        )
    return "\n".join(lines)
