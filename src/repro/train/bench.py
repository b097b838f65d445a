"""Training-throughput benchmark core (shared by CLI and benchmarks/).

Times the legacy per-timestep :class:`~repro.core.crr.CRRTrainer` against
the fused :class:`~repro.train.engine.FastCRRTrainer` on the same pool at
the same configuration, and runs a short same-seed equivalence check
(``prefetch=0``) so every report carries its own correctness evidence:
the fused engine only counts as faster if its loss trajectory still
tracks the legacy one within the pinned tolerance.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.collector.pool import PolicyPool
from repro.core.crr import CRRConfig, CRRTrainer
from repro.core.networks import NetworkConfig
from repro.train.engine import FastCRRTrainer

#: Max per-step relative difference allowed between the engines' metric
#: trajectories (same seed, prefetch=0). Float drift is summation-order
#: rounding only, so even accumulated over tens of steps it stays orders
#: of magnitude below this. tests/test_train_engine.py pins the same bar.
EQUIVALENCE_RTOL = 1e-6

_METRICS = ("critic_loss", "policy_loss", "mean_f")


def _mini_pool(
    schemes: Optional[Sequence[str]] = None, workers: int = 1
) -> PolicyPool:
    from repro.collector.environments import training_environments
    from repro.core.training import collect_pool

    return collect_pool(
        training_environments("mini"), schemes=schemes, workers=workers
    )


def _time_engine(trainer, steps: int, warmup: int) -> dict:
    trainer.train(warmup)
    t0 = time.perf_counter()
    trainer.train(steps)
    elapsed = time.perf_counter() - t0
    return {
        "elapsed_s": round(elapsed, 4),
        "steps_per_s": round(steps / elapsed, 2),
        "ms_per_step": round(elapsed / steps * 1e3, 3),
    }


def _param_digest(trainer) -> str:
    import hashlib

    h = hashlib.sha256()
    for net in (
        trainer.policy, trainer.critic,
        trainer.target_policy, trainer.target_critic,
    ):
        for _, p in sorted(net.named_parameters()):
            h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


def run_scaling_bench(
    pool: PolicyPool,
    steps: int = 12,
    seed: int = 0,
    net_config: Optional[NetworkConfig] = None,
    crr_config: Optional[CRRConfig] = None,
    worker_counts: Sequence[int] = (1, 2, 4),
) -> dict:
    """Worker-scaling curve for the data-parallel trainer.

    Runs :class:`~repro.train.parallel.DataParallelTrainer` for ``steps``
    steps at each worker count and records steps/sec, the per-phase second
    totals, and the gradient-communication seconds per step. The run also
    checks the determinism contract directly: the loss history and a
    SHA-256 digest over every network's parameters must be identical
    across all worker counts, and the report records whether they were.
    """
    import os

    from repro.train.parallel import DEFAULT_GRAINS, DataParallelTrainer

    net = net_config if net_config is not None else NetworkConfig()
    cfg = crr_config if crr_config is not None else CRRConfig()
    rows = {}
    digests = []
    histories = []
    for n in worker_counts:
        trainer = DataParallelTrainer(
            pool, net_config=net, config=cfg, seed=seed, grad_workers=n
        )
        try:
            t0 = time.perf_counter()
            trainer.train(steps)
            elapsed = time.perf_counter() - t0
            grad_comm = trainer.phase_seconds.get("grad_comm", 0.0)
            rows[str(n)] = {
                "elapsed_s": round(elapsed, 4),
                "steps_per_s": round(steps / elapsed, 2),
                "ms_per_step": round(elapsed / steps * 1e3, 3),
                "grad_comm_s_per_step": round(grad_comm / steps, 4),
                "phase_seconds": {
                    k: round(v, 4) for k, v in trainer.phase_seconds.items()
                },
            }
            digests.append(_param_digest(trainer))
            histories.append(
                {k: list(v) for k, v in trainer.history.items()}
            )
        finally:
            trainer.close()
    bit_identical = (
        all(d == digests[0] for d in digests)
        and all(h == histories[0] for h in histories)
    )
    return {
        "steps": steps,
        "grains": DEFAULT_GRAINS,
        "cpu_count": os.cpu_count(),
        "workers": rows,
        "bit_identical": bool(bit_identical),
        "param_digest": digests[0] if digests else None,
        "note": (
            "single-CPU container: this curve is a correctness baseline "
            "(bit-identity across worker counts), not a speedup "
            "measurement; re-measure on multi-core hardware"
        ) if (os.cpu_count() or 1) < max(worker_counts, default=1) else None,
    }


def run_train_bench(
    pool: Optional[PolicyPool] = None,
    steps: int = 30,
    warmup: int = 3,
    eq_steps: int = 10,
    seed: int = 0,
    net_config: Optional[NetworkConfig] = None,
    crr_config: Optional[CRRConfig] = None,
    prefetch: int = 2,
    sampler_workers: int = 2,
    schemes: Optional[Sequence[str]] = None,
    collect_workers: int = 1,
    scaling_workers: Optional[Sequence[int]] = (1, 2, 4),
    scaling_steps: int = 12,
) -> dict:
    """Benchmark fused vs legacy CRR training; returns a report dict.

    ``pool=None`` collects the mini-scale pool first (the acceptance
    configuration); pass a loaded pool to skip collection.

    ``scaling_workers`` adds a ``worker_scaling`` section measuring the
    data-parallel trainer at each worker count (see
    :func:`run_scaling_bench`); pass ``None`` or empty to skip it.
    """
    if pool is None:
        pool = _mini_pool(schemes=schemes, workers=collect_workers)
    net = net_config if net_config is not None else NetworkConfig()
    cfg = crr_config if crr_config is not None else CRRConfig()

    # -- equivalence check: same seed, synchronous sampling --------------
    legacy_eq = CRRTrainer(pool, net_config=net, config=cfg, seed=seed)
    fused_eq = FastCRRTrainer(pool, net_config=net, config=cfg, seed=seed)
    max_rel = {k: 0.0 for k in _METRICS}
    for _ in range(eq_steps):
        m0 = legacy_eq.train_step()
        m1 = fused_eq.train_step()
        for k in _METRICS:
            rel = abs(m0[k] - m1[k]) / (abs(m0[k]) + 1e-12)
            max_rel[k] = max(max_rel[k], rel)
    rng_in_lockstep = (
        legacy_eq.rng.bit_generator.state == fused_eq.rng.bit_generator.state
    )
    within = all(v <= EQUIVALENCE_RTOL for v in max_rel.values())

    # -- throughput -------------------------------------------------------
    legacy = CRRTrainer(pool, net_config=net, config=cfg, seed=seed)
    legacy_row = _time_engine(legacy, steps, warmup)
    fused = FastCRRTrainer(
        pool,
        net_config=net,
        config=cfg,
        seed=seed,
        prefetch=prefetch,
        sampler_workers=sampler_workers,
    )
    fused_row = _time_engine(fused, steps, warmup)
    timing = fused.timing_summary()
    fused.close()
    fused_row.update(
        {
            "prefetch": prefetch,
            "sampler_workers": sampler_workers,
            "phase_seconds": {
                k: round(v, 4)
                for k, v in timing.items()
                if k not in ("total_s", "steps_per_s")
            },
        }
    )

    scaling = None
    if scaling_workers:
        scaling = run_scaling_bench(
            pool,
            steps=scaling_steps,
            seed=seed,
            net_config=net,
            crr_config=cfg,
            worker_counts=tuple(scaling_workers),
        )

    return {
        "steps": steps,
        "batch_size": cfg.batch_size,
        "seq_len": cfg.seq_len,
        "m_samples": cfg.m_samples,
        "gru_dim": net.gru_dim,
        "enc_dim": net.enc_dim,
        "pool_transitions": pool.n_transitions,
        "legacy": legacy_row,
        "fused": fused_row,
        "speedup": round(
            legacy_row["elapsed_s"] / fused_row["elapsed_s"], 3
        ),
        "equivalence": {
            "steps": eq_steps,
            "tolerance_rtol": EQUIVALENCE_RTOL,
            "max_rel_diff": {k: float(v) for k, v in max_rel.items()},
            "within_tolerance": bool(within),
            "rng_streams_identical": bool(rng_in_lockstep),
        },
        "worker_scaling": scaling,
    }


def format_report(result: dict) -> str:
    lines = [
        f"=== train-bench: {result['steps']} steps, "
        f"batch {result['batch_size']} x seq {result['seq_len']} "
        f"(gru_dim={result['gru_dim']}, "
        f"{result['pool_transitions']} pool transitions) ===",
        f"{'engine':>8} {'elapsed_s':>10} {'steps/s':>9} {'ms/step':>9}",
    ]
    for name in ("legacy", "fused"):
        row = result[name]
        lines.append(
            f"{name:>8} {row['elapsed_s']:>10.3f} "
            f"{row['steps_per_s']:>9.2f} {row['ms_per_step']:>9.2f}"
        )
    eq = result["equivalence"]
    worst = max(eq["max_rel_diff"].values())
    lines.append(
        f"speedup: {result['speedup']:.2f}x   "
        f"equivalence over {eq['steps']} steps: "
        f"max rel diff {worst:.2e} "
        f"(tol {eq['tolerance_rtol']:.0e}, "
        f"ok={eq['within_tolerance']}, "
        f"rng lockstep={eq['rng_streams_identical']})"
    )
    ph = result["fused"].get("phase_seconds", {})
    if ph:
        lines.append(
            "fused phases (s): "
            + "  ".join(f"{k}={v:.3f}" for k, v in ph.items())
        )
    scaling = result.get("worker_scaling")
    if scaling:
        lines.append(
            f"--- worker scaling ({scaling['steps']} steps, "
            f"grains={scaling['grains']}, "
            f"cpu_count={scaling['cpu_count']}) ---"
        )
        lines.append(
            f"{'workers':>8} {'elapsed_s':>10} {'steps/s':>9} "
            f"{'grad_comm s/step':>17}"
        )
        for n, row in scaling["workers"].items():
            lines.append(
                f"{n:>8} {row['elapsed_s']:>10.3f} "
                f"{row['steps_per_s']:>9.2f} "
                f"{row['grad_comm_s_per_step']:>17.4f}"
            )
        lines.append(
            f"bit-identical across worker counts: "
            f"{scaling['bit_identical']}"
        )
        if scaling.get("note"):
            lines.append(f"note: {scaling['note']}")
    return "\n".join(lines)
