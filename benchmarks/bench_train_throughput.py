"""Throughput of the fused CRR training engine.

Times the legacy per-timestep :class:`CRRTrainer` against the fused
:class:`FastCRRTrainer` on the same pool at the default training
configuration (batch 16, seq 8), runs the same-seed equivalence check,
measures the data-parallel worker-scaling curve (steps/sec and gradient
communication seconds per step for 1, 2 and 4 gradient workers, with a
bitwise cross-worker-count identity check), and writes the result to
``BENCH_train.json``.

Runs two ways:

- standalone: ``PYTHONPATH=src python benchmarks/bench_train_throughput.py``
  (``--tiny`` for a seconds-scale CI smoke run on a synthetic pool;
  the default collects the mini-scale pool first);
- under pytest-benchmark with the rest of the bench suite:
  ``pytest benchmarks/bench_train_throughput.py``.

The ISSUE target — fused >=3x steps/sec at the default configuration on the
mini pool — is asserted only at full scale; the tiny run just guards that
the fused engine never loses to the legacy one and stays within the
equivalence tolerance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.collector.gr_unit import STATE_DIM  # noqa: E402
from repro.collector.pool import PolicyPool, Trajectory  # noqa: E402
from repro.io import write_json  # noqa: E402
from repro.train.bench import format_report, run_train_bench  # noqa: E402

OUT_PATH = REPO / "BENCH_train.json"


def synthetic_pool(seed: int = 0, n_traj: int = 8, length: int = 48) -> PolicyPool:
    """A cheap stand-in pool so the tiny run skips simulation entirely."""
    rng = np.random.default_rng(seed)
    trajs = []
    for i in range(n_traj):
        states = rng.standard_normal((length, STATE_DIM)) * 0.1
        actions = rng.uniform(0.6, 1.8, size=length)
        rewards = np.exp(-10.0 * (actions - 1.1) ** 2)
        trajs.append(
            Trajectory(
                scheme=f"s{i}", env_id=f"e{i}", multi_flow=False,
                states=states, actions=actions, rewards=rewards,
            )
        )
    return PolicyPool(trajs)


def run_bench(tiny: bool = False, collect_workers: int = 1) -> dict:
    if tiny:
        return run_train_bench(
            pool=synthetic_pool(), steps=10, warmup=2, eq_steps=5,
            scaling_steps=6,
        )
    return run_train_bench(
        steps=30, warmup=3, eq_steps=10, collect_workers=collect_workers,
        scaling_steps=12,
    )


# --------------------------------------------------------------------------
# pytest-benchmark entry point
# --------------------------------------------------------------------------


def test_train_throughput(benchmark, policy_pool):
    from conftest import BENCH_CRR, BENCH_NET, once

    result = once(
        benchmark,
        lambda: run_train_bench(
            pool=policy_pool, steps=15, warmup=2, eq_steps=5,
            net_config=BENCH_NET, crr_config=BENCH_CRR,
            scaling_steps=6,
        ),
    )
    print(format_report(result))
    write_json(OUT_PATH, result)
    assert result["equivalence"]["within_tolerance"], (
        "fused engine diverged from the legacy trainer"
    )
    assert result["equivalence"]["rng_streams_identical"]
    # tiny scale on a shared runner: fusion must at least not lose
    assert result["speedup"] >= 1.0
    assert result["worker_scaling"]["bit_identical"], (
        "data-parallel results differ across worker counts"
    )


# --------------------------------------------------------------------------
# standalone entry point
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-scale smoke run on a synthetic pool")
    parser.add_argument("--collect-workers", type=int, default=1,
                        dest="collect_workers",
                        help="rollout processes for mini-pool collection")
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)

    result = run_bench(tiny=args.tiny, collect_workers=args.collect_workers)
    print(format_report(result))
    write_json(args.out, result)
    print(f"wrote {args.out}")
    if not result["equivalence"]["within_tolerance"]:
        print("ERROR: fused engine outside the equivalence tolerance",
              file=sys.stderr)
        return 1
    scaling = result.get("worker_scaling")
    if scaling and not scaling["bit_identical"]:
        print("ERROR: data-parallel results differ across worker counts",
              file=sys.stderr)
        return 1
    if not args.tiny and result["speedup"] < 3.0:
        print("WARNING: below the 3x target at the default configuration",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
