"""Benchmark of the Sage stack: collect, train, serve_ticks, serve_open.

Run from the repository root::

    python3 sagebench/run.py --workload collect --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds
with no tracing. ``--trace 1`` runs the workload's first units twice, once
plain and once with every layer wrapped (see ``layers.py``), and reports
the per-layer metrics plus the tracing overhead; the two passes must give
the same output digest.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record (provenance,
configuration, digests, checks, workload figures) is written to
``.sagebench/results/`` and, for traced runs, the spans to
``.sagebench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".sagebench"

#: (name, unit) of the end-to-end metrics, printed for every workload
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("step_ms_p90", "ms"),
]

#: set-up runs this many times and its median is reported: once before the
#: measurement and the rest after it, so the repeats see different moments
#: of a host whose speed drifts over seconds
SETUP_REPEATS = 5

#: BLAS is pinned to one thread so every figure is a one-core figure
BLAS_THREADS = 1

CAVEAT = (
    "Single-CPU figures: one process, BLAS pinned to 1 thread, in-process "
    "collection (workers=1), single-process trainer. They say nothing about "
    "multi-core scaling, whatever nproc reads."
)


def _git(*args: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            timeout=30, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout if proc.returncode == 0 else None


def provenance(seed: int, workload: str, config: Dict) -> Dict:
    import numpy as np

    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and Path(top.strip()).resolve() == ROOT
    status = _git("status", "--porcelain", "--untracked-files=no") if in_git else None
    return {
        "git_sha": _git("rev-parse", "HEAD").strip() if in_git else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "workload": workload,
        "config": config,
        "caveat": CAVEAT,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(wl, seconds: float, spare) -> Dict:
    """Set up, then measure for ``seconds``.

    The other ``SETUP_REPEATS - 1`` set-ups are timed on ``spare``, a second
    instance of the workload, between units spread over the measurement,
    so the repeats sample the whole run on a host whose speed drifts.
    Peak memory is read before the first of them.
    """
    from workloads import Pace

    clock = time.perf_counter
    rss: List[float] = []

    def setup(target) -> float:
        t0 = clock()
        target.setup()
        return clock() - t0

    def spare_setup() -> None:
        if not rss:
            rss.append(peak_rss_mb())
        setups.append(setup(spare))
        spare.close()

    setups = [setup(wl)]
    start = clock()
    step = seconds / SETUP_REPEATS
    pace = Pace(wl.cfg.digest_units, deadline=start + seconds, between=[
        (start + step * (i + 1), spare_setup) for i in range(SETUP_REPEATS - 1)
    ])
    measured = wl.run(pace)
    measured_s = clock() - start
    pace.finish()
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss[0],
        **measured.metrics,
    }
    return {
        "measured": measured,
        "metrics": metrics,
        "extra": {"setup_s_each": setups, "measured_s": measured_s},
    }


def traced_run(wl, run_id: str) -> Dict:
    """The first units plain, then traced: per-layer metrics and overhead."""
    import layers
    from tracing import Patches, Tracer
    from workloads import Pace

    clock = time.perf_counter
    k = wl.cfg.digest_units
    wl.setup()
    t0 = clock()
    plain = wl.run(Pace(k, k))
    plain_s = clock() - t0

    wl.setup()
    tracer = Tracer(run_id)
    with Patches() as patches:
        layers.install(tracer, patches)
        t0 = clock()
        with tracer.span("bench.run", request=run_id):
            traced = wl.run(Pace(k, k), tracer=tracer)
        traced_s = clock() - t0
    overhead = traced_s - plain_s
    integrity = tracer.integrity(tolerance_s=max(abs(overhead), 1e-6))
    traced.check("traced_digest_equals_untraced", traced.digest == plain.digest)
    traced.check("self_times_sum_to_root", integrity["ok"])
    for name, ok in plain.checks.items():
        traced.check(name, ok)
    traced.attempted += plain.attempted
    traced.failed += plain.failed

    metrics = layers.layer_metrics(tracer, traced.stats, overhead)
    deterministic = {name: metrics[name] for name in layers.DETERMINISTIC}
    return {
        "measured": traced,
        "metrics": metrics,
        "tracer": tracer,
        "extra": {
            "untraced_s": plain_s,
            "traced_s": traced_s,
            "integrity": integrity,
            "untraced_digest": plain.digest,
            "deterministic": deterministic,
        },
    }


def _previous_deterministic(path: Path, digest: str) -> Optional[Dict]:
    """Deterministic counts of an earlier traced run with the same outputs."""
    try:
        prev = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if prev.get("digest") != digest:
        return None
    return prev.get("deterministic")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"sagebench: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; use {sorted(WORKLOADS)}")
    cls, cfg_cls = WORKLOADS[args.workload]
    cfg = cfg_cls()
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir = OUT / "tmp" / run_id
    wl = cls(cfg, args.seed, workdir / "main")
    spare = cls(cfg, args.seed, workdir / "spare")
    try:
        if args.trace:
            res = traced_run(wl, run_id)
            names = layers.PER_LAYER
        else:
            res = timed_run(wl, args.seconds, spare)
            names = END_TO_END
    finally:
        wl.close()
        spare.close()
        shutil.rmtree(workdir, ignore_errors=True)

    measured = res["measured"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    artifact = OUT / "results" / f"{stem}.json"
    if args.trace:
        det = res["extra"]["deterministic"]
        prev = _previous_deterministic(artifact, measured.digest)
        measured.check("deterministic_counts_repeat", prev is None or prev == det)
        trace_path = OUT / "traces" / f"{stem}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(res.pop("tracer").to_json()))
        res["extra"]["trace_file"] = os.path.relpath(trace_path, ROOT)

    correct = all(measured.checks.values())
    failed = measured.failed if correct else measured.attempted
    record = {
        "provenance": provenance(args.seed, args.workload, asdict(cfg)),
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": measured.attempted,
        "failed": failed,
        "checks": measured.checks,
        "digest": measured.digest,
        "units": measured.units,
        "metrics": {n: {"value": res["metrics"][n], "unit": u} for n, u in names},
        "figures": measured.figures,
        **res["extra"],
    }
    artifact.parent.mkdir(parents=True, exist_ok=True)
    artifact.write_text(json.dumps(record, indent=1, default=str))

    print(f"sagebench {args.workload} seed={args.seed} trace={args.trace} "
          f"units={measured.units} digest={measured.digest[:16]}")
    for name, unit in names:
        print(f"  {name:34s} {res['metrics'][name]:.6g} {unit}")
    for name, value in measured.figures.items():
        if isinstance(value, (int, float)):
            print(f"  figure {name:27s} {value:.6g}")
    print(f"  checks: {measured.checks}")
    print(f"  attempted={measured.attempted} failed={failed} "
          f"record={os.path.relpath(artifact, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(measured.attempted),
        "failed": int(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and exit non-zero, no result line
        traceback.print_exc()
        sys.exit(1)
