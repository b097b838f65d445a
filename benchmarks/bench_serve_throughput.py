"""Throughput of the batched policy-serving engine.

Measures flows/sec of the Execution block serving N concurrent flows two
ways — N independent batch=1 ``SageAgent`` instances vs one
:class:`PolicyServer` doing a single ``(N, 69)`` forward per tick — and
writes the result to ``BENCH_serve.json``.

Runs two ways:

- standalone: ``PYTHONPATH=src python benchmarks/bench_serve_throughput.py``
  (``--tiny`` for a seconds-scale CI smoke run);
- under pytest-benchmark with the rest of the bench suite:
  ``pytest benchmarks/bench_serve_throughput.py``.

The ISSUE target — batched >=3x flows/sec at 64 flows — is asserted only at
full scale; the tiny run just guards that batching never loses to serial.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.io import write_json  # noqa: E402
from repro.serve.bench import format_report, run_serve_bench  # noqa: E402

OUT_PATH = REPO / "BENCH_serve.json"


def run_bench(tiny: bool = False) -> dict:
    if tiny:
        from repro.core.networks import NetworkConfig

        return run_serve_bench(
            flows=8, ticks=50,
            net_config=NetworkConfig(enc_dim=32, gru_dim=32, n_atoms=11),
            harness_duration=2.0,
        )
    return run_serve_bench(flows=64, ticks=200)


# --------------------------------------------------------------------------
# pytest-benchmark entry point
# --------------------------------------------------------------------------


def test_serve_throughput(benchmark):
    from conftest import once

    result = once(benchmark, lambda: run_bench(tiny=True))
    print(format_report(result))
    write_json(OUT_PATH, result)
    assert result["serial_batched_allclose"], (
        "batched decisions diverged from the batch=1 agents"
    )
    # tiny scale on a shared runner: batching must at least not lose
    assert result["speedup"] >= 1.0
    assert result["harness"]["fallback_rate"] == 0.0


# --------------------------------------------------------------------------
# standalone entry point
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-scale smoke run (CI)")
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)

    result = run_bench(tiny=args.tiny)
    print(format_report(result))
    write_json(args.out, result)
    print(f"wrote {args.out}")
    if not args.tiny and result["speedup"] < 3.0:
        print("WARNING: below the 3x target at 64 flows", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
