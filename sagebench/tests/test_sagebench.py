"""Tests of the benchmark itself, at a tiny size.

Run from the repository root::

    python3 -m pytest sagebench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = {
    "collect": workloads.CollectConfig(
        schemes=("cubic", "vegas"), duration=0.4, warmup_duration=0.2,
        grid=workloads.COLLECT_GRID[:2], digest_units=1,
    ),
    "train": workloads.TrainConfig(
        n_trajectories=6, min_length=20, max_length=30, shard_bytes=8_000,
        warmup_steps=1, digest_units=3,
    ),
    "serve_ticks": workloads.ServeTicksConfig(
        n_flows=4, stream_ticks=4, stream_flows=8, ref_flows=2, ref_ticks=6,
        ceiling_start=8, ceiling_step=8, ceiling_max=16, ceiling_min_ticks=3,
        digest_units=6,
    ),
    "serve_open": workloads.ServeOpenConfig(
        arrival_rate=60.0, duration=0.5, drain=5.0, distill_duration=1.0,
        digest_units=1,
    ),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every workload at its tiny size; records go under ``tmp_path``."""
    for name, cfg in TINY.items():
        cls = workloads.WORKLOADS[name][0]
        monkeypatch.setitem(workloads.WORKLOADS, name, (cls, lambda cfg=cfg: cfg))
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def bench(capsys, workload: str, seed: int = 1, trace: int = 0):
    """Run the benchmark's entry point; return ``(result line, record)``."""
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record = json.loads(
        (run.OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return json.loads(lines[-1]), lines, record


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "sagebench/run.py"]
    assert spec["paths"] == ["sagebench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * spec["run_seconds"] < 3420


@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload):
    result, lines, record = bench(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == run.END_TO_END
    for name, unit in run.END_TO_END:
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in lines)
        assert result["metrics"][name]["value"] > 0
    prov = record["provenance"]
    for key in ("git_sha", "git_dirty", "nproc", "python", "numpy",
                "blas_threads", "seed", "config", "caveat"):
        assert key in prov
    assert prov["config"] == json.loads(json.dumps(
        run.asdict(TINY[workload]), default=str))


@pytest.mark.parametrize("workload", list(TINY))
def test_traced_run_reports_every_layer_and_matches_untraced(tiny, capsys, workload):
    result, _, record = bench(capsys, workload, trace=1)
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == layers.PER_LAYER
    assert result["correct"] is True, record["checks"]
    assert record["checks"]["traced_digest_equals_untraced"]
    assert record["digest"] == record["untraced_digest"]
    assert record["integrity"]["min_self_s"] >= 0.0
    # a second traced run repeats every deterministic count exactly
    again, _, record2 = bench(capsys, workload, trace=1)
    assert record2["checks"]["deterministic_counts_repeat"]
    assert record2["deterministic"] == record["deterministic"]


def test_traced_counts_reach_the_layers_each_workload_drives(tiny, capsys):
    metric = lambda w, n: bench(capsys, w, trace=1)[0]["metrics"][n]["value"]  # noqa: E731
    assert metric("collect", "netsim.events_scheduled") > 0
    assert metric("collect", "collector.rollouts") == 2
    assert metric("train", "datastore.windows_sampled") > 0
    assert metric("serve_ticks", "nn.policy_forward_calls") == 6
    assert metric("serve_open", "workload.flows_started") > 0


@pytest.mark.parametrize("workload", list(TINY))
def test_a_second_seed_gives_other_inputs_and_passes(tiny, capsys, workload):
    first, _, rec1 = bench(capsys, workload, seed=1)
    second, _, rec2 = bench(capsys, workload, seed=2)
    assert first["correct"] and second["correct"]
    assert rec1["digest"] != rec2["digest"]
    repeat, _, rec3 = bench(capsys, workload, seed=1)
    assert rec3["digest"] == rec1["digest"]


def test_a_tick_over_the_control_interval_fails_its_decisions(tiny, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "TICK_LIMIT_S", 0.0)
    result, _, record = bench(capsys, "serve_ticks")
    assert result["correct"] is True
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("descheduled, busy, failed_ticks", [
    ((3, 50, 90), (), 0),          # wall time over 20 ms, server CPU under it
    ((), (3,), 0),                 # one outlying tick: p99 stays under 20 ms
    ((), (3, 50, 90), 3),          # p99 over 20 ms: every such tick fails
])
def test_ticks_fail_on_server_cpu_time_at_p99(
        tiny, capsys, monkeypatch, descheduled, busy, failed_ticks):
    cfg = workloads.ServeTicksConfig(**{**TINY["serve_ticks"].__dict__, "digest_units": 200})
    monkeypatch.setitem(workloads.WORKLOADS, "serve_ticks",
                        (workloads.ServeTicks, lambda: cfg))
    tick = workloads.ServeTicks._tick

    def slow(self, server, n_flows, t):
        dt, cpu, decisions = tick(self, server, n_flows, t)
        if n_flows == cfg.n_flows and t in descheduled + busy:
            dt = 0.05
            cpu = 0.05 if t in busy else cpu
        return dt, cpu, decisions

    monkeypatch.setattr(workloads.ServeTicks, "_tick", slow)
    result, _, record = bench(capsys, "serve_ticks")
    assert result["correct"] is True and result["attempted"] == 200 * cfg.n_flows
    assert result["failed"] == failed_ticks * cfg.n_flows
    assert record["figures"]["ticks_over_20ms"] == len(descheduled + busy)


def test_a_failed_check_fails_every_operation(tiny, capsys, monkeypatch):
    from repro.core.networks import FastPolicy

    step = FastPolicy.step

    def off_by_one(self, state, h):
        ratio, h = step(self, state, h)
        return ratio + 1.0, h

    monkeypatch.setattr(FastPolicy, "step", off_by_one)
    result, _, record = bench(capsys, "serve_ticks")
    assert record["checks"]["batched_matches_single_flow"] is False
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_nonfinite_losses_count_as_failed_steps(tiny, capsys, monkeypatch):
    from repro.train.engine import FastCRRTrainer

    step = FastCRRTrainer.train_step

    def poisoned(self):
        metrics = step(self)
        return {**metrics, "critic_loss": float("nan")}

    monkeypatch.setattr(FastCRRTrainer, "train_step", poisoned)
    result, _, record = bench(capsys, "train")
    assert record["checks"]["losses_finite"] is False
    assert result["failed"] == result["attempted"] > 0


def test_self_time_arithmetic_on_a_synthetic_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tr = Tracer("synthetic", clock=lambda: next(ticks))
    leaf = tr.wrap_aggregate("leaf", lambda: None)
    inner = tr.wrap_aggregate("inner", lambda: leaf())

    root = tr.begin("root")                # 0
    child = tr.begin("child")              # 1
    leaf()                                 # 2 .. 3
    tr.end(child)                          # 4
    inner()                                # 5 .. (leaf 6 .. 7) .. 9
    tr.end(root)                           # 10

    assert (root.duration, root.self_s) == (10.0, 3.0)   # 10 - 3 - 4
    assert (child.duration, child.self_s) == (3.0, 2.0)  # 3 - 1
    assert tr.aggregates[(child.span_id, "leaf")] == [1, 1.0, 1.0]
    assert tr.aggregates[(root.span_id, "inner")] == [1, 4.0, 3.0]
    assert tr.aggregates[(root.span_id, "leaf")] == [1, 1.0, 1.0]
    assert tr.totals("leaf") == (2, 2.0, 2.0)
    assert tr.self_time_sum() == pytest.approx(10.0)
    report = tr.integrity(tolerance_s=1e-9)
    assert report["ok"] and report["min_self_s"] == 1.0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "sagebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "sagebench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
