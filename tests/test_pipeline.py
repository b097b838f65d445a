"""The supervised, resumable pipeline (repro.pipeline).

The contract under test:

- the supervisor journals every transition atomically, retries failing
  stages with backoff, and survives ``kill -9`` at any instant — resume
  skips validated ``done`` stages and restarts the interrupted one;
- a chaos-mode run (worker crash + hang, shard bit-flip, NaN training
  batch) exits cleanly with **every artifact bit-identical** to a
  fault-free run's, and ``pipeline status`` reports each fault with its
  recovery action;
- a mid-flush ``kill -9`` leaves the sharded store valid (every shard
  committed before the kill, never a torn manifest).
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.pipeline import (
    PipelineConfig,
    PipelineError,
    PipelineState,
    StageSpec,
    Supervisor,
    build_supervisor,
)
from repro.pipeline.state import StageState

REPO = Path(__file__).resolve().parent.parent

# small enough for tests, big enough to cross every subsystem
PIPE_KW = dict(
    scale="mini", schemes=("cubic",), workers=1, n_steps=4, eval_duration=1.0
)

ACCEPTANCE_FAULTS = [
    FaultSpec("collector.crash", target=2),
    FaultSpec("collector.hang", target=3, param=30.0),
    FaultSpec("datastore.bitflip", target=0),
    FaultSpec("train.nan", target=3),
]


def _config(workdir, **overrides):
    kw = dict(PIPE_KW)
    kw.update(overrides)
    return PipelineConfig(workdir=str(workdir), **kw)


def _checkpoint_arrays(path):
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k].tobytes() for k in data.files}


def _store_digest(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """One fault-free pipeline run; the bit-identity reference."""
    cfg = _config(tmp_path_factory.mktemp("pipe_clean"))
    state = build_supervisor(cfg).run(config=cfg.to_json())
    return cfg, state


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    """One run under the acceptance fault plan (crash+hang+bitflip+NaN)."""
    workdir = tmp_path_factory.mktemp("pipe_chaos")
    plan_path = workdir / "plan.json"
    FaultPlan(seed=0, faults=ACCEPTANCE_FAULTS).save(plan_path)
    cfg = _config(workdir, fault_plan=str(plan_path))
    with np.errstate(invalid="ignore"):
        state = build_supervisor(cfg).run(config=cfg.to_json())
    return cfg, state


# ---------------------------------------------------------------------------
# Supervisor mechanics (no simulator involved)
# ---------------------------------------------------------------------------


class TestSupervisor:
    def test_runs_stages_in_order(self, tmp_path):
        order = []
        stages = [
            StageSpec("a", lambda ctx: order.append("a") or {"n": 1}),
            StageSpec("b", lambda ctx: order.append("b") or {}),
        ]
        state = Supervisor(stages, tmp_path / "s.json").run()
        assert order == ["a", "b"]
        assert state.complete
        assert state.stage("a").info == {"n": 1}

    def test_retry_then_succeed(self, tmp_path):
        attempts = []

        def flaky(ctx):
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return {}

        spec = StageSpec("flaky", flaky, retries=2, backoff_s=0.0)
        state = Supervisor([spec], tmp_path / "s.json").run()
        assert len(attempts) == 3
        assert state.stage("flaky").status == "done"
        assert state.stage("flaky").attempts == 3

    def test_exhausted_retries_fail_and_persist(self, tmp_path):
        def doomed(ctx):
            raise RuntimeError("permanent")

        path = tmp_path / "s.json"
        spec = StageSpec("doomed", doomed, retries=1, backoff_s=0.0)
        with pytest.raises(PipelineError, match="doomed"):
            Supervisor([spec], path).run()
        reloaded = PipelineState.load(path)
        assert reloaded.stage("doomed").status == "failed"
        assert "permanent" in reloaded.stage("doomed").error

    def test_resume_skips_validated_done_stages(self, tmp_path):
        runs = []
        stages = [
            StageSpec("a", lambda ctx: runs.append("a") or {},
                      check=lambda ctx: True),
            StageSpec("b", lambda ctx: runs.append("b") or {}),
        ]
        path = tmp_path / "s.json"
        Supervisor(stages, path).run()
        Supervisor(stages, path).run(resume=True)
        # a's check passed, b has no check (journal trusted): both skipped
        assert runs == ["a", "b"]

    def test_resume_reruns_stage_failing_validation(self, tmp_path):
        runs = []
        stages = [
            StageSpec("a", lambda ctx: runs.append("a") or {},
                      check=lambda ctx: False),
        ]
        path = tmp_path / "s.json"
        Supervisor(stages, path).run()
        Supervisor(stages, path).run(resume=True)
        assert runs == ["a", "a"]

    def test_interrupted_running_stage_restarts_on_resume(self, tmp_path):
        path = tmp_path / "s.json"
        state = PipelineState(stages=[StageState(name="a", status="running")])
        state.save(path)
        ran = []
        sup = Supervisor([StageSpec("a", lambda ctx: ran.append(1) or {})], path)
        sup.run(resume=True)
        assert ran == [1]
        assert any("interrupted" in e["message"] for e in
                   PipelineState.load(path).events)

    def test_duplicate_stage_names_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            Supervisor(
                [StageSpec("x", lambda c: {}), StageSpec("x", lambda c: {})],
                tmp_path / "s.json",
            )

    def test_state_json_roundtrip(self, tmp_path):
        state = PipelineState(
            config={"k": 1},
            stages=[StageState(name="a", status="done", info={"events": []})],
        )
        state.log("test", "hello")
        path = tmp_path / "s.json"
        state.save(path)
        again = PipelineState.load(path)
        assert again.config == {"k": 1}
        assert again.stage("a").status == "done"
        assert again.events[-1]["message"] == "hello"
        assert (path.parent / (path.name + ".tmp")).exists() is False

    def test_corrupt_state_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{ torn")
        with pytest.raises(ValueError, match="corrupt"):
            PipelineState.load(path)


# ---------------------------------------------------------------------------
# The acceptance run: all faults masked, artifacts bit-identical
# ---------------------------------------------------------------------------


class TestChaosPipeline:
    def test_chaos_run_completes(self, chaos_run):
        _, state = chaos_run
        assert state.complete

    def test_every_fault_reported_with_recovery(self, chaos_run):
        _, state = chaos_run
        kinds = [ev["kind"] for ev in state.fault_log()]
        assert "crash" in kinds
        assert "hang" in kinds
        assert "corrupt-shard" in kinds
        assert "store-repair" in kinds
        assert any(k.startswith("train-") for k in kinds)
        for ev in state.fault_log():
            assert ev["action"], ev  # every fault names its recovery

    def test_status_renders_fault_log(self, chaos_run):
        _, state = chaos_run
        text = state.format_status()
        assert "faults caught & recovered" in text
        assert "pipeline complete" in text

    def test_checkpoint_bit_identical_to_fault_free(self, clean_run, chaos_run):
        clean_cfg, _ = clean_run
        chaos_cfg, _ = chaos_run
        a = _checkpoint_arrays(clean_cfg.checkpoint_path)
        b = _checkpoint_arrays(chaos_cfg.checkpoint_path)
        assert set(a) == set(b)
        for key in a:
            assert a[key] == b[key], key

    def test_repaired_store_byte_identical_to_fault_free(
        self, clean_run, chaos_run
    ):
        clean_cfg, _ = clean_run
        chaos_cfg, _ = chaos_run
        assert _store_digest(clean_cfg.store_dir) == _store_digest(
            chaos_cfg.store_dir
        )

    def test_eval_results_identical(self, clean_run, chaos_run):
        clean_cfg, _ = clean_run
        chaos_cfg, _ = chaos_run
        a = json.loads(clean_cfg.eval_path.read_text())
        b = json.loads(chaos_cfg.eval_path.read_text())
        assert a["mean_reward"] == b["mean_reward"]
        assert a["ticks"] == b["ticks"]


# ---------------------------------------------------------------------------
# kill -9 and resume
# ---------------------------------------------------------------------------


class _BoundaryKill(Exception):
    """Stands in for process death exactly at a stage boundary."""


class _ProcessDeath(BaseException):
    """Process death mid-stage: the supervisor can neither catch nor
    journal it, so the stage is left ``running`` like after ``kill -9``."""


class TestKillResume:
    def test_killed_at_every_stage_boundary_then_resumed(
        self, tmp_path, clean_run
    ):
        # Die at each successive boundary (state persisted, process gone),
        # resuming after every death; the survivors chain must reach the
        # same final checkpoint as an uninterrupted run.
        clean_cfg, _ = clean_run
        cfg = _config(tmp_path / "run")
        boundaries = ["collect", "verify", "train", "eval"]

        def die_at(boundary):
            def hook(name, state):
                if name == boundary:
                    raise _BoundaryKill(boundary)
            return hook

        for i, boundary in enumerate(boundaries):
            sup = build_supervisor(cfg, after_stage=die_at(boundary))
            with pytest.raises(_BoundaryKill):
                sup.run(resume=i > 0, config=cfg.to_json())
        final = build_supervisor(cfg).run(resume=True, config=cfg.to_json())
        assert final.complete
        a = _checkpoint_arrays(clean_cfg.checkpoint_path)
        b = _checkpoint_arrays(cfg.checkpoint_path)
        for key in a:
            assert a[key] == b[key], key

    def test_real_sigkill_at_stage_boundary_then_resume(
        self, tmp_path, clean_run
    ):
        clean_cfg, _ = clean_run
        workdir = tmp_path / "run"
        driver = f"""
import os, signal, sys
sys.path.insert(0, {str(REPO / "src")!r})
from repro.pipeline import PipelineConfig, build_supervisor
cfg = PipelineConfig(workdir={str(workdir)!r}, **{PIPE_KW!r})
def die(name, state):
    if name == "collect":
        os.kill(os.getpid(), signal.SIGKILL)
sup = build_supervisor(cfg, after_stage=die)
sup.run(config=cfg.to_json())
"""
        proc = subprocess.run(
            [sys.executable, "-c", driver], capture_output=True, timeout=300
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        journal = PipelineState.load(workdir / "pipeline_state.json")
        assert journal.stage("collect").status == "done"
        assert not journal.complete

        cfg = _config(workdir)
        state = build_supervisor(cfg).run(resume=True, config=cfg.to_json())
        assert state.complete
        a = _checkpoint_arrays(clean_cfg.checkpoint_path)
        b = _checkpoint_arrays(cfg.checkpoint_path)
        for key in a:
            assert a[key] == b[key], key

    def test_mid_train_checkpoint_resume_bit_identical(
        self, tmp_path, clean_run, monkeypatch
    ):
        # Die mid-train (after the step-2 checkpoint committed); resume
        # must continue from the checkpoint — not restart — and land on
        # the uninterrupted run's exact weights.
        clean_cfg, _ = clean_run
        cfg = _config(tmp_path / "run")
        from repro.train.engine import FastCRRTrainer

        real_train = FastCRRTrainer.train

        def dying_train(self, n_steps, **kw):
            real_train(self, 2, **kw)  # checkpoint_every=1 -> ckpt at 1, 2
            raise _BoundaryKill("mid-train")

        monkeypatch.setattr(FastCRRTrainer, "train", dying_train)
        with pytest.raises(PipelineError):
            build_supervisor(cfg).run(config=cfg.to_json())
        monkeypatch.setattr(FastCRRTrainer, "train", real_train)

        state = build_supervisor(cfg).run(resume=True, config=cfg.to_json())
        assert state.complete
        info = state.stage("train").info
        assert any(e["kind"] == "train-resume" for e in info["events"])
        a = _checkpoint_arrays(clean_cfg.checkpoint_path)
        b = _checkpoint_arrays(cfg.checkpoint_path)
        for key in a:
            assert a[key] == b[key], key


    def test_kill_right_after_checkpoint_commit_resumes(
        self, tmp_path, clean_run, monkeypatch
    ):
        # Die the instant the step-2 checkpoint is renamed into place; the
        # committed checkpoint must be resumed from, not discarded.
        clean_cfg, _ = clean_run
        cfg = _config(tmp_path / "run")
        real_replace = os.replace
        commits = []

        def replace(src, dst):
            real_replace(src, dst)
            if os.fspath(dst) == os.fspath(cfg.checkpoint_path):
                commits.append(dst)
                if len(commits) == 2:  # checkpoint_every=1: step 2's commit
                    raise _ProcessDeath

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(_ProcessDeath):
            build_supervisor(cfg).run(config=cfg.to_json())
        monkeypatch.setattr(os, "replace", real_replace)

        state = build_supervisor(cfg).run(resume=True, config=cfg.to_json())
        assert state.complete
        events = state.stage("train").info["events"]
        kinds = [e["kind"] for e in events]
        assert "corrupt-checkpoint" not in kinds, events
        resume = next(e for e in events if e["kind"] == "train-resume")
        assert "step 2" in resume["detail"]
        a = _checkpoint_arrays(clean_cfg.checkpoint_path)
        b = _checkpoint_arrays(cfg.checkpoint_path)
        assert a.keys() == b.keys()
        for key in a:
            assert a[key] == b[key], key


class TestShardWriterKill:
    def test_sigkill_mid_flush_leaves_valid_store(self, tmp_path):
        out = tmp_path / "store"
        driver = f"""
import os, signal, sys
import numpy as np
sys.path.insert(0, {str(REPO / "src")!r})
from repro.collector.pool import Trajectory
from repro.datastore.writer import ShardWriter

def traj(i):
    rng = np.random.default_rng(i)
    return Trajectory(
        scheme="cubic", env_id=f"env-{{i}}", multi_flow=False,
        states=rng.standard_normal((8, 4)),
        actions=rng.uniform(0.5, 2.0, size=8),
        rewards=rng.standard_normal(8),
    )

w = ShardWriter({str(out)!r}, shard_bytes=1)  # one shard per add
w.add(traj(0))  # shard 0 fully committed
real = w._commit_array
def dying(name, arr):
    if name.endswith("rewards.npy"):
        os.kill(os.getpid(), signal.SIGKILL)  # die mid-flush of shard 1
    return real(name, arr)
w._commit_array = dying
w.add(traj(1))
"""
        proc = subprocess.run(
            [sys.executable, "-c", driver], capture_output=True, timeout=120
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        # the manifest references only the shard committed before the kill
        from repro.datastore.manifest import Manifest, verify_store
        from repro.datastore.reader import ShardedPool

        manifest = Manifest.load(out)
        assert len(manifest.shards) == 1
        assert len(manifest.trajectories) == 1
        assert verify_store(out, quarantine=False).clean

        # and the store remains appendable: finish the interrupted ingest
        from repro.collector.pool import Trajectory
        from repro.datastore.writer import ShardWriter

        rng = np.random.default_rng(1)
        with ShardWriter(out, shard_bytes=1, append=True) as w:
            w.add(
                Trajectory(
                    scheme="cubic", env_id="env-1", multi_flow=False,
                    states=rng.standard_normal((8, 4)),
                    actions=rng.uniform(0.5, 2.0, size=8),
                    rewards=rng.standard_normal(8),
                )
            )
        assert verify_store(out, quarantine=False).clean
        pool = ShardedPool.open(out)
        assert len(pool.records) == 2
