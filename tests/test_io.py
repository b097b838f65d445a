"""The one persistence primitive (repro.io).

The contract under test:

- ``write_npz``/``read_npz`` round-trip arrays exactly, with an in-archive
  integrity record that is mandatory: an archive without it is refused;
- a corruption sweep over every artifact type — trainer checkpoint,
  distilled tree, ECN model, server snapshot, agent params, ``PolicyPool``
  and telemetry trace. Each flipped byte either makes the real loader raise
  a ``ValueError`` naming the file, or the loader returns state
  bit-identical to what was saved; never altered state, never another
  exception type;
- a kill between the steps of ``write_npz``/``write_json`` leaves the
  complete old or the complete new artifact under the path.
"""

import json
import os
import struct

import numpy as np
import pytest

import repro.io as rio
from repro.collector.gr_unit import STATE_DIM
from repro.collector.pool import PolicyPool, Trajectory
from repro.core.crr import CRRConfig
from repro.core.networks import NetworkConfig, SagePolicy
from repro.distill import DistilledPolicy, fit_distilled
from repro.io import INTEGRITY_KEY, read_npz, write_json, write_npz
from repro.netsim.ecn_model import EcnPredictor
from repro.netsim.telemetry import QueueTelemetryRecorder, load_traces
from repro.nn.layers import LayerNorm, Linear, Sequential
from repro.nn.serial import load_params, save_params
from repro.serve.engine import PolicyServer, ServeConfig
from repro.train.engine import FastCRRTrainer

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=2, n_atoms=7)


def _pool(n_traj=3, length=24, seed=0):
    rng = np.random.default_rng(seed)
    return PolicyPool(
        [
            Trajectory(
                scheme=f"s{i}", env_id=f"e{i}", multi_flow=bool(i % 2),
                states=rng.normal(size=(length, STATE_DIM)),
                actions=np.abs(rng.normal(size=length)) + 0.5,
                rewards=rng.normal(size=length),
            )
            for i in range(n_traj)
        ]
    )


def _fingerprint(state):
    """Exact, comparable form of a nested dict of arrays and scalars."""
    if isinstance(state, dict):
        return {k: _fingerprint(v) for k, v in state.items()}
    if isinstance(state, (list, tuple)):
        return [_fingerprint(v) for v in state]
    if isinstance(state, np.ndarray):
        return (state.dtype.str, state.shape, state.tobytes())
    return state


# ---------------------------------------------------------------------------
# the primitive
# ---------------------------------------------------------------------------


class TestNpz:
    def test_round_trip_exact(self, tmp_path):
        arrays = {
            "a/f64": np.arange(6.0).reshape(2, 3),
            "b/i32": np.array([1, -2], dtype=np.int32),
            "c/str": np.array(["x|y", "z"]),
            "d/bool": np.array([True, False]),
            "e/scalar": np.array(3.5),
            "f/empty": np.zeros((0, 4)),
        }
        path = write_npz(tmp_path / "a.npz", arrays)
        got = read_npz(path, what="test artifact")
        assert _fingerprint(got) == _fingerprint(arrays)
        assert not (tmp_path / "a.npz.tmp").exists()
        with np.load(path, allow_pickle=False) as data:
            assert INTEGRITY_KEY in data.files  # the record rides inside

    def test_record_is_mandatory(self, tmp_path):
        path = tmp_path / "raw.npz"
        np.savez_compressed(path, x=np.zeros(3))
        with pytest.raises(ValueError, match="no integrity record"):
            read_npz(path, what="test artifact")

    def test_record_covers_member_names(self, tmp_path):
        # same bytes under another name: the zip's own CRCs still pass
        path = write_npz(tmp_path / "a.npz", {"meta/history/a": np.ones(2)})
        raw = path.read_bytes().replace(b"history/a", b"history/b")
        path.write_bytes(raw)
        with np.load(path, allow_pickle=False) as data:
            assert "meta/history/b" in data.files
        with pytest.raises(ValueError, match="a.npz.*integrity"):
            read_npz(path, what="test artifact")

    def test_reserved_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            write_npz(tmp_path / "a.npz", {INTEGRITY_KEY: np.zeros(1)})

    def test_missing_file_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_npz(tmp_path / "nope.npz", what="test artifact")

    def test_required_keys_and_schema(self, tmp_path):
        path = write_npz(
            tmp_path / "a.npz", {"meta/schema_version": np.array([2])}
        )
        with pytest.raises(ValueError, match=r"missing keys \['x'\]"):
            read_npz(path, what="test artifact", required=("x",))
        with pytest.raises(ValueError, match="schema version 2"):
            read_npz(path, what="test artifact", schema_version=1)
        assert read_npz(path, what="test artifact", schema_version=2)


# ---------------------------------------------------------------------------
# corruption sweep: every artifact type through its real loader
# ---------------------------------------------------------------------------


def _trainer_case(tmp_path):
    def make():
        return FastCRRTrainer(
            _pool(), net_config=TINY,
            config=CRRConfig(batch_size=8, seq_len=4), seed=0,
        )

    trainer = make()
    trainer.train(1)
    path = tmp_path / "checkpoint.npz"
    trainer.save_checkpoint(path)
    fresh = make()

    def load(p):
        fresh.load_checkpoint(p)
        return fresh.capture_state()

    return path, trainer.capture_state(), load


def _distilled_case(tmp_path):
    policy = SagePolicy(TINY, np.random.default_rng(0))
    distilled, _ = fit_distilled(policy, _pool(n_traj=2))
    path = tmp_path / "tree.npz"
    distilled.save(path)

    def state(d):
        return {
            **{a: getattr(d.tree, a) for a in
               ("feature", "threshold", "left", "right", "value", "conf")},
            "meta": (d.conf_threshold, d.refresh_every, d.tree.depth, d.meta),
        }

    return path, state(distilled), lambda p: state(DistilledPolicy.load(p))


def _ecn_case(tmp_path):
    model = EcnPredictor.init(hidden=4, seed=3)
    path = tmp_path / "ecn.npz"
    model.save(path)

    def state(m):
        return {"w": [m.w1, m.b1, m.w2, m.b2], "meta": m.meta}

    return path, state(model), lambda p: state(EcnPredictor.load(p))


def _snapshot_case(tmp_path):
    policy = SagePolicy(TINY, np.random.default_rng(0))
    cfg = ServeConfig(deterministic=True, tick_budget=None)
    server = PolicyServer(policy, cfg)
    rng = np.random.default_rng(1)
    for flow in range(3):
        server.connect(flow)
    for _ in range(2):
        for flow in range(3):
            server.submit(flow, np.abs(rng.standard_normal(STATE_DIM)), 20.0)
        server.tick()
    server.submit(0, np.abs(rng.standard_normal(STATE_DIM)), 20.0)
    path = tmp_path / "snap.npz"
    server.snapshot(path)
    fresh = PolicyServer(policy, cfg)

    def state(s):
        return {
            "cols": [s._table, s._last_ratio, s._cwnd_est, s._miss_streak,
                     s._degraded, s._nn_age],
            "free": list(s._free),
            "tick": s._tick_index,
            "sessions": sorted(s._sessions),
            "pending": {f: v[0] for f, v in s._pending.items()},
        }

    def load(p):
        fresh.restore(p)
        return state(fresh)

    return path, state(server), load


def _params_case(tmp_path):
    rng = np.random.default_rng(0)
    module = Sequential(Linear(3, 4, rng), LayerNorm(4))
    path = tmp_path / "params.npz"
    save_params(module, path)
    target = Sequential(Linear(3, 4, rng), LayerNorm(4))

    def load(p):
        load_params(target, p)
        return target.state_dict()

    return path, module.state_dict(), load


def _pool_case(tmp_path):
    pool = _pool(n_traj=2, length=8)
    path = tmp_path / "pool.npz"
    pool.save(path)

    def state(pl):
        return [
            [t.scheme, t.env_id, t.multi_flow, t.states, t.actions, t.rewards]
            for t in pl.trajectories
        ]

    return path, state(pool), lambda p: state(PolicyPool.load(p))


def _trace_case(tmp_path):
    rec = QueueTelemetryRecorder()
    rng = np.random.default_rng(0)
    rec.features = [list(row) for row in rng.uniform(size=(5, 4))]
    rec.sojourns = list(rng.uniform(size=5))
    path = rec.save(tmp_path / "trace.npz")
    return path, rec.to_arrays(), load_traces


ARTIFACTS = {
    "trainer-checkpoint": _trainer_case,
    "distilled-tree": _distilled_case,
    "ecn-model": _ecn_case,
    "server-snapshot": _snapshot_case,
    "agent-params": _params_case,
    "policy-pool": _pool_case,
    "telemetry-trace": _trace_case,
}


def _central_directory_start(raw: bytes) -> int:
    eocd = raw.rfind(b"PK\x05\x06")
    (cd_offset,) = struct.unpack("<I", raw[eocd + 16:eocd + 20])
    return cd_offset


def _flip_offsets(raw: bytes, name: str):
    """Every central-directory byte (through the end record) plus a
    stride over the member data. The trainer checkpoint's directory holds
    ~18k bytes for ~260 members and each load reads all of them, so there
    the directory is strided too, by a prime step that lands on every
    field offset of the entry layout across entries."""
    cd = _central_directory_start(raw)
    trainer = name == "trainer-checkpoint"
    return sorted(
        set(range(cd, len(raw), 127 if trainer else 1))
        | set(range(len(raw) - 22, len(raw)))  # the end record, always
        | set(range(0, cd, max(1, cd // (40 if trainer else 150))))
    )


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_corruption_sweep(name, tmp_path):
    path, saved, load = ARTIFACTS[name](tmp_path)
    want = _fingerprint(saved)
    assert _fingerprint(load(path)) == want
    raw = path.read_bytes()
    refused = 0
    for offset in _flip_offsets(raw, name):
        flipped = bytearray(raw)
        flipped[offset] ^= 0xFF
        path.write_bytes(bytes(flipped))
        try:
            got = load(path)
        except ValueError as exc:
            assert str(path) in str(exc), (offset, exc)
            refused += 1
            continue
        assert _fingerprint(got) == want, f"altered state at byte {offset}"
    assert refused > 0


# ---------------------------------------------------------------------------
# kills between the steps of a write
# ---------------------------------------------------------------------------


class _Killed(BaseException):
    """Stands in for process death: no ``except Exception`` catches it."""


def _die(*args, **kw):
    raise _Killed


def _kill_mid_tmp_write(monkeypatch, kind):
    if kind == "npz":
        real = np.savez_compressed

        def write(fh, **arrays):
            real(fh, **arrays)
            fh.truncate(fh.tell() // 2)
            raise _Killed

        monkeypatch.setattr(rio.np, "savez_compressed", write)
    else:
        real = rio.Path.write_text

        def write(self, text, *args, **kw):
            real(self, text[: len(text) // 2], *args, **kw)
            raise _Killed

        monkeypatch.setattr(rio.Path, "write_text", write)


def _kill_after_tmp_write(monkeypatch, kind):
    target, attr = (
        (rio.np, "savez_compressed") if kind == "npz"
        else (rio.Path, "write_text")
    )
    real = getattr(target, attr)

    def write(*args, **kw):
        real(*args, **kw)
        raise _Killed

    monkeypatch.setattr(target, attr, write)


def _kill_before_replace(monkeypatch, kind):
    monkeypatch.setattr(rio.os, "replace", _die)


def _kill_after_replace(monkeypatch, kind):
    real = os.replace

    def replace(src, dst):
        real(src, dst)
        raise _Killed

    monkeypatch.setattr(rio.os, "replace", replace)


KILLS = {
    "mid-tmp-write": (_kill_mid_tmp_write, "old"),
    "after-tmp-write": (_kill_after_tmp_write, "old"),
    "before-replace": (_kill_before_replace, "old"),
    "after-replace": (_kill_after_replace, "new"),
}


@pytest.mark.parametrize("kill", sorted(KILLS))
def test_kill_during_write_npz(kill, tmp_path, monkeypatch):
    inject, survivor = KILLS[kill]
    path = tmp_path / "artifact.npz"
    old = {"w": np.arange(4.0), "meta/step": np.array([1])}
    new = {"w": np.arange(4.0) * 2, "meta/step": np.array([2])}
    write_npz(path, old)
    with monkeypatch.context() as m:
        inject(m, "npz")
        with pytest.raises(_Killed):
            write_npz(path, new)
    want = old if survivor == "old" else new
    assert _fingerprint(read_npz(path, what="artifact")) == _fingerprint(want)
    write_npz(path, new)  # the next write replaces any leftover tmp
    assert _fingerprint(read_npz(path, what="artifact")) == _fingerprint(new)


@pytest.mark.parametrize("kill", sorted(KILLS))
def test_kill_during_write_json(kill, tmp_path, monkeypatch):
    inject, survivor = KILLS[kill]
    path = tmp_path / "state.json"
    old, new = {"step": 1, "done": []}, {"step": 2, "done": ["a"]}
    write_json(path, old)
    with monkeypatch.context() as m:
        inject(m, "json")
        with pytest.raises(_Killed):
            write_json(path, new)
    assert json.loads(path.read_text()) == (old if survivor == "old" else new)
