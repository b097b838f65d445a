"""Tests for repro.datastore: sharded ingest, out-of-core sampling, audit."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.collector.environments import EnvConfig
from repro.collector.parallel import OrderedConsumer, collect_pool_to_store
from repro.collector.pool import PolicyPool, Trajectory, parse_meta
from repro.core.networks import NetworkConfig
from repro.core.training import collect_pool, train_sage_on_pool
from repro.datastore import (
    Manifest,
    ShardWriter,
    ShardedPool,
    merge_stores,
    open_pool,
    pack_pool,
    store_stats,
    verify,
)
from repro.io import read_npz, write_npz

STATE_DIM = 69


def make_traj(rng, i, length=40, scheme=None, env_id=None):
    return Trajectory(
        scheme=scheme or f"s{i % 3}",
        env_id=env_id or f"env-{i}",
        multi_flow=bool(i % 2),
        states=rng.standard_normal((length, STATE_DIM)),
        actions=rng.uniform(0.5, 2.0, size=length),
        rewards=rng.uniform(0.0, 1.0, size=length),
    )


def make_pool(n_traj=9, base_length=40, seed=0):
    rng = np.random.default_rng(seed)
    return PolicyPool([make_traj(rng, i, base_length + i) for i in range(n_traj)])


#: budget small enough that a default pool spans several shards
TINY_SHARD = 2 * 40 * STATE_DIM * 8


# --------------------------------------------------------------------------
# ShardWriter
# --------------------------------------------------------------------------


class TestShardWriter:
    def test_streaming_ingest_cuts_shards(self, tmp_path):
        pool = make_pool()
        with ShardWriter(tmp_path / "st", shard_bytes=TINY_SHARD) as w:
            for t in pool.trajectories:
                w.add(t)
            assert w.n_trajectories == len(pool)
        sp = ShardedPool.open(tmp_path / "st")
        assert len(sp.manifest.shards) > 1
        assert sp.n_transitions == pool.n_transitions
        # no stray tmp files after atomic commits
        assert not list((tmp_path / "st").glob("*.tmp"))

    def test_rejects_zero_length(self, tmp_path):
        t = make_traj(np.random.default_rng(0), 0, length=0)
        with ShardWriter(tmp_path / "st") as w:
            with pytest.raises(ValueError, match="zero-length"):
                w.add(t)

    def test_rejects_state_dim_mismatch(self, tmp_path):
        rng = np.random.default_rng(0)
        bad = Trajectory(
            scheme="s", env_id="e", multi_flow=False,
            states=rng.standard_normal((10, STATE_DIM + 1)),
            actions=rng.uniform(0.5, 2.0, 10), rewards=rng.uniform(0, 1, 10),
        )
        with ShardWriter(tmp_path / "st") as w:
            w.add(make_traj(rng, 1, length=10))
            with pytest.raises(ValueError, match="state_dim"):
                w.add(bad)

    def test_existing_store_needs_append(self, tmp_path):
        with ShardWriter(tmp_path / "st") as w:
            w.add(make_traj(np.random.default_rng(0), 1, length=10))
        with pytest.raises(FileExistsError):
            ShardWriter(tmp_path / "st")
        with ShardWriter(tmp_path / "st", append=True) as w:
            w.add(make_traj(np.random.default_rng(1), 2, length=12))
        assert len(ShardedPool.open(tmp_path / "st")) == 2

    def test_empty_store_round_trip(self, tmp_path):
        with ShardWriter(tmp_path / "st"):
            pass
        sp = ShardedPool.open(tmp_path / "st")
        assert len(sp) == 0 and sp.n_transitions == 0
        with pytest.raises(ValueError, match="no trajectory"):
            sp.sample_sequences(4, 8, np.random.default_rng(0))

    def test_manifest_survives_midstream(self, tmp_path):
        """Every flush leaves a loadable store — crash-safe prefix."""
        w = ShardWriter(tmp_path / "st", shard_bytes=1)  # flush every add
        w.add(make_traj(np.random.default_rng(0), 1, length=10))
        w.add(make_traj(np.random.default_rng(1), 2, length=10))
        # no close(): simulate a killed collector
        sp = ShardedPool.open(tmp_path / "st")
        assert len(sp) == 2


# --------------------------------------------------------------------------
# ShardedPool: API parity + bit-identical sampling
# --------------------------------------------------------------------------


class TestShardedPool:
    def test_inventory_parity(self, tmp_path):
        pool = make_pool()
        sp = pack_pool(pool, tmp_path / "st", shard_bytes=TINY_SHARD)
        assert len(sp) == len(pool)
        assert sp.n_transitions == pool.n_transitions
        assert sp.schemes() == pool.schemes()
        assert sp.env_ids() == pool.env_ids()
        # per-scheme summary lines are identical; only the header differs
        assert sp.summary().splitlines()[1:] == pool.summary().splitlines()[1:]

    def test_sampling_bit_identical(self, tmp_path):
        pool = make_pool()
        sp = pack_pool(pool, tmp_path / "st", shard_bytes=TINY_SHARD)
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(8):
            a = pool.sample_sequences(16, 8, r1)
            b = sp.sample_sequences(16, 8, r2)
            for key in ("states", "actions", "rewards", "next_states"):
                assert np.array_equal(a[key], b[key]), key

    def test_sampling_bit_identical_with_normalize(self, tmp_path):
        pool = make_pool()
        sp = pack_pool(pool, tmp_path / "st", shard_bytes=TINY_SHARD)
        norm = lambda s: np.tanh(s)  # noqa: E731
        a = pool.sample_sequences(8, 6, np.random.default_rng(3), normalize=norm)
        b = sp.sample_sequences(8, 6, np.random.default_rng(3), normalize=norm)
        assert np.array_equal(a["states"], b["states"])
        assert np.array_equal(a["next_states"], b["next_states"])

    def test_filtered_views_bit_identical(self, tmp_path):
        pool = make_pool()
        sp = pack_pool(pool, tmp_path / "st", shard_bytes=TINY_SHARD)
        fa = pool.filter_schemes(["s0", "s2"])
        fb = sp.filter_schemes(["s0", "s2"])
        assert fb.schemes() == fa.schemes()
        a = fa.sample_sequences(8, 6, np.random.default_rng(11))
        b = fb.sample_sequences(8, 6, np.random.default_rng(11))
        assert np.array_equal(a["states"], b["states"])

        ea = pool.filter_env(lambda e: e.endswith(("2", "4")))
        eb = sp.filter_env(lambda e: e.endswith(("2", "4")))
        assert eb.env_ids() == ea.env_ids()
        a = ea.sample_sequences(4, 6, np.random.default_rng(12))
        b = eb.sample_sequences(4, 6, np.random.default_rng(12))
        assert np.array_equal(a["states"], b["states"])

    def test_trajectory_materialization(self, tmp_path):
        pool = make_pool(n_traj=4)
        sp = pack_pool(pool, tmp_path / "st", shard_bytes=TINY_SHARD)
        for orig, got in zip(pool.trajectories, sp.iter_trajectories()):
            assert got.scheme == orig.scheme
            assert got.env_id == orig.env_id
            assert got.multi_flow == orig.multi_flow
            assert np.array_equal(got.states, orig.states)
            assert np.array_equal(got.actions, orig.actions)
            assert np.array_equal(got.rewards, orig.rewards)

    def test_lru_cache_bounded(self, tmp_path):
        pool = make_pool()
        sp = pack_pool(pool, tmp_path / "st", shard_bytes=TINY_SHARD)
        sp = ShardedPool(sp.root, sp.manifest, max_open_shards=1)
        assert len(sp.manifest.shards) > 2
        r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
        a = pool.sample_sequences(32, 8, r1)
        b = sp.sample_sequences(32, 8, r2)
        assert np.array_equal(a["states"], b["states"])
        assert len(sp.cache._open) == 1
        assert sp.cache.misses >= len(sp.manifest.shards) - 1

    def test_no_concat_cache(self, tmp_path):
        sp = pack_pool(make_pool(), tmp_path / "st")
        sp.sample_sequences(8, 6, np.random.default_rng(0))
        assert not hasattr(sp, "_concat")
        sp.drop_cache()
        assert len(sp.cache._open) == 0
        # sampling transparently reopens shards after drop_cache
        sp.sample_sequences(8, 6, np.random.default_rng(1))

    def test_open_pool_dispatches_on_path(self, tmp_path):
        pool = make_pool(n_traj=3)
        pool.save(tmp_path / "p.npz")
        pack_pool(pool, tmp_path / "st")
        assert isinstance(open_pool(tmp_path / "p.npz"), PolicyPool)
        assert isinstance(open_pool(tmp_path / "st"), ShardedPool)


# --------------------------------------------------------------------------
# Persistence edge cases (legacy .npz)
# --------------------------------------------------------------------------


class TestPersistenceEdgeCases:
    def test_empty_pool_round_trip(self, tmp_path):
        PolicyPool().save(tmp_path / "p.npz")
        pool = PolicyPool.load(tmp_path / "p.npz")
        assert len(pool) == 0 and pool.n_transitions == 0

    def test_save_rejects_zero_length(self, tmp_path):
        pool = PolicyPool([make_traj(np.random.default_rng(0), 0, length=0)])
        with pytest.raises(ValueError, match="zero-length"):
            pool.save(tmp_path / "p.npz")

    def test_truncated_npz_raises_clear_error(self, tmp_path):
        path = tmp_path / "p.npz"
        make_pool(n_traj=3).save(path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            PolicyPool.load(path)

    def test_garbage_file_raises_clear_error(self, tmp_path):
        path = tmp_path / "p.npz"
        path.write_bytes(b"not a zip archive at all")
        with pytest.raises(ValueError, match="corrupt or truncated"):
            PolicyPool.load(path)

    def test_pipe_in_env_id_round_trips(self, tmp_path):
        """Regression: env_id containing '|' used to shear the meta line."""
        rng = np.random.default_rng(0)
        pool = PolicyPool([
            make_traj(rng, 0, env_id="bw=24|rtt=0.04|aqm=codel"),
            make_traj(rng, 1, env_id="back\\slash|and|pipes"),
            make_traj(rng, 2, scheme="odd|scheme"),
        ])
        pool.save(tmp_path / "p.npz")
        got = PolicyPool.load(tmp_path / "p.npz")
        assert [t.env_id for t in got.trajectories] == [
            t.env_id for t in pool.trajectories
        ]
        assert [t.scheme for t in got.trajectories] == [
            t.scheme for t in pool.trajectories
        ]
        assert [t.multi_flow for t in got.trajectories] == [
            t.multi_flow for t in pool.trajectories
        ]

    def test_malformed_meta_raises(self, tmp_path):
        path = tmp_path / "p.npz"
        make_pool(n_traj=1).save(path)
        # rewrite the meta entry into nonsense
        payload = read_npz(path, what="pool file")
        payload["meta"] = np.array(["only-one-field"])
        write_npz(path, payload)
        with pytest.raises(ValueError, match="malformed pool meta"):
            PolicyPool.load(path)

    def test_parse_meta_rejects_bad_flag(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_meta("cubic|env|2")
        with pytest.raises(ValueError, match="dangling escape"):
            parse_meta("cubic|env|1\\")


# --------------------------------------------------------------------------
# Integrity audit + quarantine
# --------------------------------------------------------------------------


def corrupt_file(path, offset=200):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


class TestVerifyQuarantine:
    def test_corrupt_shard_is_quarantined_not_fatal(self, tmp_path):
        pool = make_pool()
        sp = pack_pool(pool, tmp_path / "st", shard_bytes=TINY_SHARD)
        n_shards = len(sp.manifest.shards)
        victim = sp.manifest.shards[1]
        corrupt_file(tmp_path / "st" / victim.files["states"].file)

        report = verify(tmp_path / "st")
        assert not report.clean
        assert report.quarantined == [victim.name]
        assert report.dropped_trajectories == victim.n_trajectories
        # quarantined files moved, not deleted
        qdir = tmp_path / "st" / "quarantine"
        assert (qdir / victim.files["states"].file).exists()

        survivor = ShardedPool.open(tmp_path / "st")
        assert len(survivor.manifest.shards) == n_shards - 1
        assert len(survivor) == len(pool) - victim.n_trajectories
        survivor.sample_sequences(8, 6, np.random.default_rng(0))

    def test_missing_shard_file_is_quarantined(self, tmp_path):
        sp = pack_pool(make_pool(), tmp_path / "st", shard_bytes=TINY_SHARD)
        victim = sp.manifest.shards[0]
        (tmp_path / "st" / victim.files["rewards"].file).unlink()
        report = verify(tmp_path / "st")
        assert report.quarantined == [victim.name]

    def test_no_quarantine_leaves_store_untouched(self, tmp_path):
        sp = pack_pool(make_pool(), tmp_path / "st", shard_bytes=TINY_SHARD)
        victim = sp.manifest.shards[0]
        corrupt_file(tmp_path / "st" / victim.files["states"].file)
        report = verify(tmp_path / "st", quarantine=False)
        assert not report.clean and not report.quarantined
        assert (tmp_path / "st" / victim.files["states"].file).exists()
        assert len(ShardedPool.open(tmp_path / "st").manifest.shards) == len(
            sp.manifest.shards
        )

    def test_clean_store_verifies(self, tmp_path):
        pack_pool(make_pool(), tmp_path / "st")
        report = verify(tmp_path / "st")
        assert report.clean and "OK" in report.format()

    def test_schema_version_mismatch(self, tmp_path):
        pack_pool(make_pool(n_traj=2), tmp_path / "st")
        mpath = tmp_path / "st" / "manifest.json"
        data = json.loads(mpath.read_text())
        data["schema_version"] = 99
        mpath.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema version"):
            ShardedPool.open(tmp_path / "st")

    def test_not_a_store(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a trajectory store"):
            Manifest.load(tmp_path)


# --------------------------------------------------------------------------
# Streaming collection + ordered commit
# --------------------------------------------------------------------------


def tiny_envs(n=2):
    return [
        EnvConfig(
            env_id=f"t{i}", kind="flat", bw_mbps=12.0 + 12.0 * i,
            min_rtt=0.04, buffer_bdp=2.0, duration=2.0,
        )
        for i in range(n)
    ]


class TestStreamingCollect:
    def test_ordered_consumer_reserializes(self):
        seen = []
        consumer = OrderedConsumer(seen.append)
        for index in (2, 0, 3, 1, 4):
            consumer(index, f"r{index}")
        assert seen == ["r0", "r1", "r2", "r3", "r4"]
        assert consumer.held == 0

    def test_ordered_consumer_finish_skips_gaps(self):
        seen = []
        consumer = OrderedConsumer(seen.append)
        consumer(0, "r0")
        consumer(2, "r2")  # index 1 failed permanently
        consumer.finish()
        assert seen == ["r0", "r2"]

    def test_streamed_store_matches_in_memory_pool(self, tmp_path):
        envs, schemes = tiny_envs(), ["cubic", "vegas"]
        mem = collect_pool(envs, schemes=schemes, workers=1)
        sharded = collect_pool(
            envs, schemes=schemes, workers=2,
            store=tmp_path / "st", shard_bytes=1 << 16,
        )
        assert isinstance(sharded, ShardedPool)
        assert sharded.n_transitions == mem.n_transitions
        a = mem.sample_sequences(8, 6, np.random.default_rng(1))
        b = sharded.sample_sequences(8, 6, np.random.default_rng(1))
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_collect_pool_to_store_into_open_writer(self, tmp_path):
        writer = ShardWriter(tmp_path / "st")
        sp = collect_pool_to_store(
            tiny_envs(1), ["cubic"], writer, workers=1
        )
        assert len(sp) == 1
        # the writer was left open for further appends
        writer.add(make_traj(np.random.default_rng(0), 5, length=20))
        writer.close()
        assert len(ShardedPool.open(tmp_path / "st")) == 2


# --------------------------------------------------------------------------
# Merge + stats + training end-to-end
# --------------------------------------------------------------------------


class TestMergeStatsTrain:
    def test_merge_stores(self, tmp_path):
        p1, p2 = make_pool(n_traj=3, seed=1), make_pool(n_traj=4, seed=2)
        pack_pool(p1, tmp_path / "a")
        pack_pool(p2, tmp_path / "b")
        merged = merge_stores(
            [tmp_path / "a", tmp_path / "b"], tmp_path / "out",
            shard_bytes=TINY_SHARD,
        )
        assert len(merged) == 7
        assert merged.n_transitions == p1.n_transitions + p2.n_transitions
        both = PolicyPool(p1.trajectories + p2.trajectories)
        a = both.sample_sequences(8, 6, np.random.default_rng(9))
        b = merged.sample_sequences(8, 6, np.random.default_rng(9))
        assert np.array_equal(a["states"], b["states"])

    def test_stats_reports_schemes_and_checksums(self, tmp_path):
        pool = make_pool()
        pack_pool(pool, tmp_path / "st", shard_bytes=TINY_SHARD)
        text = store_stats(tmp_path / "st")
        # summary() parity: the same per-scheme lines PolicyPool prints
        for line in pool.summary().splitlines()[1:]:
            assert line in text
        assert "crc32" in text and "shard-00000" in text

    def test_training_identical_on_either_pool(self, tmp_path):
        pool = make_pool(n_traj=6, base_length=30, seed=4)
        sp = pack_pool(pool, tmp_path / "st", shard_bytes=TINY_SHARD)
        net = NetworkConfig(enc_dim=8, gru_dim=8, n_components=2, n_atoms=5)
        run_mem = train_sage_on_pool(
            pool, n_steps=4, n_checkpoints=2, net_config=net, seed=3
        )
        run_shard = train_sage_on_pool(
            sp, n_steps=4, n_checkpoints=2, net_config=net, seed=3
        )
        sd_mem = run_mem.agent.policy.state_dict()
        sd_shard = run_shard.agent.policy.state_dict()
        assert sd_mem.keys() == sd_shard.keys()
        for key in sd_mem:
            assert np.array_equal(sd_mem[key], sd_shard[key]), key
        # drop_cache ran after the epochs: the concat copy is released
        assert pool._concat is None


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


class TestPoolCLI:
    def test_pack_verify_stats_merge(self, tmp_path, capsys):
        pool = make_pool()
        npz = tmp_path / "pool.npz"
        pool.save(npz)

        assert main(["pool", "pack", str(npz), str(tmp_path / "st"),
                     "--shard-mb", "1"]) == 0
        out = capsys.readouterr().out
        assert "packed" in out and "ShardedPool" in out

        assert main(["pool", "verify", str(tmp_path / "st")]) == 0
        assert "all shard checksums OK" in capsys.readouterr().out

        assert main(["pool", "stats", str(tmp_path / "st")]) == 0
        out = capsys.readouterr().out
        for line in pool.summary().splitlines()[1:]:
            assert line in out

        assert main(["pool", "merge", str(tmp_path / "st"), str(npz),
                     "-o", str(tmp_path / "merged")]) == 0
        assert len(ShardedPool.open(tmp_path / "merged")) == 2 * len(pool)

    def test_verify_quarantines_via_cli(self, tmp_path, capsys):
        sp = pack_pool(make_pool(), tmp_path / "st", shard_bytes=TINY_SHARD)
        victim = sp.manifest.shards[0]
        corrupt_file(tmp_path / "st" / victim.files["states"].file)
        # default: quarantine and keep going (exit 0)
        assert main(["pool", "verify", str(tmp_path / "st")]) == 0
        assert "quarantined 1 shard" in capsys.readouterr().out
        # the survivor store is clean now; --strict passes
        assert main(["pool", "verify", str(tmp_path / "st"), "--strict"]) == 0

    def test_verify_strict_fails_on_corruption(self, tmp_path, capsys):
        sp = pack_pool(make_pool(), tmp_path / "st", shard_bytes=TINY_SHARD)
        victim = sp.manifest.shards[0]
        corrupt_file(tmp_path / "st" / victim.files["actions"].file)
        assert main(["pool", "verify", str(tmp_path / "st"), "--strict",
                     "--no-quarantine"]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_train_on_store_via_cli(self, tmp_path):
        pack_pool(make_pool(), tmp_path / "st")
        assert main([
            "train", "--pool", str(tmp_path / "st"), "--steps", "2",
            "--checkpoints", "1", "--out", str(tmp_path / "sage.npz"),
            "--enc-dim", "8", "--gru-dim", "8",
            "--components", "2", "--atoms", "5",
        ]) == 0
        assert (tmp_path / "sage.npz").exists()
