"""Tests for the symbolic distillation subsystem (repro.distill)."""

import numpy as np
import pytest

from repro.collector.gr_unit import STATE_DIM
from repro.collector.pool import PolicyPool, Trajectory
from repro.core.networks import FastPolicy, NetworkConfig, SagePolicy
from repro.distill import (
    FEATURE_DIM,
    HIDDEN_SUMMARY_DIM,
    DistillConfig,
    DistilledPolicy,
    RegressionTree,
    TreeConfig,
    build_distill_dataset,
    evaluate_distilled,
    feature_names,
    fit_distilled,
    hidden_summary,
)
from repro.io import write_npz

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=3, n_atoms=7)


@pytest.fixture()
def policy():
    return SagePolicy(TINY, np.random.default_rng(0))


def make_pool(n_traj=4, length=40, seed=0) -> PolicyPool:
    rng = np.random.default_rng(seed)
    pool = PolicyPool()
    for k in range(n_traj):
        t = length + 5 * k  # ragged lengths exercise the batched replay
        pool.add(
            Trajectory(
                scheme="cubic",
                env_id=f"env-{k}",
                multi_flow=False,
                states=rng.standard_normal((t, STATE_DIM)) * 50,
                actions=np.ones(t),
                rewards=np.zeros(t),
            )
        )
    return pool


# ---------------------------------------------------------------------------
# CART tree
# ---------------------------------------------------------------------------


class TestRegressionTree:
    def test_recovers_piecewise_constant(self):
        """A two-region step function is learned exactly."""
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(400, 3))
        y = np.where(x[:, 1] > 0.25, 2.0, -1.0)
        tree = RegressionTree.fit(x, y, TreeConfig(max_depth=3, min_leaf=5))
        values, confs = tree.predict(x)
        assert np.allclose(values, y)
        # zero-variance leaves -> confidence 1.0
        assert np.allclose(confs, 1.0)

    def test_predict_matches_scalar_walk(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((300, 6))
        y = np.sin(x[:, 0]) + 0.5 * x[:, 3]
        tree = RegressionTree.fit(x, y, TreeConfig(max_depth=6, min_leaf=8))
        values, confs = tree.predict(x)
        for i in range(0, 300, 17):
            v, c = tree.predict_one(x[i])
            assert values[i] == v and confs[i] == c

    def test_budgets_respected(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((500, 4))
        y = rng.standard_normal(500)
        cfg = TreeConfig(max_depth=3, max_leaves=5, min_leaf=20)
        tree = RegressionTree.fit(x, y, cfg)
        assert tree.n_leaves <= cfg.max_leaves
        assert tree.depth <= cfg.max_depth

    def test_constant_target_single_leaf(self):
        x = np.random.default_rng(4).standard_normal((100, 2))
        tree = RegressionTree.fit(x, np.full(100, 3.0))
        assert tree.n_leaves == 1
        values, confs = tree.predict(x)
        assert np.allclose(values, 3.0) and np.allclose(confs, 1.0)

    def test_feature_dim_mismatch_raises(self):
        x = np.random.default_rng(5).standard_normal((50, 3))
        tree = RegressionTree.fit(x, x[:, 0])
        with pytest.raises(ValueError, match="features"):
            tree.predict(np.zeros((4, 7)))

    def test_rules_cover_leaves(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((200, 2))
        y = np.where(x[:, 0] > 0, 1.0, 0.0)
        tree = RegressionTree.fit(x, y, TreeConfig(max_depth=2, min_leaf=10))
        rules = tree.rules(["a", "b"])
        assert len(rules) == tree.n_leaves
        assert any("a" in r for r in rules)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


class TestDataset:
    def test_shapes_and_targets(self, policy):
        pool = make_pool()
        fast = FastPolicy(policy)
        x, y = build_distill_dataset(fast, pool)
        assert x.shape == (pool.n_transitions, FEATURE_DIM)
        assert y.shape == (pool.n_transitions,)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))

    def test_targets_match_sequential_replay(self, policy):
        """Batched ragged replay == replaying each trajectory alone."""
        pool = make_pool(n_traj=3, length=12)
        fast = FastPolicy(policy)
        _, y = build_distill_dataset(fast, pool)
        expected = []
        by_step = []  # (t, traj_idx sorted by descending length) ordering
        trajs = sorted(
            pool.trajectories, key=lambda tr: -len(tr.states)
        )
        per_traj = []
        for tr in trajs:
            h = fast.initial_state_batch(1)
            logs = []
            from repro.collector.gr_unit import normalize_state

            for s in tr.states:
                r, h = fast.step_batch(normalize_state(s[None, :]), h)
                logs.append(np.log(r[0]))
            per_traj.append(logs)
        t_max = max(len(p) for p in per_traj)
        for t in range(t_max):
            for p in per_traj:
                if t < len(p):
                    by_step.append(p[t])
        expected = np.array(by_step)
        assert np.allclose(y, expected, rtol=1e-12, atol=1e-14)

    def test_hidden_summary_no_gru(self):
        assert np.array_equal(
            hidden_summary(None, 5), np.zeros((5, HIDDEN_SUMMARY_DIM))
        )

    def test_max_samples_subsample(self, policy):
        pool = make_pool()
        fast = FastPolicy(policy)
        x, y = build_distill_dataset(fast, pool, max_samples=50)
        assert len(x) == 50 and len(y) == 50

    def test_empty_pool_raises(self, policy):
        with pytest.raises(ValueError, match="no trajectories"):
            build_distill_dataset(FastPolicy(policy), PolicyPool())

    def test_feature_names_align(self):
        names = feature_names()
        assert len(names) == FEATURE_DIM
        assert names[-HIDDEN_SUMMARY_DIM] == "h_mean"


# ---------------------------------------------------------------------------
# fit + calibration + evaluation
# ---------------------------------------------------------------------------


class TestFitDistilled:
    def test_fit_and_report(self, policy):
        pool = make_pool()
        distilled, report = fit_distilled(
            policy, pool, DistillConfig(target_coverage=0.8, max_depth=6)
        )
        assert isinstance(distilled, DistilledPolicy)
        assert report["n_samples"] == pool.n_transitions
        # the calibrated gate passes roughly the target fraction
        assert report["train_coverage"] >= 0.75
        assert distilled.refresh_every == 8

    def test_predict_ratio_space(self, policy):
        pool = make_pool()
        distilled, _ = fit_distilled(policy, pool)
        x = np.random.default_rng(7).standard_normal((9, STATE_DIM))
        h = np.zeros((9, TINY.gru_dim))
        from repro.collector.gr_unit import normalize_state

        ratios, confs = distilled.predict(normalize_state(x), h)
        assert ratios.shape == (9,) and confs.shape == (9,)
        assert np.all(ratios > 0)  # exp of log-ratios
        assert np.all((confs > 0) & (confs <= 1.0))

    def test_evaluate_distilled(self, policy):
        pool = make_pool()
        distilled, _ = fit_distilled(policy, pool)
        report = evaluate_distilled(distilled, policy, pool)
        assert 0.0 <= report["coverage"] <= 1.0
        assert report["ratio_within_5pct"] >= report["ratio_within_5pct_covered"] - 1.0

    def test_wrong_feature_count_rejected(self):
        x = np.random.default_rng(8).standard_normal((64, 5))
        tree = RegressionTree.fit(x, x[:, 0])
        with pytest.raises(ValueError, match=str(FEATURE_DIM)):
            DistilledPolicy(tree, conf_threshold=0.5)


# ---------------------------------------------------------------------------
# Satellite: checkpoint round-trip + corruption
# ---------------------------------------------------------------------------


class TestCheckpoint:
    def _distilled(self, policy):
        distilled, _ = fit_distilled(policy, make_pool())
        return distilled

    def test_round_trip_bit_exact(self, policy, tmp_path):
        distilled = self._distilled(policy)
        path = tmp_path / "tree.npz"
        distilled.save(path)
        loaded = DistilledPolicy.load(path)
        for attr in ("feature", "threshold", "left", "right", "value", "conf"):
            assert np.array_equal(
                getattr(distilled.tree, attr), getattr(loaded.tree, attr)
            )
        assert loaded.conf_threshold == distilled.conf_threshold
        assert loaded.refresh_every == distilled.refresh_every
        assert loaded.meta == distilled.meta
        x = np.random.default_rng(9).standard_normal((7, FEATURE_DIM))
        assert np.array_equal(
            distilled.tree.predict(x)[0], loaded.tree.predict(x)[0]
        )

    def test_corrupt_bytes_raise_value_error(self, policy, tmp_path):
        path = tmp_path / "tree.npz"
        self._distilled(policy).save(path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="integrity"):
            DistilledPolicy.load(path)

    def test_truncated_file_raises_value_error(self, policy, tmp_path):
        path = tmp_path / "tree.npz"
        self._distilled(policy).save(path)
        path.write_bytes(path.read_bytes()[: 100])
        with pytest.raises(ValueError):
            DistilledPolicy.load(path)

    def test_garbage_without_sidecar_raises_value_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(ValueError, match="npz"):
            DistilledPolicy.load(path)

    def test_schema_version_mismatch(self, policy, tmp_path, monkeypatch):
        import repro.distill.model as model

        path = tmp_path / "tree.npz"
        distilled = self._distilled(policy)
        monkeypatch.setattr(model, "SCHEMA_VERSION", 99)
        distilled.save(path)
        monkeypatch.setattr(model, "SCHEMA_VERSION", 1)
        with pytest.raises(ValueError, match="schema version"):
            DistilledPolicy.load(path)

    def test_missing_keys_rejected(self, policy, tmp_path):
        path = tmp_path / "tree.npz"
        write_npz(path, {"meta/schema_version": np.array([1])})
        with pytest.raises(ValueError, match="missing keys"):
            DistilledPolicy.load(path)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


class TestConfigs:
    def test_tree_config_validation(self):
        with pytest.raises(ValueError):
            TreeConfig(max_depth=0)
        with pytest.raises(ValueError):
            TreeConfig(max_leaves=1)
        with pytest.raises(ValueError):
            TreeConfig(min_leaf=0)

    def test_distill_config_validation(self):
        with pytest.raises(ValueError):
            DistillConfig(target_coverage=0.0)
        with pytest.raises(ValueError):
            DistillConfig(target_coverage=1.5)
        with pytest.raises(ValueError):
            DistillConfig(refresh_every=1)
