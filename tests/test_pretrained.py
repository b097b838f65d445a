"""Tests for the shipped pretrained checkpoint (skipped if not built)."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

MODEL_DIR = Path(__file__).resolve().parent.parent / "models"
MODEL = MODEL_DIR / "sage_pretrained.npz"
META = MODEL_DIR / "sage_pretrained.json"

#: SHA-256 over the sorted (name, bytes) pairs of the shipped arrays; the
#: archive was re-saved with an integrity record, its arrays unchanged
ARRAYS_SHA256 = "36d93aabc9085e762543de435ecd11509f6c65bbcfa7f160cba84ee9574ae3c0"

pytestmark = pytest.mark.skipif(
    not (MODEL.exists() and META.exists()),
    reason="pretrained checkpoint not built (see models/README.md)",
)


def load_agent():
    from repro.core.agent import SageAgent
    from repro.core.networks import NetworkConfig

    meta = json.loads(META.read_text())
    cfg = NetworkConfig(
        enc_dim=meta["enc_dim"], gru_dim=meta["gru_dim"],
        n_components=meta["n_components"], n_atoms=meta["n_atoms"],
    )
    return SageAgent.load(MODEL, net_config=cfg)


class TestPretrained:
    def test_loads_and_acts(self):
        from repro.collector.gr_unit import STATE_DIM

        agent = load_agent()
        agent.reset()
        r = agent.act(np.zeros(STATE_DIM))
        assert 1 / 3 <= r <= 3

    def test_moves_real_traffic(self):
        from repro.collector.environments import EnvConfig
        from repro.collector.rollout import run_policy

        agent = load_agent()
        env = EnvConfig(env_id="pretrained-check", kind="flat", bw_mbps=24.0,
                        min_rtt=0.04, buffer_bdp=2.0, duration=8.0)
        result = run_policy(env, agent)
        # a shipped model must hold a meaningful share of a familiar link
        # without bloating the queue (laptop-scale training favours delay)
        assert result.stats.avg_throughput_bps > 24e6 / 6
        assert result.stats.avg_owd < 0.04

    def test_arrays_pinned(self):
        from repro.io import read_npz

        arrays = read_npz(MODEL, what="shipped model")
        digest = hashlib.sha256()
        for name in sorted(arrays):
            digest.update(name.encode("utf-8"))
            digest.update(arrays[name].tobytes())
        assert digest.hexdigest() == ARRAYS_SHA256

    def test_metadata_consistent(self):
        meta = json.loads(META.read_text())
        assert meta["train_steps"] >= 1000
        assert len(meta["pool_schemes"]) >= 6
