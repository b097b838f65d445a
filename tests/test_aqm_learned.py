"""Tests for the learned-ECN stack: predictor, telemetry, fitter, factory."""

import numpy as np
import pytest

from repro.io import read_npz, write_npz
from repro.netsim.aqm import LearnedECN, make_aqm
from repro.netsim.ecn_model import (
    EcnPredictor,
    FEATURE_DIM,
    SCHEMA_VERSION,
    normalize_features,
)
from repro.netsim.packet import Packet
from repro.netsim.telemetry import (
    QueueTelemetryRecorder,
    TRACE_SCHEMA_VERSION,
    load_traces,
)
from repro.aqm_learn import FitReport, TraceSpec, collect_queue_traces, fit_ecn_predictor


def pkt(seq=0, size=1500, flow=0, ect=False):
    p = Packet(flow_id=flow, seq=seq, size=size)
    p.ect = ect
    return p


def synthetic_trace(n=400, seed=3):
    """A separable toy dataset: high occupancy + arrival rate -> long sojourn."""
    rng = np.random.default_rng(seed)
    occ = rng.uniform(0.0, 1.0, size=n)
    soj = rng.uniform(0.0, 0.02, size=n)
    arr = rng.uniform(0.0, 96e6, size=n)
    drain = np.full(n, 48e6)
    feats = np.stack([occ, soj, arr, drain], axis=1)
    sojourns = np.where(occ + arr / 96e6 > 1.0, 0.02, 0.001)
    return {"features": feats, "sojourns": sojourns}


class TestEcnPredictor:
    def test_init_seed_deterministic(self):
        a = EcnPredictor.init(hidden=8, seed=4)
        b = EcnPredictor.init(hidden=8, seed=4)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)

    def test_hidden_zero_is_logistic(self):
        m = EcnPredictor.init(hidden=0, seed=0)
        assert m.w1.shape == (FEATURE_DIM, 1)

    def test_predict_proba_range_and_shapes(self):
        m = EcnPredictor.init(seed=1)
        batch = np.abs(np.random.default_rng(0).normal(size=(10, FEATURE_DIM)))
        p = m.predict_proba(batch)
        assert p.shape == (10,)
        assert np.all((p >= 0.0) & (p <= 1.0))
        one = m.predict_one(0.5, 0.01, 24e6, 48e6)
        assert 0.0 <= one <= 1.0

    def test_predict_rejects_wrong_width(self):
        m = EcnPredictor.init(seed=1)
        with pytest.raises(ValueError):
            m.predict_proba(np.zeros((3, FEATURE_DIM + 1)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            EcnPredictor(
                np.zeros((FEATURE_DIM, 4)), np.zeros(4), np.zeros(5), np.zeros(1)
            )

    def test_normalize_features_clips(self):
        x = normalize_features(np.array([100.0, 100.0, 1e12, -1e12]))
        assert np.all(np.abs(x) <= 10.0)

    def test_checkpoint_roundtrip_bitwise(self, tmp_path):
        m = EcnPredictor.init(hidden=8, seed=9)
        m.meta["note"] = "roundtrip"
        path = tmp_path / "ecn.npz"
        m.save(path)
        loaded = EcnPredictor.load(path)
        assert np.array_equal(m.w1, loaded.w1)
        assert np.array_equal(m.b1, loaded.b1)
        assert np.array_equal(m.w2, loaded.w2)
        assert np.array_equal(m.b2, loaded.b2)
        assert loaded.meta["note"] == "roundtrip"

    def test_corrupt_checkpoint_raises_value_error(self, tmp_path):
        m = EcnPredictor.init(seed=9)
        path = tmp_path / "ecn.npz"
        m.save(path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="integrity"):
            EcnPredictor.load(path)

    def test_not_an_npz_raises_value_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_text("definitely not a zip archive")
        with pytest.raises(ValueError, match="not a valid"):
            EcnPredictor.load(path)

    def test_missing_keys_raises_value_error(self, tmp_path):
        path = tmp_path / "other.npz"
        write_npz(path, {"unrelated": np.zeros(3)})
        with pytest.raises(ValueError, match="missing keys"):
            EcnPredictor.load(path)

    def test_wrong_schema_version_raises(self, tmp_path):
        m = EcnPredictor.init(seed=0)
        path = tmp_path / "ecn.npz"
        m.save(path)
        data = read_npz(path, what="ECN predictor checkpoint")
        data["meta/schema_version"] = np.array([SCHEMA_VERSION + 1], dtype=np.int64)
        write_npz(path, data)
        with pytest.raises(ValueError, match="schema version"):
            EcnPredictor.load(path)


class TestTelemetryRecorder:
    def test_records_feature_rows_and_sojourns(self):
        from repro.netsim.aqm import TailDrop

        rec = QueueTelemetryRecorder()
        q = TailDrop(capacity_bytes=30_000)
        q.current_rate_bps = 24e6
        now = 0.0
        for i in range(5):
            p = pkt(i)
            assert q.enqueue(p, now)
            rec.on_enqueue(q, p, now)
            now += 0.001
        for _ in range(5):
            p = q.dequeue(now)
            rec.on_dequeue(p, now)
            now += 0.002
        assert len(rec) == 5
        arrays = rec.to_arrays()
        assert arrays["features"].shape == (5, FEATURE_DIM)
        assert np.all(arrays["sojourns"] > 0.0)
        # occupancy excludes the arriving packet: first row saw an empty queue
        assert arrays["features"][0, 0] == 0.0

    def test_max_rows_cap(self):
        from repro.netsim.aqm import TailDrop

        rec = QueueTelemetryRecorder(max_rows=2)
        q = TailDrop(capacity_bytes=100_000)
        pkts = [pkt(i) for i in range(4)]
        for i, p in enumerate(pkts):
            q.enqueue(p, i * 0.001)
            rec.on_enqueue(q, p, i * 0.001)
        for p in pkts:
            rec.on_dequeue(q.dequeue(0.01), 0.01)
        assert len(rec) == 2
        assert rec.dropped_rows == 2

    def test_save_load_roundtrip(self, tmp_path):
        from repro.netsim.aqm import TailDrop

        rec = QueueTelemetryRecorder()
        q = TailDrop(capacity_bytes=30_000)
        for i in range(3):
            p = pkt(i)
            q.enqueue(p, i * 0.001)
            rec.on_enqueue(q, p, i * 0.001)
        for _ in range(3):
            rec.on_dequeue(q.dequeue(0.01), 0.01)
        path = rec.save(tmp_path / "shard.npz")
        data = load_traces([path, path])  # concatenation works
        assert data["features"].shape == (6, FEATURE_DIM)
        assert data["sojourns"].shape == (6,)

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        write_npz(path, {"something": np.zeros(2)})
        with pytest.raises(ValueError, match="missing keys"):
            load_traces(path)

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "old.npz"
        write_npz(
            path,
            {
                "meta/schema_version": np.array(
                    [TRACE_SCHEMA_VERSION + 1], dtype=np.int64
                ),
                "trace/features": np.zeros((1, FEATURE_DIM)),
                "trace/sojourns": np.zeros(1),
            },
        )
        with pytest.raises(ValueError, match="schema version"):
            load_traces(path)


class TestFitter:
    def test_fit_learns_separable_data(self):
        model, report = fit_ecn_predictor(
            synthetic_trace(), target=0.005, epochs=300, seed=0
        )
        assert isinstance(report, FitReport)
        assert report.accuracy > 0.9
        assert 0.0 < report.positive_rate < 1.0
        assert model.meta["target"] == 0.005

    def test_fit_is_seed_deterministic(self):
        m1, r1 = fit_ecn_predictor(synthetic_trace(), epochs=50, seed=5)
        m2, r2 = fit_ecn_predictor(synthetic_trace(), epochs=50, seed=5)
        assert np.array_equal(m1.w1, m2.w1) and np.array_equal(m1.w2, m2.w2)
        assert r1.loss == r2.loss

    def test_fit_rejects_empty_trace(self):
        with pytest.raises(ValueError, match="empty"):
            fit_ecn_predictor(
                {"features": np.zeros((0, FEATURE_DIM)), "sojourns": np.zeros(0)}
            )

    def test_report_json_shape(self):
        _, report = fit_ecn_predictor(synthetic_trace(), epochs=20)
        js = report.to_json()
        assert set(js) == {
            "n_rows", "positive_rate", "loss", "accuracy",
            "precision", "recall", "epochs",
        }


class TestTraceCollection:
    def test_collect_writes_shards(self, tmp_path):
        spec = TraceSpec(aqm="codel", duration=2.0, arrival_rate=30.0)
        paths = collect_queue_traces(spec, shards=2, seed=1, out_dir=tmp_path)
        assert len(paths) == 2
        data = load_traces(paths)
        assert data["features"].shape[0] > 0
        assert data["features"].shape[1] == FEATURE_DIM


class TestLearnedECNWithModel:
    def test_factory_checkpoint_suffix(self, tmp_path):
        m = EcnPredictor.init(hidden=4, seed=2)
        path = tmp_path / "Model.npz"  # case preserved: paths are not lowered
        m.save(path)
        q = make_aqm(f"learned_ecn@{path}", 30_000)
        assert isinstance(q, LearnedECN)
        assert q.predictor is not None
        assert q.params()["mode"] == "model"
        assert q.checkpoint == str(path)

    def test_model_mode_marks_when_predictor_fires(self, tmp_path):
        # A predictor hand-built to always fire: huge positive bias.
        m = EcnPredictor(
            np.zeros((FEATURE_DIM, 1)), np.zeros(1), np.zeros(1), np.array([50.0])
        )
        q = LearnedECN(capacity_bytes=100_000, predictor=m)
        assert q.enqueue(pkt(0, ect=True), 0.0)
        assert q.ecn_marks == 1
        assert not q.enqueue(pkt(1, ect=False), 0.001)  # non-ECT is dropped
        assert q.drops == 1

    def test_end_to_end_fit_then_serve(self, tmp_path):
        """The full loop: fit on a synthetic trace, save, serve via factory."""
        model, _ = fit_ecn_predictor(synthetic_trace(), epochs=100, seed=0)
        path = tmp_path / "fitted.npz"
        model.save(path)
        q = make_aqm(f"learned_ecn@{path}", 50_000)
        now = 0.0
        for i in range(30):
            q.enqueue(pkt(i, ect=True), now)
            if i % 2 == 0:
                q.dequeue(now + 0.0005)
            now += 0.0005
        assert q.enqueues > 0  # serving decisions ran through the model
