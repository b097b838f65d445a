"""The learned ECN-marking predictor: a tiny pure-numpy MLP over queue telemetry.

The queue side of the arms race (ROADMAP: learned-AQM co-evolution) needs a
marking policy that is *itself* learned. :class:`EcnPredictor` maps four
queue-telemetry features — buffer occupancy, sojourn-time EWMA, arrival
rate, drain rate — to the probability that an arriving packet, if admitted,
will experience a sojourn time above the congestion target. The
:class:`~repro.netsim.aqm.LearnedECN` discipline thresholds/draws against
that probability to CE-mark (or, for non-ECT senders, drop) at enqueue.

The model is deliberately small (one tanh hidden layer, default 8 units;
``hidden=0`` degenerates to plain logistic regression) so a forward pass is
a handful of numpy ops on a length-4 vector — cheap enough for the
per-packet enqueue path. Training lives in :mod:`repro.aqm_learn`; this
module owns the forward pass and persistence.

Persistence goes through :mod:`repro.io`: a schema-versioned ``.npz`` with
an in-archive integrity record, written atomically, and a clear
``ValueError`` instead of a half-loaded model on corruption.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from repro.io import read_npz, write_npz

__all__ = [
    "EcnPredictor", "FEATURES", "FEATURE_DIM", "SCHEMA_VERSION",
    "normalize_features",
]

#: bump when the .npz layout changes; loaders reject other versions
SCHEMA_VERSION = 1

#: the queue-telemetry feature vector, in order
FEATURES = ("occupancy", "sojourn_ewma", "arrival_rate", "drain_rate")
FEATURE_DIM = len(FEATURES)

#: fixed normalization scales (occupancy is already a fraction; times map
#: 100 ms -> 1.0; rates map 48 Mbps -> 1.0 — the GR unit's conventions)
_FEATURE_SCALE = np.array([1.0, 0.1, 48e6, 48e6], dtype=np.float64)

_REQUIRED_KEYS = (
    "meta/schema_version", "model/w1", "model/b1", "model/w2", "model/b2",
)


def normalize_features(features: np.ndarray) -> np.ndarray:
    """The fixed scale-and-clip transform applied before the forward pass.

    Exposed so the :mod:`repro.aqm_learn` fitter trains on exactly the
    inputs the live queue will present at inference time.
    """
    x = np.asarray(features, dtype=np.float64)
    return np.clip(x / _FEATURE_SCALE, -10.0, 10.0)


class EcnPredictor:
    """One-hidden-layer MLP: telemetry features -> marking probability."""

    def __init__(
        self,
        w1: np.ndarray,
        b1: np.ndarray,
        w2: np.ndarray,
        b2: np.ndarray,
        meta: Optional[dict] = None,
    ) -> None:
        w1 = np.asarray(w1, dtype=np.float64)
        b1 = np.asarray(b1, dtype=np.float64)
        w2 = np.asarray(w2, dtype=np.float64)
        b2 = np.asarray(b2, dtype=np.float64)
        if w1.ndim != 2 or w1.shape[0] != FEATURE_DIM:
            raise ValueError(
                f"w1 must be ({FEATURE_DIM}, H), got shape {w1.shape}"
            )
        hidden = w1.shape[1]
        if b1.shape != (hidden,) or w2.shape != (hidden,) or b2.shape != (1,):
            raise ValueError(
                f"inconsistent layer shapes: w1 {w1.shape}, b1 {b1.shape}, "
                f"w2 {w2.shape}, b2 {b2.shape}"
            )
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2
        self.meta = dict(meta or {})

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    # ------------------------------------------------------------------
    @classmethod
    def init(cls, hidden: int = 8, seed: int = 0) -> "EcnPredictor":
        """Fresh, seed-deterministic initialization (for the fitter).

        ``hidden=0`` builds a single pass-through unit so the model reduces
        to logistic regression over the four features.
        """
        if hidden < 0:
            raise ValueError(f"hidden must be >= 0, got {hidden}")
        rng = np.random.default_rng(seed)
        h = max(hidden, 1)
        w1 = rng.normal(0.0, 0.5, size=(FEATURE_DIM, h))
        b1 = np.zeros(h)
        w2 = rng.normal(0.0, 0.5, size=(h,))
        b2 = np.zeros(1)
        return cls(w1, b1, w2, b2, meta={"hidden": hidden, "seed": seed})

    # ------------------------------------------------------------------
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Marking probabilities for an ``(N, 4)`` (or ``(4,)``) batch."""
        x = np.asarray(features, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != FEATURE_DIM:
            raise ValueError(
                f"expected {FEATURE_DIM} telemetry features, got {x.shape[1]}"
            )
        x = normalize_features(x)
        hid = np.tanh(x @ self.w1 + self.b1)
        z = hid @ self.w2 + self.b2[0]
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
        return p[0] if squeeze else p

    def predict_one(
        self,
        occupancy: float,
        sojourn_ewma: float,
        arrival_rate: float,
        drain_rate: float,
    ) -> float:
        """Scalar fast path for the per-packet enqueue hook."""
        return float(
            self.predict_proba(
                np.array(
                    [occupancy, sojourn_ewma, arrival_rate, drain_rate]
                )
            )
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Atomically write the predictor (:func:`repro.io.write_npz`)."""
        write_npz(
            path,
            {
                "meta/schema_version": np.array([SCHEMA_VERSION], dtype=np.int64),
                "meta/json": np.frombuffer(
                    json.dumps(self.meta, sort_keys=True).encode("utf-8"),
                    dtype=np.uint8,
                ),
                "model/w1": self.w1,
                "model/b1": self.b1,
                "model/w2": self.w2,
                "model/b2": self.b2,
            },
        )

    @classmethod
    def load(cls, path) -> "EcnPredictor":
        """Load and verify a :meth:`save` file; ``ValueError`` on corruption."""
        data = read_npz(
            path,
            what="ECN predictor checkpoint",
            required=_REQUIRED_KEYS,
            schema_version=SCHEMA_VERSION,
        )
        meta = {}
        if "meta/json" in data:
            meta = json.loads(data["meta/json"].tobytes().decode("utf-8"))
        return cls(
            w1=data["model/w1"],
            b1=data["model/b1"],
            w2=data["model/w2"],
            b2=data["model/b2"],
            meta=meta,
        )
