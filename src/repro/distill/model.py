"""The distilled symbolic controller: fit, calibrate, persist, evaluate.

:class:`DistilledPolicy` wraps a fitted :class:`~repro.distill.tree.
RegressionTree` with everything the serving router needs:

- a **calibrated confidence threshold** — chosen at fit time as the
  training-confidence quantile that leaves ``target_coverage`` of samples
  above it, so the symbolic tier's hit-rate is a dial, not an accident;
- a **refresh interval** — the router forces a real NN forward every
  ``refresh_every`` ticks per flow, bounding how stale the hidden-summary
  features can get;
- **.npz persistence** through :mod:`repro.io`: schema-versioned, written
  atomically with an in-archive integrity record, so a crash mid-write
  never leaves a truncated file under the real name and a corrupt file
  raises ``ValueError`` instead of half-loading.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.networks import FastPolicy, SagePolicy
from repro.distill.dataset import (
    FEATURE_DIM,
    build_distill_dataset,
    feature_names,
    hidden_summary,
)
from repro.distill.tree import RegressionTree, TreeConfig
from repro.io import read_npz, write_npz

#: bump when the .npz layout changes; loaders reject other versions
SCHEMA_VERSION = 1

_REQUIRED_KEYS = (
    "meta/schema_version", "meta/conf_threshold", "meta/refresh_every",
    "meta/n_features", "meta/depth", "tree/feature", "tree/threshold",
    "tree/left", "tree/right", "tree/value", "tree/conf",
)


@dataclass(frozen=True)
class DistillConfig:
    """Fit + calibration knobs for :func:`fit_distilled`."""

    max_depth: int = 12
    max_leaves: int = 256
    min_leaf: int = 16
    #: fraction of training samples the calibrated gate should pass
    target_coverage: float = 0.85
    #: serving forces an NN forward every this-many ticks per flow
    refresh_every: int = 8
    max_samples: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target_coverage <= 1.0:
            raise ValueError("target_coverage must be in (0, 1]")
        if self.refresh_every < 2:
            raise ValueError("refresh_every must be >= 2")

    def tree_config(self) -> TreeConfig:
        return TreeConfig(
            max_depth=self.max_depth,
            max_leaves=self.max_leaves,
            min_leaf=self.min_leaf,
        )


class DistilledPolicy:
    """A symbolic stand-in for the NN policy's deterministic serving path."""

    def __init__(
        self,
        tree: RegressionTree,
        conf_threshold: float,
        refresh_every: int = 8,
        meta: Optional[dict] = None,
    ) -> None:
        if tree.n_features != FEATURE_DIM:
            raise ValueError(
                f"distilled tree must consume {FEATURE_DIM} features "
                f"(69 GR + hidden summary), got {tree.n_features}"
            )
        self.tree = tree
        self.conf_threshold = float(conf_threshold)
        self.refresh_every = int(refresh_every)
        self.meta = dict(meta or {})

    # ------------------------------------------------------------------
    def predict(
        self, x_norm: np.ndarray, h: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Normalized states + hidden rows -> ``(ratios, confidences)``."""
        x_norm = np.asarray(x_norm, dtype=np.float64)
        if x_norm.ndim == 1:
            x_norm = x_norm[None, :]
        feats = np.concatenate(
            [x_norm, hidden_summary(h, len(x_norm))], axis=1
        )
        values, confs = self.tree.predict(feats)
        return np.exp(values), confs

    def rules(self, max_rules: int = 0):
        return self.tree.rules(feature_names(), max_rules=max_rules)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Atomically write the controller (:func:`repro.io.write_npz`)."""
        write_npz(
            path,
            {
                "meta/schema_version": np.array([SCHEMA_VERSION], dtype=np.int64),
                "meta/conf_threshold": np.array([self.conf_threshold]),
                "meta/refresh_every": np.array([self.refresh_every], dtype=np.int64),
                "meta/n_features": np.array([self.tree.n_features], dtype=np.int64),
                "meta/depth": np.array([self.tree.depth], dtype=np.int64),
                "meta/json": np.frombuffer(
                    json.dumps(self.meta, sort_keys=True).encode("utf-8"),
                    dtype=np.uint8,
                ),
                "tree/feature": self.tree.feature,
                "tree/threshold": self.tree.threshold,
                "tree/left": self.tree.left,
                "tree/right": self.tree.right,
                "tree/value": self.tree.value,
                "tree/conf": self.tree.conf,
            },
        )

    @classmethod
    def load(cls, path) -> "DistilledPolicy":
        """Load and verify a :meth:`save` file; ``ValueError`` on corruption."""
        data = read_npz(
            path,
            what="distilled checkpoint",
            required=_REQUIRED_KEYS,
            schema_version=SCHEMA_VERSION,
        )
        tree = RegressionTree(
            feature=data["tree/feature"],
            threshold=data["tree/threshold"],
            left=data["tree/left"],
            right=data["tree/right"],
            value=data["tree/value"],
            conf=data["tree/conf"],
            n_features=int(data["meta/n_features"][0]),
            depth=int(data["meta/depth"][0]),
        )
        meta = {}
        if "meta/json" in data:
            meta = json.loads(data["meta/json"].tobytes().decode("utf-8"))
        return cls(
            tree=tree,
            conf_threshold=float(data["meta/conf_threshold"][0]),
            refresh_every=int(data["meta/refresh_every"][0]),
            meta=meta,
        )


# --------------------------------------------------------------------------
# fit + evaluate
# --------------------------------------------------------------------------


def fit_distilled(
    policy: SagePolicy,
    pool,
    config: Optional[DistillConfig] = None,
    state_mask: Optional[np.ndarray] = None,
    fast: Optional[FastPolicy] = None,
) -> Tuple[DistilledPolicy, dict]:
    """Distill ``policy`` into a symbolic controller on ``pool``'s states.

    Returns ``(distilled, report)``; the report records dataset size, tree
    shape, the calibrated threshold's realized training coverage, and
    training-set imitation error.
    """
    cfg = config if config is not None else DistillConfig()
    fp = fast if fast is not None else FastPolicy(policy)
    x, y = build_distill_dataset(
        fp, pool, state_mask=state_mask, max_samples=cfg.max_samples
    )
    tree = RegressionTree.fit(x, y, cfg.tree_config())
    values, confs = tree.predict(x)
    if cfg.target_coverage >= 1.0:
        threshold = float(confs.min())
    else:
        threshold = float(np.quantile(confs, 1.0 - cfg.target_coverage))
    covered = confs >= threshold
    err = np.abs(values - y)
    report = {
        "n_samples": int(len(x)),
        "n_leaves": int(tree.n_leaves),
        "depth": int(tree.depth),
        "conf_threshold": round(threshold, 6),
        "train_coverage": round(float(covered.mean()), 4),
        "mae_logratio": round(float(err.mean()), 6),
        "mae_logratio_covered": round(
            float(err[covered].mean()) if covered.any() else 0.0, 6
        ),
        "refresh_every": cfg.refresh_every,
    }
    meta = dict(report)
    meta["gru_dim"] = int(policy.cfg.gru_dim)
    distilled = DistilledPolicy(
        tree=tree,
        conf_threshold=threshold,
        refresh_every=cfg.refresh_every,
        meta=meta,
    )
    return distilled, report


def evaluate_distilled(
    distilled: DistilledPolicy,
    policy: SagePolicy,
    pool,
    state_mask: Optional[np.ndarray] = None,
    max_samples: Optional[int] = None,
) -> dict:
    """Imitation quality of a distilled controller on a (held-out) pool.

    Reports coverage under the calibrated gate and ratio-space agreement
    with the NN's deterministic path, overall and on the covered subset.
    """
    fp = FastPolicy(policy)
    x, y = build_distill_dataset(
        fp, pool, state_mask=state_mask, max_samples=max_samples
    )
    values, confs = distilled.tree.predict(x)
    covered = confs >= distilled.conf_threshold
    ratio_err = np.abs(np.exp(values) - np.exp(y))
    rel_close = ratio_err <= 0.05 * np.exp(y)
    return {
        "n_samples": int(len(x)),
        "coverage": round(float(covered.mean()), 4),
        "mae_logratio": round(float(np.abs(values - y).mean()), 6),
        "mae_ratio": round(float(ratio_err.mean()), 6),
        "ratio_within_5pct": round(float(rel_close.mean()), 4),
        "ratio_within_5pct_covered": round(
            float(rel_close[covered].mean()) if covered.any() else 0.0, 4
        ),
    }
