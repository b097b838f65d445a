"""The pool of policies: Sage's offline dataset.

The pool stores trajectories ``(states, actions, rewards)`` labeled with the
scheme and environment that produced them. It supports:

- building from rollouts (:meth:`PolicyPool.add`);
- persistence as a single ``.npz`` (:meth:`save` / :meth:`load`) — data is
  collected *once*, then every environment is "unplugged";
- batch sampling of fixed-length sequence windows for the recurrent CRR
  learner (:meth:`sample_sequences`);
- filtering by scheme (Sage-Top / Sage-Top4 pool-diversity ablations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.io import read_npz, write_npz


def _escape_meta(field: str) -> str:
    """Escape ``\\`` and the ``|`` separator so any scheme/env_id round-trips."""
    return field.replace("\\", "\\\\").replace("|", "\\|")


def _split_meta(meta: str) -> List[str]:
    """Split a meta line on unescaped ``|`` and unescape the fields."""
    fields: List[str] = []
    current: List[str] = []
    escaped = False
    for ch in meta:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == "|":
            fields.append("".join(current))
            current = []
        else:
            current.append(ch)
    if escaped:
        raise ValueError(f"malformed pool meta (dangling escape): {meta!r}")
    fields.append("".join(current))
    return fields


def parse_meta(meta: str) -> Tuple[str, str, bool]:
    """Decode one ``scheme|env_id|multi_flow`` meta line.

    Raises a clear :class:`ValueError` on a malformed line instead of
    silently mis-assigning fields (the historical ``split("|")`` broke as
    soon as an ``env_id`` contained ``|``).
    """
    fields = _split_meta(meta)
    if len(fields) != 3 or fields[2] not in ("0", "1"):
        raise ValueError(
            f"malformed pool meta entry {meta!r}: expected "
            "'scheme|env_id|multi_flow' with multi_flow in {0, 1}"
        )
    scheme, env_id, multi = fields
    return scheme, env_id, multi == "1"


def draw_window_starts(
    lengths: np.ndarray,
    seq_len: int,
    batch_size: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``batch_size`` window starts over trajectories of ``lengths``.

    Returns ``(traj_idx, local_starts)``: which trajectory each window came
    from and the start row *within* that trajectory. Windows cover
    ``seq_len + 1`` consecutive rows; trajectories shorter than that are
    never drawn, and eligible ones are weighted by their number of valid
    starts (every window position in the pool is equally likely).

    This is the single source of the sampling RNG stream: both
    :class:`PolicyPool` and the out-of-core ``repro.datastore.ShardedPool``
    call it, which is what makes their draws bit-identical for the same
    seed and trajectory ordering.
    """
    slack = lengths - seq_len  # number of valid window starts per traj
    eligible = np.nonzero(slack > 0)[0]
    if eligible.size == 0:
        raise ValueError(
            f"no trajectory longer than seq_len+1={seq_len + 1} in the pool"
        )
    weights = slack[eligible].astype(float)
    probs = weights / weights.sum()
    idx = eligible[rng.choice(eligible.size, size=batch_size, p=probs)]
    starts = rng.integers(0, slack[idx])
    return idx, starts


@dataclass
class Trajectory:
    """One scheme x environment trajectory."""

    scheme: str
    env_id: str
    multi_flow: bool
    states: np.ndarray  # (T, state_dim)
    actions: np.ndarray  # (T,)
    rewards: np.ndarray  # (T,)

    def __post_init__(self) -> None:
        t = len(self.actions)
        if self.states.shape[0] != t or self.rewards.shape[0] != t:
            raise ValueError("states/actions/rewards length mismatch")

    @property
    def length(self) -> int:
        return len(self.actions)


class PolicyPool:
    """A collection of trajectories from many schemes in many environments."""

    def __init__(self, trajectories: Optional[List[Trajectory]] = None) -> None:
        self.trajectories: List[Trajectory] = list(trajectories or [])
        self._concat = None  # lazy (states, actions, rewards, offsets, lengths)

    # ------------------------------------------------------------------
    def add(self, traj: Trajectory) -> None:
        self.trajectories.append(traj)
        self._concat = None

    def add_rollout(self, rollout) -> None:
        """Append a :class:`~repro.collector.rollout.RolloutResult`."""
        self.add(
            Trajectory(
                scheme=rollout.scheme,
                env_id=rollout.env.env_id,
                multi_flow=rollout.env.is_multi_flow,
                states=rollout.states,
                actions=rollout.actions,
                rewards=rollout.rewards,
            )
        )

    def __len__(self) -> int:
        return len(self.trajectories)

    @property
    def n_transitions(self) -> int:
        return sum(t.length for t in self.trajectories)

    def schemes(self) -> List[str]:
        return sorted({t.scheme for t in self.trajectories})

    def env_ids(self) -> List[str]:
        return sorted({t.env_id for t in self.trajectories})

    # ------------------------------------------------------------------
    def filter_schemes(self, keep: Iterable[str]) -> "PolicyPool":
        """A sub-pool containing only the given schemes (diversity ablation)."""
        keep_set = set(keep)
        return PolicyPool([t for t in self.trajectories if t.scheme in keep_set])

    def filter_env(self, predicate) -> "PolicyPool":
        """A sub-pool of trajectories whose env_id satisfies ``predicate``."""
        return PolicyPool([t for t in self.trajectories if predicate(t.env_id)])

    def grain_view(self, index: int, count: int) -> "PolicyPool":
        """Round-robin slice ``index`` of ``count`` — trajectories
        ``index, index+count, index+2*count, ...``.

        The data-parallel trainer's canonical batch decomposition: the
        grain's trajectory ordering (and therefore its sampling RNG
        stream) depends only on ``(index, count)``, never on which worker
        process samples it.
        """
        if not 0 <= index < count:
            raise ValueError(f"grain index {index} outside [0, {count})")
        return PolicyPool(self.trajectories[index::count])

    # ------------------------------------------------------------------
    def _concat_arrays(self):
        """Concatenated trajectory arrays for vectorized window sampling.

        Built lazily on first sample and invalidated by :meth:`add`. Windows
        never cross trajectory boundaries because starts are drawn within
        each trajectory's own span before adding its offset.
        """
        if self._concat is None:
            trajs = self.trajectories
            lengths = np.array([t.length for t in trajs], dtype=np.int64)
            offsets = np.zeros(len(trajs), dtype=np.int64)
            if len(trajs) > 1:
                offsets[1:] = np.cumsum(lengths[:-1])
            self._concat = (
                np.concatenate([t.states for t in trajs])
                if trajs
                else np.empty((0, 0)),
                np.concatenate([t.actions for t in trajs])
                if trajs
                else np.empty(0),
                np.concatenate([t.rewards for t in trajs])
                if trajs
                else np.empty(0),
                offsets,
                lengths,
            )
        return self._concat

    def sample_sequences(
        self,
        batch_size: int,
        seq_len: int,
        rng: np.random.Generator,
        normalize=None,
    ) -> Dict[str, np.ndarray]:
        """Sample ``batch_size`` windows of ``seq_len + 1`` consecutive steps.

        Returns arrays shaped for the recurrent learner:
        ``states (B, L, D)``, ``actions (B, L)``, ``rewards (B, L)``,
        ``next_states (B, L, D)``. Trajectories shorter than ``seq_len + 1``
        are skipped.

        The whole batch is one fancy-indexed gather from cached concatenated
        arrays — no per-window Python loop.
        """
        big_s, big_a, big_r, offsets, lengths = self._concat_arrays()
        idx, local_starts = draw_window_starts(lengths, seq_len, batch_size, rng)
        starts = offsets[idx] + local_starts
        rows = starts[:, None] + np.arange(seq_len + 1)
        s = big_s[rows]  # (B, L + 1, D)
        if normalize is not None:
            s = normalize(s)
        return {
            "states": s[:, :-1],
            "actions": big_a[rows[:, :-1]],
            "rewards": big_r[rows[:, :-1]],
            "next_states": s[:, 1:],
        }

    def drop_cache(self) -> None:
        """Release the concatenated-array cache.

        The cache holds a second full copy of every trajectory, so a pool
        that has been sampled keeps double its resident footprint until
        this is called. Training entry points call it once the epochs are
        done; the next :meth:`sample_sequences` rebuilds it transparently.
        """
        self._concat = None

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist the pool as one compressed ``.npz`` (:func:`write_npz`)."""
        payload: Dict[str, np.ndarray] = {
            "n": np.array([len(self.trajectories)]),
        }
        meta = []
        for i, t in enumerate(self.trajectories):
            if t.length == 0:
                raise ValueError(
                    f"refusing to save zero-length trajectory "
                    f"{t.scheme!r} on {t.env_id!r} (index {i})"
                )
            payload[f"s{i}"] = t.states
            payload[f"a{i}"] = t.actions
            payload[f"r{i}"] = t.rewards
            meta.append(
                f"{_escape_meta(t.scheme)}|{_escape_meta(t.env_id)}"
                f"|{int(t.multi_flow)}"
            )
        payload["meta"] = np.array(meta)
        write_npz(path, payload)

    @classmethod
    def load(cls, path) -> "PolicyPool":
        data = read_npz(path, what="pool file", required=("n", "meta"))
        try:
            meta = [str(m) for m in data["meta"]]
            trajectories = []
            for i in range(int(data["n"][0])):
                scheme, env_id, multi = parse_meta(meta[i])
                trajectories.append(
                    Trajectory(
                        scheme=scheme,
                        env_id=env_id,
                        multi_flow=multi,
                        states=data[f"s{i}"],
                        actions=data[f"a{i}"],
                        rewards=data[f"r{i}"],
                    )
                )
        except (KeyError, IndexError) as exc:
            raise ValueError(
                f"corrupt pool file {path}: missing entry {exc}"
            ) from exc
        return cls(trajectories)

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable pool inventory."""
        lines = [
            f"PolicyPool: {len(self)} trajectories, "
            f"{self.n_transitions} transitions"
        ]
        by_scheme: Dict[str, int] = {}
        for t in self.trajectories:
            by_scheme[t.scheme] = by_scheme.get(t.scheme, 0) + t.length
        for scheme in sorted(by_scheme):
            lines.append(f"  {scheme:12s} {by_scheme[scheme]:8d} transitions")
        return "\n".join(lines)
