"""Winning-rate matrix: CC scheme x queue discipline (AQM).

The ROADMAP's co-evolution question in one table: the paper's pool was
collected under droptail queues — do the learned policy and the heuristics
keep their ranking when the *queue* gets intelligent? Every participant
plays a representative dumbbell env set per AQM
(:func:`~repro.collector.environments.aqm_environments`), from classic
taildrop through CoDel/PIE to FQ-CoDel's per-flow fairness and the
:class:`~repro.netsim.aqm.LearnedECN` marking queue; each rollout is scored
per scenario-interval with the league's margin rules, and the matrix
reports one winning rate per (participant, AQM) cell.

``repro aqm matrix`` renders and saves it in one CLI invocation; CI uploads
the JSON as the ``aqm-matrix`` artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.collector.environments import aqm_environments
from repro.evalx.leagues import Participant, _run_matches, run_participant
from repro.evalx.scores import ScoreEntry, interval_scores, winning_rates
from repro.io import write_json

__all__ = ["AqmMatrix", "run_aqm_matrix", "DEFAULT_MATRIX_AQMS"]

MATRIX_SCHEMA_VERSION = 1

#: the default queue panel: the droptail baseline, two delay-controlling
#: heuristics, per-flow fairness, and the learned marking queue
DEFAULT_MATRIX_AQMS = ("taildrop", "codel", "pie", "fq_codel", "learned_ecn")


def _aqm_key(aqm: str) -> str:
    """Column label: registry name without any @checkpoint suffix."""
    return aqm.partition("@")[0].lower()


@dataclass
class AqmMatrix:
    """Winning rates per (participant, queue discipline)."""

    #: aqm -> participant -> winning rate in [0, 1]
    rates: Dict[str, Dict[str, float]]
    #: aqm -> raw per-interval scores (for drill-down)
    entries: Dict[str, List[ScoreEntry]] = field(default_factory=dict)
    #: aqm -> total CE marks applied across that column's rollouts
    ecn_marks: Dict[str, int] = field(default_factory=dict)

    @property
    def aqms(self) -> List[str]:
        return list(self.rates.keys())

    @property
    def participants(self) -> List[str]:
        names: List[str] = []
        for per_aqm in self.rates.values():
            for name in per_aqm:
                if name not in names:
                    names.append(name)
        return names

    def format_table(self) -> str:
        """Render the matrix: rows = participants, columns = AQMs."""
        names = self.participants
        aqms = self.aqms
        width = max([len(n) for n in names] + [8])
        header = f"{'scheme':>{width}} " + " ".join(f"{a:>12}" for a in aqms)
        lines = [header, "-" * len(header)]

        def mean_rate(name: str) -> float:
            vals = [self.rates[a].get(name, 0.0) for a in aqms]
            return sum(vals) / len(vals) if vals else 0.0

        for name in sorted(names, key=mean_rate, reverse=True):
            cells = " ".join(
                f"{self.rates[a].get(name, 0.0) * 100:11.2f}%" for a in aqms
            )
            lines.append(f"{name:>{width}} {cells}")
        if self.ecn_marks:
            marks = " ".join(
                f"{self.ecn_marks.get(a, 0):>12}" for a in aqms
            )
            lines.append("-" * len(header))
            lines.append(f"{'ce marks':>{width}} {marks}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "schema_version": MATRIX_SCHEMA_VERSION,
            "aqms": self.aqms,
            "participants": self.participants,
            "rates": {
                a: {n: round(r, 6) for n, r in per.items()}
                for a, per in self.rates.items()
            },
            "ecn_marks": dict(self.ecn_marks),
        }

    def save(self, path) -> None:
        """Atomically write the matrix as JSON (the CI artifact)."""
        write_json(path, self.to_json())


def run_aqm_matrix(
    participants: Sequence[Participant],
    aqms: Sequence[str] = DEFAULT_MATRIX_AQMS,
    duration: float = 12.0,
    margin: float = 0.10,
    alpha: float = 2.0,
    n_intervals: int = 4,
    tick: float = 0.02,
    workers: int = 1,
    ecn_threshold_bdp: float = 0.0,
    progress=None,
) -> AqmMatrix:
    """Play every participant under every queue discipline and score it.

    Winning rates are computed *within* each AQM column (an interval is won
    by beating every rival's score by the league margin in that scenario),
    so a column reads as "who masters this queue" and the droptail column
    is the transfer baseline. ``ecn_threshold_bdp`` arms DCTCP-style step
    marking on disciplines that take a threshold (taildrop); natively
    marking AQMs signal regardless. ``workers`` fans rollouts over
    processes exactly like :func:`~repro.evalx.leagues.run_league`.
    """
    if not aqms:
        raise ValueError("need at least one AQM column")
    rates: Dict[str, Dict[str, float]] = {}
    entries: Dict[str, List[ScoreEntry]] = {}
    marks: Dict[str, int] = {}
    for aqm in aqms:
        envs = aqm_environments(
            aqm, duration=duration, ecn_threshold_bdp=ecn_threshold_bdp
        )
        col_entries: List[ScoreEntry] = []
        col_marks = 0
        if workers is not None and workers == 1:
            for env in envs:
                for p in participants:
                    result = run_participant(p, env, tick=tick)
                    col_entries.extend(
                        interval_scores(result, alpha=alpha, n_intervals=n_intervals)
                    )
                    col_marks += getattr(result, "ecn_marks", 0) or 0
                    if progress is not None:
                        progress(f"{p.name} on {env.env_id}")
        else:
            for result in _run_matches(participants, envs, tick, workers, progress):
                col_entries.extend(
                    interval_scores(result, alpha=alpha, n_intervals=n_intervals)
                )
                col_marks += getattr(result, "ecn_marks", 0) or 0
        key = _aqm_key(aqm)
        rates[key] = winning_rates(col_entries, margin=margin)
        entries[key] = col_entries
        marks[key] = col_marks
    return AqmMatrix(rates=rates, entries=entries, ecn_marks=marks)
