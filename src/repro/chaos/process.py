"""FaultProcess: a continuous, seed-deterministic stream of faults.

A :class:`~repro.chaos.plan.FaultPlan` is a *finite* schedule — the right
tool for acceptance tests that fire four known faults. A soak run needs
the opposite: faults that keep arriving for as long as the system runs,
at controlled per-site rates, without ever sacrificing determinism. A
:class:`FaultProcess` is that generator: each site gets an independent
Poisson arrival stream (exponential inter-arrival gaps, measured in that
site's occurrence slots — task index, shard index, batch index, tick
index), drawn from its own seeded RNG stream.

Three properties make soak runs debuggable rather than flaky:

- **Deterministic.** The same ``(seed, rates)`` always produces the same
  arrivals; a failing soak reproduces from its seed alone.
- **Disjoint streams.** Each site's RNG stream is keyed by
  ``(seed, crc32(site))``, so changing one site's rate (or adding a site)
  never shifts another site's schedule.
- **Prefix-stable.** Extending the horizon only *appends* arrivals;
  ``arrivals(site, 100)`` is a prefix of ``arrivals(site, 1000)``.

Materialize a window with :meth:`plan` / :meth:`injector`: the result is
an ordinary :class:`FaultPlan` / :class:`FaultInjector`, so every firing
inherits the one-shot replay-clean guarantee — a retried task or replayed
batch runs clean and recovery can fully mask the fault.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.chaos.inject import FaultInjector
from repro.chaos.plan import (
    DEFAULT_PARAMS,
    DEFAULT_UNIVERSES,
    SITES,
    FaultPlan,
    FaultSpec,
)
from repro.io import write_json

__all__ = ["FaultProcess", "DEFAULT_RATES", "PROCESS_SCHEMA_VERSION"]

PROCESS_SCHEMA_VERSION = 1

#: default expected faults *per occurrence slot* when a site is enabled
#: without an explicit rate; chosen so a mini-scale soak round sees a
#: handful of firings per site, not a storm
DEFAULT_RATES: Dict[str, float] = {
    "collector.crash": 0.10,
    "collector.hang": 0.05,
    "datastore.bitflip": 0.15,
    "datastore.truncate": 0.10,
    "train.nan": 0.03,
    "train.spike": 0.02,
    "train.workercrash": 0.02,
    "serve.nan": 0.02,
    "serve.slow": 0.02,
    "netsim.linkflap": 0.10,
    "netsim.aqmstall": 0.10,
    "workload.burst": 0.02,
}


class FaultProcess:
    """Seeded Poisson fault streams, one per site, materializable to plans.

    ``rates[site]`` is the expected number of faults per occurrence slot
    at that site (so ``rate * horizon`` faults are expected over a
    ``horizon``-slot window). At most one fault fires per slot per site —
    arrivals landing in an occupied slot are dropped, matching the
    one-shot :class:`FaultInjector` contract.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Dict[str, float]] = None,
        params: Optional[Dict[str, float]] = None,
    ) -> None:
        self.seed = int(seed)
        self.rates: Dict[str, float] = {}
        for site, rate in (rates if rates is not None else DEFAULT_RATES).items():
            if site not in SITES:
                raise ValueError(
                    f"unknown fault site {site!r}; known: {sorted(SITES)}"
                )
            rate = float(rate)
            if not np.isfinite(rate) or rate < 0.0:
                raise ValueError(
                    f"rates[{site!r}] must be a finite rate >= 0, got {rate}"
                )
            self.rates[site] = rate
        self.params: Dict[str, float] = {**DEFAULT_PARAMS, **(params or {})}

    # ------------------------------------------------------------------
    def _stream(self, site: str) -> np.random.Generator:
        """The site's private RNG stream: disjoint across sites, stable
        under changes to any *other* site's rate."""
        return np.random.default_rng(
            [self.seed & 0xFFFFFFFF, zlib.crc32(site.encode("utf-8"))]
        )

    def arrivals(self, site: str, horizon: int) -> List[int]:
        """Occurrence slots in ``[0, horizon)`` where ``site`` fires.

        Poisson arrivals: exponential gaps accumulated in continuous slot
        time, floored to integer slots, deduplicated (one-shot per slot).
        Prefix-stable in ``horizon``.
        """
        if site not in SITES:
            raise ValueError(
                f"unknown fault site {site!r}; known: {sorted(SITES)}"
            )
        horizon = int(horizon)
        rate = self.rates.get(site, 0.0)
        if horizon <= 0 or rate <= 0.0:
            return []
        rng = self._stream(site)
        slots: List[int] = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= horizon:
                break
            slot = int(t)
            if not slots or slots[-1] != slot:
                slots.append(slot)
        return slots

    # ------------------------------------------------------------------
    def plan(self, horizons: Optional[Dict[str, int]] = None) -> FaultPlan:
        """Materialize one window of the process as a :class:`FaultPlan`.

        ``horizons`` maps a site (``"serve.nan"``) or a whole group
        (``"serve"``) to its slot count for this window; unlisted groups
        fall back to :data:`DEFAULT_UNIVERSES`. A site mapped to 0 slots
        is silent this window.
        """
        horizons = dict(horizons or {})
        faults: List[FaultSpec] = []
        for site in sorted(self.rates):
            group = site.split(".", 1)[0]
            horizon = horizons.get(
                site, horizons.get(group, DEFAULT_UNIVERSES.get(group, 0))
            )
            param = float(self.params.get(site, 0.0))
            for slot in self.arrivals(site, horizon):
                faults.append(FaultSpec(site=site, target=slot, param=param))
        return FaultPlan(seed=self.seed, faults=faults)

    def injector(self, horizons: Optional[Dict[str, int]] = None) -> FaultInjector:
        """One-shot injector for one window (see :meth:`plan`)."""
        return FaultInjector(self.plan(horizons))

    # ------------------------------------------------------------------
    def describe(self, horizons: Optional[Dict[str, int]] = None) -> str:
        """Human-readable summary (CLI ``chaos process`` output)."""
        plan = self.plan(horizons)
        counts: Dict[str, int] = {}
        for f in plan.faults:
            counts[f.site] = counts.get(f.site, 0) + 1
        lines = [
            f"FaultProcess seed={self.seed}: {len(self.rates)} site(s), "
            f"{len(plan.faults)} fault(s) this window"
        ]
        for site in sorted(self.rates):
            lines.append(
                f"  {site:20s} rate={self.rates[site]:<8g} "
                f"fired={counts.get(site, 0)}"
            )
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FaultProcess)
            and self.seed == other.seed
            and self.rates == other.rates
            and self.params == other.params
        )

    def __repr__(self) -> str:
        return f"FaultProcess(seed={self.seed}, rates={self.rates!r})"

    # ------------------------------------------------------------------
    def to_json(self) -> Dict:
        return {
            "schema_version": PROCESS_SCHEMA_VERSION,
            "seed": self.seed,
            "rates": dict(sorted(self.rates.items())),
            "params": {
                site: self.params[site]
                for site in sorted(self.rates)
                if site in self.params
            },
        }

    @classmethod
    def from_json(cls, d: Dict) -> "FaultProcess":
        version = d.get("schema_version")
        if version != PROCESS_SCHEMA_VERSION:
            raise ValueError(
                f"fault process has schema version {version!r}; this build "
                f"reads version {PROCESS_SCHEMA_VERSION}"
            )
        return cls(
            seed=int(d.get("seed", 0)),
            rates={str(k): float(v) for k, v in d.get("rates", {}).items()},
            params={str(k): float(v) for k, v in d.get("params", {}).items()},
        )

    def save(self, path) -> None:
        """Atomically write the process spec as JSON."""
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "FaultProcess":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt fault process {path}: {exc}") from exc
        return cls.from_json(data)
