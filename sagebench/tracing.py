"""Spans and per-boundary aggregates, recorded from outside the program.

The benchmark never edits ``repro``: it times a layer by temporarily
replacing that layer's public callables with thin wrappers that read the
clock around the original call and hand back exactly what it returned.
Nothing here draws random numbers or changes an argument, so a traced run
must produce the same outputs as an untraced one (the benchmark checks
this by comparing output digests).

Two granularities:

- **spans** for coarse boundaries (a rollout, a train step, a server tick,
  a forward pass, a distilled predict, a connect/close). Each span keeps
  its name, start, end, parent span and a run/request id.
- **aggregates** for per-packet boundaries (``run_until``, ``on_ack``,
  ``on_data``, ``TopoLink.send`` ...). These keep only count, total time
  and self time per ``(enclosing span, name)``, so memory stays bounded
  however many packets the simulator moves.

Self time is a node's duration minus the time its direct children cover.
Every node, span or aggregate, pushes a frame on one shared stack, so the
self times of all nodes add up to the root span's duration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    """One coarse boundary crossing."""

    __slots__ = ("span_id", "name", "parent", "request", "start", "end", "self_s")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 request, start: float) -> None:
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = start
        self.self_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span tree plus per-(span, name) aggregates."""

    def __init__(self, run_id: str,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: List[Span] = []
        #: (enclosing span id, name) -> [count, total_s, self_s]
        self.aggregates: Dict[Tuple[int, str], List[float]] = {}
        #: plain counters (events scheduled, rows forwarded, ...)
        self.counters: Dict[str, float] = {}
        # one frame per open node: [start, time covered by children]
        self._frames: List[List[float]] = []
        self._open: List[Span] = []

    # -- coarse spans ---------------------------------------------------
    def begin(self, name: str, request=None) -> Span:
        parent = self._open[-1].span_id if self._open else None
        start = self.clock()
        span = Span(len(self.spans), name, parent, request, start)
        self.spans.append(span)
        self._open.append(span)
        self._frames.append([start, 0.0])
        return span

    def end(self, span: Span) -> None:
        end = self.clock()
        if not self._open or self._open[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._open.pop()
        frame = self._frames.pop()
        span.end = end
        duration = end - frame[0]
        span.self_s = duration - frame[1]
        if self._frames:
            self._frames[-1][1] += duration

    @contextmanager
    def span(self, name: str, request=None) -> Iterator[Span]:
        sp = self.begin(name, request)
        try:
            yield sp
        finally:
            self.end(sp)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- wrappers -------------------------------------------------------
    def wrap_span(self, name: str, fn: Callable,
                  on_call: Optional[Callable] = None) -> Callable:
        """``fn`` timed as one span per call; ``on_call(args, result)``
        may count what the call did."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            sp = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(sp)
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def wrap_aggregate(self, name: str, fn: Callable,
                       on_call: Optional[Callable] = None) -> Callable:
        """``fn`` folded into per-(enclosing span, name) count/total/self."""
        frames, open_spans, aggs, clock = (
            self._frames, self._open, self.aggregates, self.clock
        )

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - frame[0]
                if frames:
                    frames[-1][1] += duration
                key = (open_spans[-1].span_id if open_spans else -1, name)
                agg = aggs.get(key)
                if agg is None:
                    agg = aggs[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    # -- read-out -------------------------------------------------------
    def totals(self, name: str) -> Tuple[int, float, float]:
        """``(count, total_s, self_s)`` of every span or aggregate ``name``."""
        count, total, self_s = 0, 0.0, 0.0
        for sp in self.spans:
            if sp.name == name:
                count += 1
                total += sp.duration
                self_s += sp.self_s
        for (_, agg_name), (n, tot, slf) in self.aggregates.items():
            if agg_name == name:
                count += int(n)
                total += tot
                self_s += slf
        return count, total, self_s

    def durations(self, name: str) -> List[float]:
        return [sp.duration for sp in self.spans if sp.name == name]

    def self_time_sum(self) -> float:
        return sum(sp.self_s for sp in self.spans) + sum(
            a[2] for a in self.aggregates.values()
        )

    def integrity(self, tolerance_s: float) -> Dict[str, object]:
        """Self times are non-negative and sum to the root spans' duration."""
        roots = [sp for sp in self.spans if sp.parent is None]
        root_s = sum(sp.duration for sp in roots)
        min_self = min(
            [sp.self_s for sp in self.spans]
            + [a[2] for a in self.aggregates.values()],
            default=0.0,
        )
        gap = abs(self.self_time_sum() - root_s)
        return {
            "open_spans": len(self._open),
            "min_self_s": min_self,
            "root_s": root_s,
            "self_sum_gap_s": gap,
            "ok": not self._open and min_self >= -1e-9 and gap <= tolerance_s,
        }

    def to_json(self) -> Dict[str, object]:
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "run_id": self.run_id,
            "spans": [
                {
                    "id": sp.span_id, "name": sp.name, "parent": sp.parent,
                    "run": self.run_id, "request": sp.request,
                    "start_s": sp.start - t0, "end_s": sp.end - t0,
                    "self_s": sp.self_s,
                }
                for sp in self.spans
            ],
            "aggregates": [
                {"parent": pid, "name": name, "count": int(a[0]),
                 "total_s": a[1], "self_s": a[2]}
                for (pid, name), a in sorted(self.aggregates.items())
            ],
            "counters": dict(self.counters),
        }


class Patches:
    """Replace attributes for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by
        ``make(original)``."""
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
