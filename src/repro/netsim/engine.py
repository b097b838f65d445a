"""Discrete-event simulation engine.

A minimal, fast event loop: events are ``(time, sequence, callback)`` triples
kept in a binary heap. The ``sequence`` counter breaks ties deterministically
so that two events scheduled for the same instant fire in scheduling order,
which keeps every simulation fully reproducible.

Timers that are pushed back far more often than they fire (TCP's RTO moves
on every ACK) use :class:`Timer` instead of a cancel-and-reschedule pair: it
keeps one heap entry and re-queues it only when the entry comes due before
the current deadline.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, Optional


class EventHandle:
    """Handle returned by :meth:`EventLoop.call_at`; allows cancellation.

    Cancellation is lazy: the heap entry stays in place but is skipped when
    popped. This is the standard O(1)-cancel trick.
    """

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]):
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the loop skips it."""
        self.cancelled = True


class _TimerEntry(EventHandle):
    """A :class:`Timer`'s heap entry; its callback is the timer's expiry."""

    __slots__ = ("timer",)

    def __init__(self, time: float, timer: "Timer"):
        super().__init__(time, timer._expire)
        self.timer = timer


class Timer:
    """A re-armable one-shot timer, like the kernel's ``mod_timer``.

    ``mod(when)`` (re)arms the timer for absolute time ``when`` and draws the
    loop's next sequence number, exactly as a fresh :meth:`EventLoop.call_at`
    would, so the callback fires under the same ``(when, sequence)`` key —
    same time, same place among same-time events — as with the eager
    cancel-and-``call_at`` idiom. Only the heap traffic differs: the timer
    keeps at most one live heap entry, pushes a new one only when the
    deadline moves earlier than the queued entry, and, when the queued entry
    comes due before the deadline, re-queues it under the deadline's key.

    The timer holds ``callback``: an owner that also holds its timer forms a
    reference cycle, which it should break when it is done with the timer.
    """

    __slots__ = ("loop", "callback", "when", "_seq", "_entry", "_entry_seq")

    def __init__(self, loop: "EventLoop", callback: Callable[[], None]):
        self.loop = loop
        self.callback = callback
        #: current deadline, or None while disarmed
        self.when: Optional[float] = None
        self._seq = -1  # sequence number drawn by the last mod()
        self._entry: Optional[_TimerEntry] = None  # the one live heap entry
        self._entry_seq = -1

    def mod(self, when: float) -> None:
        """Arm (or re-arm) the timer to fire at absolute time ``when``."""
        loop = self.loop
        if when < loop.now:
            raise ValueError(
                f"cannot schedule in the past: now={loop.now:.6f}, when={when:.6f}"
            )
        self.when = when
        self._seq = seq = next(loop._seq)
        entry = self._entry
        if entry is None or when < entry.time:
            if entry is not None:
                entry.cancelled = True
            self._entry = entry = _TimerEntry(when, self)
            self._entry_seq = seq
            heappush(loop._heap, (when, seq, entry))

    def cancel(self) -> None:
        """Disarm the timer; a no-op if it is not armed."""
        self.when = None
        entry = self._entry
        if entry is not None:
            entry.cancelled = True
            self._entry = None

    def _requeue(self) -> None:
        """Queue the live entry (just popped) again under the deadline's key."""
        entry = self._entry
        entry.time = self.when
        self._entry_seq = self._seq
        heappush(self.loop._heap, (self.when, self._seq, entry))

    def _expire(self) -> None:
        if self._seq != self._entry_seq:
            self._requeue()  # the deadline moved later since the entry was queued
            return
        self._entry = None
        self.when = None
        self.callback()


class EventLoop:
    """The simulation clock and event queue.

    Typical usage::

        loop = EventLoop()
        loop.call_at(1.0, lambda: print("one second"))
        loop.run_until(10.0)
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()
        self.now: float = 0.0

    def call_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``when``."""
        if when < self.now:
            raise ValueError(
                f"cannot schedule in the past: now={self.now:.6f}, when={when:.6f}"
            )
        handle = EventHandle(when, callback)
        heappush(self._heap, (when, next(self._seq), handle))
        return handle

    def call_later(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self.now + delay, callback)

    def run_until(self, t_end: float) -> None:
        """Run events with time <= ``t_end``; leaves ``now`` at ``t_end``."""
        heap = self._heap
        while heap and heap[0][0] <= t_end:
            when, _, handle = heappop(heap)
            if handle.cancelled:
                continue
            self.now = when
            handle.callback()
        self.now = max(self.now, t_end)

    def run_all(self, hard_limit: float = 1e9) -> None:
        """Run every event with time <= ``hard_limit``; later ones stay queued."""
        heap = self._heap
        while heap and heap[0][0] <= hard_limit:
            when, _, handle = heappop(heap)
            if handle.cancelled:
                continue
            self.now = when
            handle.callback()

    def pending(self) -> int:
        """Number of live events still queued (an armed timer counts once)."""
        return sum(1 for _, _, h in self._heap if not h.cancelled)

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty.

        An armed :class:`Timer` counts at its current deadline, not at the
        time its heap entry was queued for.
        """
        heap = self._heap
        while heap:
            _, seq, handle = heap[0]
            if handle.cancelled:
                heappop(heap)
            elif isinstance(handle, _TimerEntry) and seq != handle.timer._seq:
                heappop(heap)
                handle.timer._requeue()
            else:
                return heap[0][0]
        return None
