"""Unit tests for the discrete-event engine."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import EventLoop, Timer


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.call_at(2.0, lambda: fired.append("b"))
    loop.call_at(1.0, lambda: fired.append("a"))
    loop.call_at(3.0, lambda: fired.append("c"))
    loop.run_until(10.0)
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order():
    loop = EventLoop()
    fired = []
    for i in range(5):
        loop.call_at(1.0, lambda i=i: fired.append(i))
    loop.run_until(1.0)
    assert fired == [0, 1, 2, 3, 4]


def test_run_until_advances_clock_even_with_no_events():
    loop = EventLoop()
    loop.run_until(5.0)
    assert loop.now == 5.0


def test_run_until_does_not_fire_future_events():
    loop = EventLoop()
    fired = []
    loop.call_at(2.0, lambda: fired.append("x"))
    loop.run_until(1.0)
    assert fired == []
    loop.run_until(2.0)
    assert fired == ["x"]


def test_call_later_is_relative_to_now():
    loop = EventLoop()
    times = []
    loop.call_at(1.0, lambda: loop.call_later(0.5, lambda: times.append(loop.now)))
    loop.run_until(3.0)
    assert times == [pytest.approx(1.5)]


def test_cancelled_events_do_not_fire():
    loop = EventLoop()
    fired = []
    handle = loop.call_at(1.0, lambda: fired.append("x"))
    handle.cancel()
    loop.run_until(2.0)
    assert fired == []


def test_cancel_one_of_several_at_same_time():
    loop = EventLoop()
    fired = []
    h1 = loop.call_at(1.0, lambda: fired.append(1))
    loop.call_at(1.0, lambda: fired.append(2))
    h1.cancel()
    loop.run_until(1.0)
    assert fired == [2]


def test_scheduling_in_the_past_raises():
    loop = EventLoop()
    loop.run_until(5.0)
    with pytest.raises(ValueError):
        loop.call_at(4.0, lambda: None)


def test_negative_delay_raises():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.call_later(-1.0, lambda: None)


def test_events_scheduled_during_run_fire_in_same_run():
    loop = EventLoop()
    fired = []

    def chain():
        fired.append(loop.now)
        if loop.now < 0.5:
            loop.call_later(0.1, chain)

    loop.call_at(0.1, chain)
    loop.run_until(1.0)
    assert len(fired) >= 5


def test_pending_counts_only_live_events():
    loop = EventLoop()
    h1 = loop.call_at(1.0, lambda: None)
    loop.call_at(2.0, lambda: None)
    h1.cancel()
    assert loop.pending() == 1


def test_peek_time_skips_cancelled():
    loop = EventLoop()
    h1 = loop.call_at(1.0, lambda: None)
    loop.call_at(2.0, lambda: None)
    h1.cancel()
    assert loop.peek_time() == 2.0


def test_peek_time_empty_returns_none():
    assert EventLoop().peek_time() is None


def test_run_all_drains_everything():
    loop = EventLoop()
    fired = []
    loop.call_at(1.0, lambda: loop.call_later(1.0, lambda: fired.append("deep")))
    loop.run_all()
    assert fired == ["deep"]


def test_now_monotone_across_runs():
    loop = EventLoop()
    loop.call_at(1.0, lambda: None)
    loop.run_until(2.0)
    t1 = loop.now
    loop.run_until(3.0)
    assert loop.now >= t1


def test_run_all_leaves_events_past_the_limit_queued():
    loop = EventLoop()
    fired = []
    loop.call_at(1.0, lambda: fired.append(1))
    loop.call_at(5.0, lambda: fired.append(5))
    loop.run_all(hard_limit=2.0)
    assert fired == [1] and loop.now == 1.0
    assert loop.peek_time() == 5.0


# ---------------------------------------------------------------------------
# Timer: the re-armable one-shot timer
# ---------------------------------------------------------------------------


class TestTimer:
    def test_fires_once_at_deadline(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.mod(2.0)
        assert timer.when == 2.0
        loop.run_until(10.0)
        assert fired == [2.0]
        assert timer.when is None

    def test_later_mod_moves_the_deadline_without_a_new_entry(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.mod(1.0)
        for when in (1.5, 2.0, 2.5, 3.0):
            timer.mod(when)
        assert len(loop._heap) == 1
        loop.run_until(10.0)
        assert fired == [3.0]

    def test_earlier_mod_fires_early(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.mod(5.0)
        timer.mod(1.0)
        loop.run_until(10.0)
        assert fired == [1.0]

    def test_cancel_disarms(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.mod(1.0)
        timer.cancel()
        timer.cancel()  # idempotent
        loop.run_until(10.0)
        assert fired == [] and timer.when is None

    def test_same_time_ties_follow_the_last_mod(self):
        # re-arming to an equal deadline moves the timer behind events
        # scheduled in between, exactly as cancel + call_at would
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append("timer"))
        timer.mod(1.0)
        loop.call_at(1.0, lambda: fired.append("event"))
        timer.mod(1.0)
        loop.run_until(1.0)
        assert fired == ["event", "timer"]

    def test_mod_in_the_past_raises(self):
        loop = EventLoop()
        loop.run_until(5.0)
        with pytest.raises(ValueError):
            Timer(loop, lambda: None).mod(4.0)

    def test_rearm_from_own_callback(self):
        loop = EventLoop()
        fired = []
        timer = None

        def tick():
            fired.append(loop.now)
            if len(fired) < 3:
                timer.mod(loop.now + 1.0)

        timer = Timer(loop, tick)
        timer.mod(1.0)
        loop.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]


class TestTimerIntrospection:
    """``peek_time``/``pending`` see a timer at its deadline, not its entry."""

    def test_peek_time_reports_moved_deadline(self):
        loop = EventLoop()
        timer = Timer(loop, lambda: None)
        timer.mod(1.0)
        timer.mod(3.0)  # the queued entry still says 1.0
        assert loop.peek_time() == 3.0
        assert loop.pending() == 1

    def test_peek_time_orders_timer_among_events(self):
        loop = EventLoop()
        timer = Timer(loop, lambda: None)
        timer.mod(1.0)
        handle = loop.call_at(2.0, lambda: None)
        timer.mod(4.0)
        assert loop.peek_time() == 2.0
        handle.cancel()
        assert loop.peek_time() == 4.0
        assert loop.pending() == 1

    def test_superseded_entry_not_counted(self):
        loop = EventLoop()
        timer = Timer(loop, lambda: None)
        timer.mod(5.0)
        timer.mod(1.0)  # pushes an earlier entry; the 5.0 one is dead
        assert loop.pending() == 1
        assert loop.peek_time() == 1.0

    def test_cancelled_timer_invisible(self):
        loop = EventLoop()
        timer = Timer(loop, lambda: None)
        timer.mod(1.0)
        timer.cancel()
        assert loop.pending() == 0
        assert loop.peek_time() is None

    def test_peek_does_not_change_firing_order(self):
        def run(peek):
            loop = EventLoop()
            fired = []
            timer = Timer(loop, lambda: fired.append(("timer", loop.now)))
            timer.mod(1.0)
            loop.call_at(3.0, lambda: fired.append(("event", loop.now)))
            timer.mod(3.0)
            if peek:
                assert loop.peek_time() == 3.0
            loop.run_until(5.0)
            return fired

        assert run(peek=True) == run(peek=False) == [
            ("event", 3.0), ("timer", 3.0)]


class _EagerTimer:
    """Reference model: the cancel-and-``call_at`` idiom Timer replaces."""

    def __init__(self, loop, callback):
        self.loop = loop
        self.callback = callback
        self.handle = None

    def mod(self, when):
        if self.handle is not None:
            self.handle.cancel()
        self.handle = self.loop.call_at(when, self._fire)

    def cancel(self):
        if self.handle is not None:
            self.handle.cancel()
            self.handle = None

    def _fire(self):
        self.handle = None
        self.callback()


N_TIMERS = 3
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])
_OPS = st.one_of(
    st.tuples(st.just("call_at"), _DELAYS, st.integers(0, 3)),
    st.tuples(st.just("mod"), st.integers(0, N_TIMERS - 1), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, N_TIMERS - 1)),
)
_LABELS = st.one_of(
    st.tuples(st.just("event"), st.integers(0, 3)),
    st.tuples(st.just("timer"), st.integers(0, N_TIMERS - 1)),
)
_PROGRAM = st.lists(
    st.one_of(_OPS, st.tuples(st.just("run"), _DELAYS)), min_size=1, max_size=40)
_REACTIONS = st.dictionaries(_LABELS, st.lists(_OPS, max_size=4))


def _replay(make_timer, program, reactions):
    """Run ``program`` and return every observation the loop allows.

    Each fired callback records ``(now, label)`` and applies its reaction
    ops (for its first three firings, so self-re-arming chains end).
    """
    loop = EventLoop()
    fired = []
    counts = collections.Counter()

    def react(label):
        fired.append((loop.now, label))
        counts[label] += 1
        if counts[label] <= 3:
            for op in reactions.get(label, ()):
                apply(op)

    def apply(op):
        if op[0] == "call_at":
            loop.call_at(loop.now + op[1], lambda label=("event", op[2]): react(label))
        elif op[0] == "mod":
            timers[op[1]].mod(loop.now + op[2])
        else:
            timers[op[1]].cancel()

    timers = [make_timer(loop, lambda label=("timer", i): react(label))
              for i in range(N_TIMERS)]
    observed = []
    for step in program:
        if step[0] == "run":
            loop.run_until(loop.now + step[1])
            observed.append((loop.now, loop.peek_time(), loop.pending()))
        else:
            apply(step)
            observed.append((loop.peek_time(), loop.pending()))
    loop.run_until(loop.now + 100.0)
    observed.append((loop.now, loop.peek_time(), loop.pending()))
    return fired, observed


@settings(max_examples=300, deadline=None)
@given(program=_PROGRAM, reactions=_REACTIONS)
def test_timer_matches_eager_reference(program, reactions):
    """Lazy re-arming fires every callback exactly where cancel + call_at would:
    same times, same order among same-time events, same peek/pending views."""
    assert _replay(Timer, program, reactions) == _replay(
        _EagerTimer, program, reactions)
