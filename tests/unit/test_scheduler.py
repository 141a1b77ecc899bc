"""Unit tests for the discrete-event scheduler."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.engine import Scheduler


def test_events_run_in_time_order():
    s = Scheduler()
    seen = []
    s.at(30, lambda: seen.append(30))
    s.at(10, lambda: seen.append(10))
    s.at(20, lambda: seen.append(20))
    s.run()
    assert seen == [10, 20, 30]
    assert s.now == 30


def test_same_cycle_events_run_fifo():
    s = Scheduler()
    seen = []
    for i in range(5):
        s.at(7, lambda i=i: seen.append(i))
    s.run()
    assert seen == [0, 1, 2, 3, 4]


def test_after_is_relative_to_now():
    s = Scheduler()
    times = []

    def first():
        s.after(5, lambda: times.append(s.now))

    s.at(10, first)
    s.run()
    assert times == [15]


def test_cannot_schedule_in_the_past():
    s = Scheduler()
    s.at(5, lambda: None)
    s.run()
    with pytest.raises(SimulationError):
        s.at(3, lambda: None)


def test_negative_delay_rejected():
    s = Scheduler()
    with pytest.raises(SimulationError):
        s.after(-1, lambda: None)


def test_cancelled_event_does_not_fire():
    s = Scheduler()
    seen = []
    ev = s.at(10, lambda: seen.append("cancelled"))
    s.at(10, lambda: seen.append("kept"))
    s.cancel(ev)
    s.run()
    assert seen == ["kept"]


def test_run_until_stops_before_later_events():
    s = Scheduler()
    seen = []
    s.at(10, lambda: seen.append(10))
    s.at(20, lambda: seen.append(20))
    executed = s.run(until=15)
    assert seen == [10]
    assert executed == 1
    # clock advances to the until bound when idle
    assert s.now == 15
    s.run()
    assert seen == [10, 20]


def test_events_scheduled_during_run_execute():
    s = Scheduler()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 4:
            s.after(1, lambda: chain(n + 1))

    s.at(0, lambda: chain(0))
    s.run()
    assert seen == [0, 1, 2, 3, 4]
    assert s.now == 4


def test_max_events_guard():
    s = Scheduler()

    def forever():
        s.after(1, forever)

    s.at(0, forever)
    with pytest.raises(SimulationError):
        s.run(max_events=100)


def test_peek_time_skips_cancelled():
    s = Scheduler()
    ev = s.at(5, lambda: None)
    s.at(9, lambda: None)
    s.cancel(ev)
    assert s.peek_time() == 9


def test_len_counts_live_events():
    s = Scheduler()
    ev = s.at(5, lambda: None)
    s.at(6, lambda: None)
    assert len(s) == 2
    s.cancel(ev)
    assert len(s) == 1


def test_after_goes_through_at(monkeypatch):
    # Tooling that attributes event callbacks hooks only Scheduler.at.
    calls = []
    original = Scheduler.at

    def spy(sched, time, fn):
        calls.append(time)
        return original(sched, time, fn)

    monkeypatch.setattr(Scheduler, "at", spy)
    s = Scheduler()
    s.at(4, lambda: s.after(3, lambda: None))
    s.run()
    assert calls == [4, 7]


class _HeapModel:
    """The ordering contract as a plain heap of [time, seq, fn, cancelled]."""

    def __init__(self):
        self.now, self.seq, self.queue = 0, 0, []

    def __len__(self):
        return sum(1 for ev in self.queue if not ev[3])

    def at(self, time, fn):
        ev = [time, self.seq, fn, False]
        self.seq += 1
        heapq.heappush(self.queue, ev)
        return ev

    def after(self, delay, fn):
        return self.at(self.now + delay, fn)

    def cancel(self, ev):
        ev[3] = True

    def peek_time(self):
        while self.queue and self.queue[0][3]:
            heapq.heappop(self.queue)
        return self.queue[0][0] if self.queue else None

    def step(self):
        if self.peek_time() is None:
            return False
        ev = heapq.heappop(self.queue)
        self.now = ev[0]
        ev[2]()
        return True

    def run(self, until=None):
        executed = 0
        while self.queue:
            if self.queue[0][3]:
                heapq.heappop(self.queue)
            elif until is not None and self.queue[0][0] > until:
                break
            else:
                ev = heapq.heappop(self.queue)
                self.now = ev[0]
                ev[2]()
                executed += 1
        if until is not None and self.now < until:
            self.now = until
        return executed


#: one action an event performs when it fires: schedule a child with
#: at/after at a delay (0 = same-cycle append during the drain), or
#: cancel the event created ``back`` creations ago (maybe already fired)
_action = st.one_of(
    st.tuples(st.sampled_from(["at", "after"]), st.integers(0, 6)),
    st.tuples(st.just("cancel"), st.integers(0, 8)),
)

#: one call `_drive` makes between events: run to a bound (None drains
#: the queue), fire one event, or read the next event's cycle or the
#: number of live events
_command = st.one_of(
    st.tuples(st.just("run"), st.one_of(st.none(), st.integers(0, 40))),
    st.tuples(st.sampled_from(["step", "peek_time", "len"]), st.none()),
)


def _drive(sched, roots, root_cancels, plan, commands):
    """Run one schedule; return what each command saw, with the firing
    log and the clock after it."""
    log, events, observed = [], [], []

    def perform(action):
        kind, arg = action
        if kind == "cancel":
            if arg < len(events):
                sched.cancel(events[-1 - arg])
        elif len(events) < 120:
            schedule(kind, arg)

    def schedule(kind, delay):
        label = len(events)

        def fire():
            log.append((label, sched.now))
            for action in plan[label % len(plan)]:
                perform(action)

        if kind == "at":
            events.append(sched.at(sched.now + delay, fire))
        else:
            events.append(sched.after(delay, fire))

    for kind, time in roots:
        schedule(kind, time)
    for back in root_cancels:
        perform(("cancel", back))
    for command, arg in commands:
        if command == "run":
            seen = sched.run(until=arg)
        elif command == "step":
            seen = sched.step()
        elif command == "peek_time":
            seen = sched.peek_time()
        else:
            seen = len(sched)
        observed.append((command, seen, list(log), sched.now))
    return observed


@settings(max_examples=300, deadline=None)
@given(
    roots=st.lists(
        st.tuples(st.sampled_from(["at", "after"]), st.integers(0, 20)),
        min_size=1,
        max_size=8,
    ),
    root_cancels=st.lists(st.integers(0, 8), max_size=3),
    plan=st.lists(st.lists(_action, max_size=3), min_size=1, max_size=6),
    commands=st.lists(_command, min_size=1, max_size=8),
)
def test_scheduler_matches_heap_model(roots, root_cancels, plan, commands):
    commands = commands + [("len", None), ("run", None), ("peek_time", None)]
    assert _drive(Scheduler(), roots, root_cancels, plan, commands) == _drive(
        _HeapModel(), roots, root_cancels, plan, commands
    )


def test_cancelling_a_fired_event_is_harmless():
    s = Scheduler()
    seen = []
    ev = s.at(3, lambda: seen.append(3))
    s.at(5, lambda: seen.append(5))
    s.run(until=4)
    s.cancel(ev)
    assert len(s) == 1
    s.run()
    assert seen == [3, 5]
    assert s.now == 5


def test_cancelled_last_event_does_not_advance_clock():
    s = Scheduler()
    s.at(5, lambda: None)
    s.cancel(s.at(9, lambda: None))
    s.run()
    assert s.now == 5
