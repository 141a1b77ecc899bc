"""The observer bus: subscription order, empty events, oracle-only runs."""

from repro.common.observe import EVENTS, ObserverBus, SimObserver
from repro.common.params import SystemConfig
from repro.persist import make_scheme
from repro.sim.machine import Machine


class Recorder(SimObserver):
    def __init__(self, name, calls):
        self.name = name
        self.calls = calls

    def wpq_accepted(self, wpq, op):
        self.calls.append((self.name, "wpq_accepted", op))

    def region_durable(self, source, rid):
        self.calls.append((self.name, "region_durable", rid))


def test_handlers_run_in_subscription_order():
    bus = ObserverBus()
    calls = []
    for name in ("first", "second", "third"):
        bus.subscribe(Recorder(name, calls))
    bus.wpq_accepted(None, "op")
    bus.region_durable(None, 7)
    assert calls == [
        ("first", "wpq_accepted", "op"),
        ("second", "wpq_accepted", "op"),
        ("third", "wpq_accepted", "op"),
        ("first", "region_durable", 7),
        ("second", "region_durable", 7),
        ("third", "region_durable", 7),
    ]


def test_single_subscriber_is_called_directly():
    bus = ObserverBus()
    recorder = bus.subscribe(Recorder("only", []))
    assert bus.wpq_accepted == recorder.wpq_accepted
    assert bus.subscribers == [recorder]


def test_event_no_subscriber_overrides_stays_none():
    bus = ObserverBus()
    assert all(getattr(bus, name) is None for name in EVENTS)
    bus.subscribe(Recorder("r", []))
    bus.subscribe(SimObserver())  # overrides nothing
    overridden = {"wpq_accepted", "region_durable"}
    for name in EVENTS:
        assert (getattr(bus, name) is None) == (name not in overridden), name


def test_skipped_events_are_not_routed():
    bus = ObserverBus()
    bus.subscribe(Recorder("r", []), skip=frozenset({"wpq_accepted"}))
    assert bus.wpq_accepted is None
    assert bus.region_durable is not None


def test_commit_only_subscriber_leaves_wpq_and_hierarchy_events_none(commits_of):
    m = Machine(SystemConfig.small(), make_scheme("asap"))
    assert m.bus.subscribers == [m.oracle]
    assert m.bus.region_durable == m.oracle.region_durable
    commits_of(m)  # a second commit-only subscriber
    for name in EVENTS:  # every WPQ and hierarchy event included
        if name != "region_durable":
            assert getattr(m.bus, name) is None, name


def test_every_component_shares_the_machine_bus():
    m = Machine(SystemConfig.small(), make_scheme("asap"))
    engine = m.scheme.engine
    components = [m.hierarchy, m.scheme, engine, m.new_lock()]
    components += [ch.wpq for ch in m.memory.channels] + engine.dep_lists
    assert all(c.bus is m.bus for c in components)
