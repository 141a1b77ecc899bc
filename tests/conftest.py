"""Shared fixtures: small machines, scheme factories, mini-workloads."""

import pytest

from repro.common.observe import SimObserver
from repro.common.params import SystemConfig
from repro.persist import make_scheme, scheme_names
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Lock, Read, Unlock, Write


@pytest.fixture
def small_config():
    return SystemConfig.small()


@pytest.fixture
def make_machine():
    """Factory: make_machine('asap', wpq_entries=8, ...) -> Machine."""

    def factory(scheme="asap", **config_kwargs):
        return Machine(SystemConfig.small(**config_kwargs), make_scheme(scheme))

    return factory


class CommitLog(SimObserver):
    """Packed ids of the regions a machine made durable, in commit order."""

    def __init__(self):
        self.rids = []

    def region_durable(self, source, rid):
        self.rids.append(rid)


@pytest.fixture
def commits_of():
    """Factory: commits_of(machine) -> the list of rids that machine's
    bus reports durable, filled in as the run commits them."""
    return lambda machine: machine.bus.subscribe(CommitLog()).rids


def counter_worker(machine, addr, iterations, lock=None, lines=1):
    """A canonical worker: regions incrementing words on ``lines`` lines."""

    def gen(env):
        for i in range(iterations):
            if lock is not None:
                yield Lock(lock)
            yield Begin()
            for j in range(lines):
                (v,) = yield Read(addr + 64 * j, 1)
                yield Write(addr + 64 * j, [v + 1])
            yield End()
            if lock is not None:
                yield Unlock(lock)

    return gen


ALL_SCHEMES = scheme_names()
