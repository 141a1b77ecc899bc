"""The benchmark's workloads: fixed cell lists driven through public APIs.

A *pass* runs every operation of a workload once. An operation is one
batch or service cell (build a machine, run it to completion) or one
crash point (build, run to the crash cycle, crash, recover twice, verify
against the commit oracle, validate the structure). Every operation is
checked; a failed check is recorded as the operation's failure and the
pass carries on.

All simulation uses the default (reference) core: no ``fast=True``, no
worker pool, no result cache. The workload seed is the benchmark's
``--seed``, passed into ``WorkloadParams.seed`` / ``ServiceParams.seed``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional

# Layer functions are looked up through their modules at call time, so the
# tracer's wrappers (installed on those modules) see the calls.
from repro import persist, recovery, workloads
from repro.harness import runner
from repro.sim.machine import Machine

BATCH_WORKLOADS = ("HM", "BT", "RB", "TPCC")
BATCH_SCHEMES = ("sw", "hwundo", "asap", "np")
SERVICE_WORKLOADS = ("SVC", "SVC_BT")
#: requests per kilocycle: below, at and past the knee of the SVC stores
SERVICE_LOADS = (1.0, 4.0, 16.0)
SERVICE_REQUESTS = 4096
CRASH_WORKLOADS = ("HM", "BT", "TPCC", "Q", "RB")
CRASH_SCHEMES = ("asap", "asap_redo")
#: evenly spaced crash points per cell, at (i + 1) / (points + 1) of the run
CRASH_POINTS = 4
VALUE_BYTES = 2048


def digest(obj) -> str:
    """sha256 of a JSON rendering; dict keys sorted, objects by repr."""
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result) -> str:
    """sha256 of a ``RunResult`` as ``dataclasses.asdict`` gives it."""
    return digest(asdict(result))


@dataclass
class Outcome:
    """One operation's verdict and the digest of what it produced."""

    label: str
    digest: str = ""
    failure: Optional[str] = None


@dataclass
class PassResult:
    """What one pass measured, checked and counted."""

    #: host seconds of the measured work (machine build excluded), one
    #: entry per operation in run order; every pass has the same order
    op_wall_s: List[float] = field(default_factory=list)
    #: host seconds of the whole pass, end to end
    total_s: float = 0.0
    sim_ops: int = 0
    #: committed regions (closed loop) or completed requests (service)
    requests: int = 0
    outcomes: List[Outcome] = field(default_factory=list)
    #: simulated counters summed over the pass's machines
    counters: Dict[str, float] = field(default_factory=dict)
    p99_cycles: List[int] = field(default_factory=list)
    achieved_over_offered: List[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.op_wall_s)

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)


class Meter:
    """Times each call into the simulator by kind, as a span when traced.

    ``build`` time is set-up and ``work`` time is the measured phase; the
    benchmark's own bookkeeping (digests, counters) is neither.
    """

    def __init__(self, result: PassResult, tracer=None):
        self.result = result
        self.tracer = tracer

    def next_operation(self) -> None:
        """Start timing a new operation, after collecting the garbage the
        previous one left, untimed.

        A cyclic collection of one machine is then not timed as part of
        the next, and peak memory does not depend on when it ran.
        """
        gc.collect()
        self.result.op_wall_s.append(0.0)

    def call(self, kind: str, name: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        if self.tracer is None:
            out = fn(*args, **kwargs)
        else:
            with self.tracer.span(f"bench:{name}"):
                out = fn(*args, **kwargs)
        if kind == "work":
            self.result.op_wall_s[-1] += time.perf_counter() - start
        return out


def _record_result(res: PassResult, result) -> None:
    """Fold one completed run's simulated statistics into the pass."""
    res.sim_ops += result.ops_executed
    res.add("regions", result.regions_completed)
    res.add("cache_accesses", result.cache_accesses)
    res.add("llc_misses", result.llc_misses)
    res.add("mshr_merges", result.mshr_merges)
    res.add("pm_writes", result.pm_writes)
    res.peak("wpq_peak", result.wpq_peak_occupancy)
    for key in ("cl_entry", "cl_slot", "dep_entry", "dep_slot", "lh_wpq"):
        res.add(f"stall.{key}", result.stall_breakdown.get(key, 0))


def _failure(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({frame.filename.rsplit('/', 1)[-1]}:{frame.lineno})"


class BenchWorkload:
    """A named, seeded list of operations run pass after pass."""

    name = "?"

    def __init__(self, seed: int):
        self.seed = seed
        self.config = runner.default_config(True)

    def build_all(self) -> None:
        """Build and install every cell's machine once (the set-up probe)."""
        raise NotImplementedError

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        meter = Meter(res, tracer)
        start = time.perf_counter()
        self._run(meter)
        res.total_s = time.perf_counter() - start
        return res

    def _run(self, meter: Meter) -> None:
        raise NotImplementedError


class RunToCompletion(BenchWorkload):
    """Cells that build one machine and run it to completion."""

    def cells(self):
        """[(label, workload name, scheme, params, expected completions)]"""
        raise NotImplementedError

    def build_all(self) -> None:
        for _label, wl, scheme, params, _expect in self.cells():
            runner.build_machine(wl, scheme, self.config, params)

    def completed(self, result) -> int:
        raise NotImplementedError

    def _run(self, meter: Meter) -> None:
        res = meter.result
        for label, wl, scheme, params, expect in self.cells():
            outcome = Outcome(label)
            res.outcomes.append(outcome)
            meter.next_operation()
            try:
                machine = meter.call(
                    "build", "build_machine", runner.build_machine,
                    wl, scheme, self.config, params,
                )
                result = meter.call("work", "Machine.run", machine.run)
            except Exception as exc:  # one cell's failure must not stop the pass
                outcome.failure = _failure(exc)
                continue
            outcome.digest = result_digest(result)
            _record_result(res, result)
            done = self.completed(result)
            res.requests += done
            if done < expect:
                outcome.failure = f"completed {done} of {expect}"
            self.record(res, result)

    def record(self, res: PassResult, result) -> None:
        pass


class Batch(RunToCompletion):
    """Closed-loop Table 3 stores at 2 KB regions on the quick machine."""

    name = "batch-2k"

    def cells(self):
        params = replace(runner.default_params(True, VALUE_BYTES), seed=self.seed)
        issued = params.num_threads * params.ops_per_thread
        return [
            (f"{wl}/{scheme}", wl, scheme, params, issued)
            for wl in BATCH_WORKLOADS
            for scheme in BATCH_SCHEMES
        ]

    def completed(self, result) -> int:
        return result.regions_completed


class Service(RunToCompletion):
    """Open-loop Poisson request traffic, Zipf 0.99, half GETs, under ASAP."""

    name = "service-4k"

    def cells(self):
        cells = []
        for wl in SERVICE_WORKLOADS:
            for load in SERVICE_LOADS:
                params = runner.default_service_params(
                    True,
                    requests=SERVICE_REQUESTS,
                    offered_load=load,
                    skew=0.99,
                    read_fraction=0.5,
                    seed=self.seed,
                )
                cells.append((f"{wl}/asap@{load:g}", wl, "asap", params, SERVICE_REQUESTS))
        return cells

    def completed(self, result) -> int:
        return result.requests_completed

    def record(self, res: PassResult, result) -> None:
        offered, achieved = result.offered_vs_achieved
        res.p99_cycles.append(result.p99_cycles)
        res.achieved_over_offered.append(achieved / offered)


class Crash(BenchWorkload):
    """Crash sweeps with payload capture and the commit oracle on."""

    name = "crash-2k"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.params = replace(runner.default_params(True, VALUE_BYTES), seed=seed)

    def cells(self):
        return [(wl, scheme) for wl in CRASH_WORKLOADS for scheme in CRASH_SCHEMES]

    def _build(self, wl: str, scheme: str):
        machine = Machine(self.config, persist.make_scheme(scheme))
        workload = workloads.get_workload(wl, self.params)
        workload.install(machine)
        return machine, workload

    def build_all(self) -> None:
        for wl, scheme in self.cells():
            self._build(wl, scheme)

    def _run(self, meter: Meter) -> None:
        res = meter.result
        for wl, scheme in self.cells():
            meter.next_operation()
            try:
                machine, _ = meter.call("build", "build", self._build, wl, scheme)
                reference = meter.call("work", "Machine.run", machine.run)
            except Exception as exc:
                for i in range(CRASH_POINTS):
                    res.outcomes.append(Outcome(f"{wl}/{scheme}#{i}", failure=_failure(exc)))
                continue
            _record_result(res, reference)
            res.requests += reference.regions_completed
            total = reference.cycles
            for i in range(CRASH_POINTS):
                cycle = max(1, ((i + 1) * total) // (CRASH_POINTS + 1))
                outcome = Outcome(f"{wl}/{scheme}#{i}@{cycle}")
                res.outcomes.append(outcome)
                meter.next_operation()
                try:
                    self._point(meter, wl, scheme, cycle, outcome, reference)
                except Exception as exc:
                    outcome.failure = _failure(exc)

    def _point(self, meter, wl, scheme, cycle, outcome, reference) -> None:
        res = meter.result
        machine, workload = meter.call("build", "build", self._build, wl, scheme)
        meter.call("work", "Machine.run", machine.run, until=cycle)
        state = meter.call("work", "crash", recovery.crash_machine, machine)
        image, report = meter.call("work", "recover", recovery.recover, state)
        again, _ = meter.call("work", "recover", recovery.recover, state)
        verdict = meter.call("work", "verify", recovery.verify_recovery, machine, image)
        errors = meter.call("work", "verify", workload.validate_image, image)

        res.sim_ops += sum(e.ops_executed for e in machine.executors)
        res.requests += sum(e.regions_completed for e in machine.executors)
        res.add("regions_undone", report.undone_count)
        res.add("words_checked", verdict.words_checked)
        outcome.digest = digest(
            [result_digest(reference), cycle, report.undone_rids, sorted(image.items())]
        )
        if not verdict.ok:
            addr, expect, got = verdict.mismatches[0]
            outcome.failure = (
                f"recovered image disagrees with the commit oracle (first of "
                f"{len(verdict.mismatches)} listed words: {addr:#x} expected "
                f"{expect:#x}, recovered {got:#x})"
            )
        elif errors:
            outcome.failure = f"structure invalid: {errors[:2]}"
        elif image.items() != again.items():
            outcome.failure = "recovery nondeterministic across two recover calls"


WORKLOADS = {cls.name: cls for cls in (Batch, Service, Crash)}
