"""Machine assembly: one simulated system under one persistence scheme."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common.errors import SimulationError
from repro.common.observe import ObserverBus
from repro.common.params import SystemConfig
from repro.engine import Scheduler
from repro.mem.controller import MemorySystem
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.image import MemoryImage
from repro.persist.base import PersistenceScheme
from repro.runtime.heap import PageTable, PersistentHeap, VolatileHeap
from repro.runtime.locks import SimLock
from repro.sim.executor import ThreadExecutor
from repro.sim.oracle import CommitOracle
from repro.sim.stats import RunResult


class Machine:
    """A full simulated system.

    Construction order matters: images -> memory system -> hierarchy ->
    scheme attach. Workload threads are added with :meth:`spawn` and the
    whole run is driven by :meth:`run`. Everything that watches the run,
    the commit oracle included, subscribes to :attr:`bus`.
    """

    def __init__(self, config: SystemConfig, scheme: PersistenceScheme):
        self.config = config
        self.scheduler = Scheduler()
        self.bus = ObserverBus()
        self.volatile = MemoryImage("volatile")
        self.pm_image = MemoryImage("pm")
        self.page_table = PageTable()
        self.heap = PersistentHeap(config.address_space, self.page_table)
        self.dram_heap = VolatileHeap(config.address_space)
        self.memory = MemorySystem(config, self.scheduler, self.pm_image, self.bus)
        self.hierarchy = CacheHierarchy(
            config,
            self.scheduler,
            self.memory,
            self.volatile,
            self.page_table.is_persistent,
            self.bus,
        )
        self.scheme = scheme
        self.oracle = self.bus.subscribe(CommitOracle())
        scheme.attach(self)
        self.executors: List[ThreadExecutor] = []
        self._next_thread_id = 0
        self.crashed = False

    # -- workload wiring -----------------------------------------------------

    def new_lock(self, name: Optional[str] = None) -> SimLock:
        return SimLock(self.scheduler, name, self.bus)

    def spawn(self, gen_fn: Callable, core_id: Optional[int] = None) -> ThreadExecutor:
        """Add a workload thread.

        Args:
            gen_fn: called with the executor's :class:`ThreadExecutor` env;
                must return a generator yielding ops.
            core_id: defaults to round-robin over cores.
        """
        thread_id = self._next_thread_id
        self._next_thread_id += 1
        if core_id is None:
            core_id = thread_id % self.config.num_cores
        executor = ThreadExecutor(self, thread_id, core_id, gen_fn)
        self.executors.append(executor)
        return executor

    def bootstrap_write(self, addr: int, values) -> None:
        """Zero-cost initialisation write, as if persisted before the run.

        Applied to the volatile image, the PM image, and the commit oracle's
        committed image - modelling a data structure that was built and made
        durable before the measured (and crash-injected) phase begins.
        """
        self.volatile.write_range(addr, values)
        self.pm_image.write_range(addr, values)
        self.oracle.committed.write_range(addr, values)

    def adopt_image(self, image) -> None:
        """Resume from a recovered PM image (the restart-after-crash flow).

        Overwrites the volatile, PM, and oracle-committed views with the
        image's contents - call after installing the workload (so its
        address layout matches; heap allocation is deterministic) and
        before :meth:`run`. The continuing run then operates on exactly
        the durable state the crashed machine left behind.
        """
        words = dict(image.items())
        self.volatile.apply(words)
        self.pm_image.apply(words)
        self.oracle.committed.apply(words)

    # -- execution ------------------------------------------------------------

    def run(
        self,
        until: Optional[int] = None,
        max_events: int = 200_000_000,
    ) -> RunResult:
        """Start every thread not yet started and drain the event queue.

        A run stopped at ``until`` resumes where it stopped on the next
        call. Returns the :class:`RunResult` with cycles, region latencies,
        and PM traffic. Raises on deadlock (threads unfinished, no events).
        """
        for executor in self.executors:
            if executor.start_cycle is None:
                executor.start()
        self.scheduler.run(until=until, max_events=max_events)
        if until is None and not self.crashed:
            unfinished = [e.thread_id for e in self.executors if not e.finished]
            if unfinished:
                raise SimulationError(
                    f"deadlock: threads {unfinished} never finished and the "
                    "event queue is empty"
                )
        return self.result()

    def result(self) -> RunResult:
        return RunResult.collect(self)
