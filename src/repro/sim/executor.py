"""Trace-driven execution of one workload thread.

The executor advances its workload generator one op at a time, dispatching
each op to the persistence scheme (memory/region ops), the lock (isolation
ops), or the scheduler (compute). A fixed ``base_op_cost`` is charged per
op, playing the role of the instructions between memory references.

Region latency accounting (Fig. 8's metric) spans from the cycle a
top-level ``Begin`` is issued to the cycle its ``End`` *retires* - for
synchronous-commit schemes that includes the end-of-region persist wait;
for ASAP it does not, because ``End`` retires immediately.
"""

from __future__ import annotations

from typing import Iterator, Optional, TYPE_CHECKING

from repro.common.address import line_base
from repro.common.errors import SimulationError
from repro.common.units import CACHE_LINE_BYTES, WORD_BYTES
from repro.core.rid import pack_rid
from repro.sim.ops import Begin, Compute, End, Fence, Lock, Migrate, Read, Unlock, Write

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine


class ThreadExecutor:
    """Drives one generator of ops through the machine."""

    def __init__(self, machine: "Machine", thread_id: int, core_id: int, gen_fn):
        self.machine = machine
        self.thread_id = thread_id
        self.core_id = core_id
        self._gen_fn = gen_fn
        self._gen: Optional[Iterator] = None
        #: the value the generator receives at its next step
        self._result = None
        # The scheduler object, not its bound methods: the benchmark's
        # tracer wraps ``Scheduler`` methods on the class.
        self._scheduler = machine.scheduler
        self._base_op_cost = machine.config.core.base_op_cost
        self._bus = machine.bus
        self.scheme_thread = machine.scheme.register_thread(thread_id, core_id)
        self.finished = False
        # region accounting
        self._region_depth = 0
        self._region_start: Optional[int] = None
        self._local_region = 0
        self.regions_completed = 0
        self.region_cycles_total = 0
        self.ops_executed = 0
        self.start_cycle: Optional[int] = None
        self.finish_cycle: Optional[int] = None

    # -- identity ------------------------------------------------------------

    @property
    def current_rid(self) -> Optional[int]:
        """Packed id of the region currently executing (oracle convention:
        the n-th top-level region of thread t is ``pack_rid(t, n)``,
        matching the ASAP engine's CurRID assignment)."""
        if self._region_depth <= 0:
            return None
        return pack_rid(self.thread_id, self._local_region)

    @property
    def next_rid(self) -> int:
        """Packed id the next top-level ``Begin`` on this thread will open.

        Service workloads register a request's arrival cycle under this id
        *before* yielding the region, so the durable-commit notification
        (the bus's ``region_durable``) can be matched back to the request.
        """
        return pack_rid(self.thread_id, self._local_region + 1)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        self._gen = self._gen_fn(self)
        self.start_cycle = self._scheduler.now
        self._scheduler.after(0, self._resume)

    def _resume(self) -> None:
        """Send the pending op's result into the generator; dispatch the next op.

        A thread has exactly one step pending at a time, so its result is
        kept in ``_result`` instead of in a closure per op.
        """
        result = self._result
        self._result = None
        if self.machine.crashed or self.finished:
            return
        try:
            op = self._gen.send(result)
        except StopIteration:
            self.finished = True
            self.finish_cycle = self._scheduler.now
            return
        self.ops_executed += 1
        self._dispatch(op)

    def _charge_and_step(self, result=None) -> None:
        self._result = result
        self._scheduler.after(self._base_op_cost, self._resume)

    # -- dispatch ---------------------------------------------------------------

    def _dispatch(self, op) -> None:
        # Exact-type tests, most frequent kinds first: ops are frozen
        # dataclasses that are never subclassed.
        kind = type(op)
        if kind is Read:
            self._do_read(op.addr, op.nwords)
        elif kind is Compute:
            self._scheduler.after(max(0, op.cycles), self._resume)
        elif kind is Write:
            self._do_write(op.addr, list(op.values))
        elif kind is Begin:
            self._do_begin()
        elif kind is End:
            self._do_end()
        elif kind is Lock:
            op.lock.acquire(self.thread_id, self._charge_and_step)
        elif kind is Unlock:
            op.lock.release(self.thread_id, self._charge_and_step)
        elif kind is Fence:
            self.machine.scheme.fence(self.scheme_thread, self._charge_and_step)
        elif kind is Migrate:
            self._do_migrate(op.core_id)
        else:
            raise SimulationError(f"unknown op {op!r}")

    def _do_migrate(self, new_core: int) -> None:
        if not 0 <= new_core < self.machine.config.num_cores:
            raise SimulationError(f"migrate to nonexistent core {new_core}")

        def switched() -> None:
            self.core_id = new_core
            self._charge_and_step()

        self.machine.scheme.migrate(self.scheme_thread, new_core, switched)

    # -- memory ops (split per cache line) -----------------------------------------

    def _do_write(self, addr: int, values) -> None:
        rid = self.current_rid
        if rid is not None and self.machine.page_table.is_persistent(addr):
            self.machine.oracle.record_write(rid, addr, values)
        chunks = _split_by_line(addr, values)

        def issue(index: int) -> None:
            if index >= len(chunks):
                self._charge_and_step()
                return
            chunk_addr, chunk_values = chunks[index]
            self.machine.scheme.write(
                self.scheme_thread,
                chunk_addr,
                chunk_values,
                lambda: issue(index + 1),
            )

        issue(0)

    def _do_read(self, addr: int, nwords: int) -> None:
        if nwords > 0 and not addr % WORD_BYTES and (
            addr % CACHE_LINE_BYTES + nwords * WORD_BYTES <= CACHE_LINE_BYTES
        ):
            # One aligned chunk: the scheme's fresh value list goes to the
            # generator as is, after the same single access and charge.
            self.machine.scheme.read(
                self.scheme_thread, addr, nwords, self._charge_and_step
            )
            return
        chunks = _split_read_by_line(addr, nwords)
        collected: list = []

        def issue(index: int) -> None:
            if index >= len(chunks):
                self._charge_and_step(collected)
                return
            chunk_addr, chunk_words = chunks[index]

            def got(values) -> None:
                collected.extend(values)
                issue(index + 1)

            self.machine.scheme.read(self.scheme_thread, chunk_addr, chunk_words, got)

        issue(0)

    # -- region ops -------------------------------------------------------------------

    def _do_begin(self) -> None:
        self._region_depth += 1
        top_level = self._region_depth == 1
        if top_level:
            self._local_region += 1
            self._region_start = self._scheduler.now

        def retired() -> None:
            if top_level and self._bus.begin_retired is not None:
                self._bus.begin_retired(self, self.current_rid)
            self._charge_and_step()

        self.machine.scheme.begin(self.scheme_thread, retired)

    def _do_end(self) -> None:
        if self._region_depth <= 0:
            raise SimulationError(f"thread {self.thread_id}: End without Begin")
        self._region_depth -= 1
        closing_top_level = self._region_depth == 0

        def after_end() -> None:
            if closing_top_level:
                if self._bus.end_retired is not None:
                    self._bus.end_retired(self, pack_rid(self.thread_id, self._local_region))
                self.regions_completed += 1
                self.region_cycles_total += self._scheduler.now - self._region_start
                self._region_start = None
            self._charge_and_step()

        self.machine.scheme.end(self.scheme_thread, after_end)


def _split_by_line(addr: int, values):
    """Split a word run into (addr, values) chunks within one line each."""
    chunks = []
    base = addr & ~(WORD_BYTES - 1)
    i = 0
    while i < len(values):
        start = base + i * WORD_BYTES
        line_end = line_base(start) + CACHE_LINE_BYTES
        words_here = min(len(values) - i, (line_end - start) // WORD_BYTES)
        chunks.append((start, values[i : i + words_here]))
        i += words_here
    return chunks


def _split_read_by_line(addr: int, nwords: int):
    chunks = []
    base = addr & ~(WORD_BYTES - 1)
    i = 0
    while i < nwords:
        start = base + i * WORD_BYTES
        line_end = line_base(start) + CACHE_LINE_BYTES
        words_here = min(nwords - i, (line_end - start) // WORD_BYTES)
        chunks.append((start, words_here))
        i += words_here
    return chunks
