"""The event queue at the heart of the simulator.

Every timed activity in the machine is a callback scheduled at an absolute
cycle. Callbacks scheduled for the same cycle run in scheduling order
(FIFO), which keeps runs bit-for-bit deterministic.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.common.errors import SimulationError

#: A scheduled event: ``[time, seq, fn]``. The list is also the handle
#: :meth:`Scheduler.at` returns; ``fn`` is ``None`` once cancelled.
Event = List[Any]


class Scheduler:
    """A deterministic discrete-event scheduler with an integer clock.

    Events fire in ``(time, seq)`` order, where ``seq`` counts scheduling
    calls, so same-cycle events run in the order they were scheduled. The
    queue is one heap of ``[time, seq, fn]`` lists. ``(time, seq)`` is
    unique, so the heap never compares callbacks, and cancelling an event
    only clears its ``fn`` slot (lazy deletion): a cancelled entry is
    dropped when it reaches the top, without advancing the clock.
    """

    def __init__(self):
        self.now: int = 0
        self._heap: List[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        return sum(1 for ev in self._heap if ev[2] is not None)

    def at(self, time: int, fn: Callable[[], Any]) -> Event:
        """Schedule ``fn`` to run at absolute cycle ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past (now={self.now}, time={time})"
            )
        ev = [int(time), self._seq, fn]
        self._seq += 1
        heappush(self._heap, ev)
        return ev

    def after(self, delay: int, fn: Callable[[], Any]) -> Event:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self.now + int(delay), fn)

    @staticmethod
    def cancel(ev: Event) -> None:
        """Prevent a scheduled event from firing; a fired one is unaffected."""
        ev[2] = None

    def peek_time(self) -> Optional[int]:
        """Return the cycle of the next pending event, or None when idle."""
        heap = self._heap
        while heap:
            if heap[0][2] is not None:
                return heap[0][0]
            heappop(heap)
        return None

    def step(self) -> bool:
        """Run the next event. Returns False when the queue is empty."""
        t = self.peek_time()
        if t is None:
            return False
        fn = heappop(self._heap)[2]
        self.now = t
        fn()
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Fires events exactly as :meth:`step` in a loop would, without the
        per-event peek.

        Args:
            until: stop once the clock would pass this cycle (events at
                exactly ``until`` still run).
            max_events: safety valve against runaway simulations.

        Returns:
            The number of events executed.
        """
        executed = 0
        limit = sys.maxsize if max_events is None else max_events
        bound = sys.maxsize if until is None else until
        heap = self._heap
        while heap:
            t, _, fn = heap[0]
            if fn is None:
                # The clock does not advance for a cancelled event: a
                # cancelled drain tick can be the queue's last entry, and
                # the final clock value is part of the RunResult.
                heappop(heap)
                continue
            if t > bound:
                break
            if executed >= limit:
                raise SimulationError(
                    f"exceeded max_events={max_events}; possible livelock"
                )
            heappop(heap)
            self.now = t
            fn()
            executed += 1
        if until is not None and self.now < until:
            # Idle until the bound (the next event, if any, is beyond it).
            self.now = until
        return executed
