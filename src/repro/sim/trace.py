"""Optional event tracing: a timeline of what the machine did.

A :class:`Tracer` subscribes to a machine's observer bus and records
region lifecycles (begin and end retired, published by the thread
executors; durably committed, published by every scheme) and persist-op
lifecycles (accepted into a WPQ, then drained or dropped), with cycle
stamps. Used by the timeline tests to assert *when* things happen (e.g.
End retires before commit under ASAP, after it under HWUndo), and handy
when debugging a scheme. Overhead is one list append per event; leave it
off for benchmarks.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from repro.common.observe import SimObserver
from repro.core.rid import unpack_rid

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine

#: event kinds
BEGIN = "begin"
END = "end"
COMMIT = "commit"
PERSIST_ACCEPT = "persist_accept"
PERSIST_DRAIN = "persist_drain"
PERSIST_DROP = "persist_drop"


@dataclass(frozen=True)
class TraceEvent:
    cycle: int
    kind: str
    thread_id: Optional[int] = None
    rid: Optional[int] = None
    detail: str = ""
    #: the persist op's id, for the persist event kinds
    op_id: Optional[int] = None

    def __str__(self) -> str:
        rid = f" {unpack_rid(self.rid)}" if self.rid is not None else ""
        return f"@{self.cycle:>8} {self.kind:<14}{rid} {self.detail}".rstrip()


class Tracer(SimObserver):
    """Records a machine's timeline. Create before :meth:`Machine.run`."""

    def __init__(self, machine: "Machine", trace_persists: bool = True):
        self.machine = machine
        self.trace_persists = trace_persists
        self.events: List[TraceEvent] = []
        machine.bus.subscribe(self)

    # -- bus events ------------------------------------------------------------
    #
    # ``BEGIN``/``END`` stamp at *retirement*: ``END`` at the cycle the
    # instruction stream proceeds past the region - which is what makes
    # synchronous vs asynchronous commit visible as a commit-minus-end lag
    # of zero vs positive.

    def begin_retired(self, executor, rid) -> None:
        self._record(BEGIN, rid, thread_id=executor.thread_id)

    def end_retired(self, executor, rid) -> None:
        self._record(END, rid, thread_id=executor.thread_id)

    def region_durable(self, source, rid) -> None:
        self._record(COMMIT, rid)

    def wpq_accepted(self, wpq, op) -> None:
        self._persist(PERSIST_ACCEPT, wpq, op)

    def wpq_drained(self, wpq, op) -> None:
        self._persist(PERSIST_DRAIN, wpq, op)

    def wpq_dropped(self, wpq, op) -> None:
        self._persist(PERSIST_DROP, wpq, op)

    def _persist(self, kind: str, wpq, op) -> None:
        if self.trace_persists:
            channel = self.machine.memory.channel_for_line(op.target_line)
            detail = f"{op.kind} ch{channel.index}"
            self._record(kind, op.rid, detail=detail, op_id=op.op_id)

    def _record(self, kind: str, rid, thread_id=None, detail="", op_id=None) -> None:
        self.events.append(
            TraceEvent(
                cycle=self.machine.scheduler.now,
                kind=kind,
                thread_id=thread_id,
                rid=rid,
                detail=detail,
                op_id=op_id,
            )
        )

    # -- queries -----------------------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def region_timeline(self, rid: int) -> dict:
        """{end: cycle, commit: cycle} for one region (None if absent)."""
        out = {"end": None, "commit": None}
        for e in self.events:
            if e.rid == rid and e.kind in (END, COMMIT):
                out[e.kind] = e.cycle
        return out

    def commit_lags(self) -> List[int]:
        """Commit-minus-end-retire per region: the asynchrony the paper
        buys (zero everywhere would mean synchronous commit)."""
        ends = {e.rid: e.cycle for e in self.of_kind(END) if e.rid is not None}
        return [
            e.cycle - ends[e.rid]
            for e in self.of_kind(COMMIT)
            if e.rid in ends
        ]

    # -- export -----------------------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["cycle", "kind", "thread", "rid", "detail"])
        for e in self.events:
            writer.writerow(
                [e.cycle, e.kind, e.thread_id if e.thread_id is not None else "",
                 e.rid if e.rid is not None else "", e.detail]
            )
        return buf.getvalue()

    def dump(self, limit: int = 50) -> str:
        return "\n".join(str(e) for e in self.events[:limit])
