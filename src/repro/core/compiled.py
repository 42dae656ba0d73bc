"""Compiled traces: structure-of-arrays form of a :class:`Trace`.

Replay spends most of its time decoding :class:`TraceEvent` objects --
five attribute loads and an ``IntEnum`` comparison per event, repeated
once per protocol under :func:`repro.core.replay.replay`.  The compiled
form holds the events as parallel plain-``int``/``float`` columns, so
the fused replay engine (:func:`repro.core.replay.replay_fused`)
streams tuples out of a single ``zip`` instead of touching dataclass
instances.

Compilation also resolves message identity ahead of time: every SEND is
assigned a dense *slot* (its ordinal among sends) and every RECEIVE
carries the slot of its matching SEND, so replay needs no per-message
hash table -- the in-flight piggyback store becomes a flat list indexed
by slot.  The matching is validated while building the mapping
(unmatched or double-consumed receives raise :class:`TraceError`).

Columns are the primary form of every generated or loaded trace: the
workload driver feeds its events straight into a :class:`ColumnBuilder`
and the trace loader rebuilds the columns from the stored arrays, so
:class:`TraceEvent` objects exist only once something reads
``Trace.events``.  :func:`compile_trace` lowers an existing event list
through the same builder.  A compiled trace is read-only;
:meth:`Trace.compiled` caches it per trace instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.trace import EventType, Trace, TraceError

#: Event-type codes as plain ints (hot loops compare against these
#: instead of the IntEnum members).
SEND = int(EventType.SEND)
RECEIVE = int(EventType.RECEIVE)
CELL_SWITCH = int(EventType.CELL_SWITCH)
DISCONNECT = int(EventType.DISCONNECT)
RECONNECT = int(EventType.RECONNECT)
INTERNAL = int(EventType.INTERNAL)


@dataclass(slots=True, frozen=True)
class CompiledTrace:
    """Column-oriented view of one trace.

    All columns have ``n_events`` entries and hold plain ints/floats
    (no enums, no dataclasses).  ``slot`` is the dense send ordinal for
    SEND events, the matching send's ordinal for RECEIVE events and -1
    otherwise; ``peer`` already names the original *sender* for RECEIVE
    events (the trace invariant), so replay needs no in-flight lookup
    at all.

    ``argv`` packs each event's hook arguments into one ready-made
    tuple, so the fused engine dispatches with ``hook(*args)`` instead
    of assembling arguments per protocol per event:

    * SEND / RECEIVE: ``(host, peer, time)`` -- the send hook takes it
      verbatim; the receive hook splices the piggyback in between.
    * CELL_SWITCH / RECONNECT: ``(host, time, cell)``.
    * DISCONNECT: ``(host, time)``.
    * INTERNAL: ``()`` (no protocol action).
    """

    n_hosts: int
    n_mss: int
    sim_time: float
    n_events: int
    n_sends: int
    n_receives: int
    etype: list[int]
    time: list[float]
    host: list[int]
    msg_id: list[int]
    peer: list[int]
    cell: list[int]
    slot: list[int]
    argv: list[tuple]

    def __len__(self) -> int:
        return self.n_events


#: The one integer / one float dtype every numpy column uses.  Pinned
#: explicitly (never numpy's platform default int, which is 32-bit on
#: Windows) so vectorized kernel results and on-disk compiled columns
#: are bit-identical across platforms.
INT_DTYPE = "int64"
FLOAT_DTYPE = "float64"


@dataclass(slots=True, frozen=True)
class ArrayColumns:
    """Numpy view of the compiled columns, dtype-pinned.

    The lowering the vectorized engine (:mod:`repro.core.vectorized`)
    consumes: the :class:`CompiledTrace` event columns as ``int64`` /
    ``float64`` numpy arrays (``argv`` has no array form -- batch
    kernels never dispatch per event).  Built once per trace via
    :func:`array_columns` and cached, or attached directly by the trace
    loader when a stored trace already carries native array columns.
    """

    n_hosts: int
    n_mss: int
    sim_time: float
    n_events: int
    n_sends: int
    n_receives: int
    etype: "np.ndarray"  # noqa: F821 - numpy imported lazily
    time: "np.ndarray"  # noqa: F821
    host: "np.ndarray"  # noqa: F821
    msg_id: "np.ndarray"  # noqa: F821
    peer: "np.ndarray"  # noqa: F821
    cell: "np.ndarray"  # noqa: F821
    slot: "np.ndarray"  # noqa: F821

    def __len__(self) -> int:
        return self.n_events

    @classmethod
    def from_compiled(cls, ct: CompiledTrace) -> "ArrayColumns":
        """Lower *ct*'s list columns into pinned-dtype numpy arrays."""
        import numpy as np

        return cls(
            n_hosts=ct.n_hosts,
            n_mss=ct.n_mss,
            sim_time=ct.sim_time,
            n_events=ct.n_events,
            n_sends=ct.n_sends,
            n_receives=ct.n_receives,
            etype=np.asarray(ct.etype, dtype=INT_DTYPE),
            time=np.asarray(ct.time, dtype=FLOAT_DTYPE),
            host=np.asarray(ct.host, dtype=INT_DTYPE),
            msg_id=np.asarray(ct.msg_id, dtype=INT_DTYPE),
            peer=np.asarray(ct.peer, dtype=INT_DTYPE),
            cell=np.asarray(ct.cell, dtype=INT_DTYPE),
            slot=np.asarray(ct.slot, dtype=INT_DTYPE),
        )


def array_columns(trace: Trace) -> ArrayColumns:
    """The pinned-dtype numpy columns of *trace*, cached per instance.

    Served from ``trace._array_columns_cache`` when present -- either a
    previous call here, or the v2 trace loader
    (:mod:`repro.core.trace_io`), which stores the columns natively as
    arrays so a disk cache hit feeds the vectorized engine without a
    list round-trip.  Invalidation mirrors :meth:`Trace.compiled`:
    keyed on ``len(trace)``.
    """
    cached: Optional[tuple[int, ArrayColumns]] = getattr(
        trace, "_array_columns_cache", None
    )
    if cached is not None and cached[0] == len(trace):
        return cached[1]
    arrays = ArrayColumns.from_compiled(trace.compiled())
    trace._array_columns_cache = (len(trace), arrays)
    return arrays


def event_argv(etype, time, host, peer, cell) -> list[tuple]:
    """The ``argv`` column (see :class:`CompiledTrace`) of plain
    event-type / time / host / peer / cell columns."""
    argv: list[tuple] = []
    append = argv.append
    for et, t, h, p, c in zip(etype, time, host, peer, cell):
        if et == SEND or et == RECEIVE:
            append((h, p, t))
        elif et == DISCONNECT:
            append((h, t))
        elif et == INTERNAL:
            append(())
        else:  # CELL_SWITCH / RECONNECT
            append((h, t, c))
    return argv


class ColumnBuilder:
    """Compile events one at a time into :class:`CompiledTrace` columns.

    The one implementation of send/receive slot matching: every SEND
    takes the next dense slot, every RECEIVE takes (and closes) its
    send's slot.  A duplicate send or a receive whose send is missing
    or already consumed raises :class:`TraceError` at feed time, so a
    broken event source fails as early as possible.  Sends still in
    flight at :meth:`finish` are fine.

    The workload driver feeds its events straight in, so a generated
    trace never exists as :class:`~repro.core.trace.TraceEvent`
    objects; :func:`compile_trace` feeds an existing event list, and
    :class:`~repro.core.streamed.StreamingCompiler` extends the builder
    with block flushing.

    Usage::

        builder = ColumnBuilder(n_hosts=10, n_mss=5, sim_time=1e5)
        builder.feed(0.5, SEND, 0, msg_id=0, peer=3)
        compiled = builder.finish()
    """

    def __init__(self, n_hosts: int, n_mss: int, sim_time: float):
        self.n_hosts = n_hosts
        self.n_mss = n_mss
        self.sim_time = sim_time
        self.n_events = 0
        self.n_sends = 0
        self.n_receives = 0
        self._etype: list[int] = []
        self._time: list[float] = []
        self._host: list[int] = []
        self._msg_id: list[int] = []
        self._peer: list[int] = []
        self._cell: list[int] = []
        self._slot: list[int] = []
        self._argv: list[tuple] = []
        self._open_sends: dict[int, int] = {}
        self._finished = False

    def __len__(self) -> int:
        return self.n_events

    def feed(
        self,
        time: float,
        etype: int,
        host: int,
        msg_id: int = -1,
        peer: int = -1,
        cell: int = -1,
    ) -> None:
        """Compile one event (field order mirrors ``TraceEvent``)."""
        if self._finished:
            raise TraceError(f"{type(self).__name__} already finished")
        et = int(etype)
        if et == SEND:
            if msg_id in self._open_sends:
                raise TraceError(f"duplicate send of msg {msg_id}")
            slot = self._open_sends[msg_id] = self.n_sends
            self.n_sends = slot + 1
            args = (host, peer, time)
        elif et == RECEIVE:
            try:
                slot = self._open_sends.pop(msg_id)
            except KeyError:
                raise TraceError(
                    f"receive of msg {msg_id} that was never sent or "
                    "was already consumed (validate() the trace first)"
                ) from None
            self.n_receives += 1
            args = (host, peer, time)
        else:
            slot = -1
            if et == DISCONNECT:
                args = (host, time)
            elif et == INTERNAL:
                args = ()
            else:  # CELL_SWITCH / RECONNECT
                args = (host, time, cell)
        self._etype.append(et)
        self._time.append(time)
        self._host.append(host)
        self._msg_id.append(msg_id)
        self._peer.append(peer)
        self._cell.append(cell)
        self._slot.append(slot)
        self._argv.append(args)
        self.n_events += 1

    def finish(self) -> CompiledTrace:
        """Seal the builder and return its columns (further feeds raise
        :class:`TraceError`)."""
        self._finished = True
        return CompiledTrace(
            n_hosts=self.n_hosts,
            n_mss=self.n_mss,
            sim_time=self.sim_time,
            n_events=self.n_events,
            n_sends=self.n_sends,
            n_receives=self.n_receives,
            etype=self._etype,
            time=self._time,
            host=self._host,
            msg_id=self._msg_id,
            peer=self._peer,
            cell=self._cell,
            slot=self._slot,
            argv=self._argv,
        )


def compile_trace(trace: Trace) -> CompiledTrace:
    """Lower *trace*'s event list into :class:`CompiledTrace` columns
    by feeding each event through a :class:`ColumnBuilder`.

    Raises
    ------
    TraceError
        On a receive whose send is missing or already consumed -- the
        same conditions :meth:`Trace.validate` rejects, caught here so
        an uncompilable trace never reaches the hot loop.
    """
    builder = ColumnBuilder(trace.n_hosts, trace.n_mss, trace.sim_time)
    feed = builder.feed
    for ev in trace.events:
        feed(ev.time, ev.etype, ev.host, ev.msg_id, ev.peer, ev.cell)
    return builder.finish()
