"""Structured view over a run's trace, and JSONL persistence.

The trace is the simulator's ground-truth event log. Everything the
checkers reason about — transaction intervals, operation streams, replica
read results, cut and replay instants — is derived here in one pass so
each checker can stay a pure function over plain data.

A transaction's life is ``txn_begin``, then ``txn_ts`` once its
timestamp is acquired, its ``op`` events, and ``txn_end``. Each fact is
traced once: the timestamp only in ``txn_ts``, so a transaction whose
coordinator crashed before ``txn_end`` still has one, and the
coordinator only in the id (``TxnInfo.coord``). This is schema 2;
``read_trace`` refuses schema 1, whose ``txn_end`` also carried the
timestamp and which older traces hold only there.

A trace in memory (``Cluster.trace``, or what ``read_trace`` returns)
is the read-only view of a ``simnet.TraceLog``: it keeps each shape's
values in one flat list, no object per event, and builds the ``(t,
kind, fields)`` tuple when the event is read. Its timestamps are the
``Timestamp`` tuples the protocol traced; a written trace holds them as
JSON lists, and ``read_trace`` reads them back as lists. ``build_history``
takes either, and any other iterable of ``(t, kind, fields)`` tuples.
The history shares what the trace holds where it can: the event times,
the timestamps, and the replica's own list of reads of each ``rread``;
only a written trace's lists are converted.

A written trace is one header line, then one JSON line per event. The
header holds the schema and what the writer adds to it: ``chronokv run
--trace`` adds the scenario that ran and the run's end (see ``cli``),
which ``chronokv check`` reads back. The header lies outside the events,
so two runs of one scenario at one seed write the same event lines
whatever their headers say.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .coordinator import Coordinator
from .simnet import TraceLog
from .tsbatch import Timestamp

SCHEMA_VERSION = 2


def _ts(v) -> Optional[Timestamp]:
    # A trace in memory holds the Timestamp itself, a written one a list.
    if v is None or type(v) is Timestamp:
        return v
    return Timestamp(*v)


def _reads(reads: list) -> list:
    # A replica's own list of (key, vts, value) tuples is kept as it is;
    # a written trace's lists of lists become tuples with Timestamps.
    if all(type(r) is tuple and (r[1] is None or type(r[1]) is Timestamp)
           for r in reads):
        return reads
    return [(r[0], _ts(r[1]), r[2]) for r in reads]


@dataclass(slots=True)
class TxnInfo:
    txn: str
    begin_ns: int
    end_ns: Optional[int] = None
    status: Optional[str] = None   # None: still running when the run ended
    ts: Optional[Timestamp] = None
    epoch: Optional[int] = None
    reason: Optional[str] = None
    ops: list = field(default_factory=list)  # (i, kind, key, vts, val)

    @property
    def coord(self) -> str:
        """The coordinator that began this transaction."""
        return Coordinator.coordinator_of(self.txn)[0]

    @property
    def committed(self) -> bool:
        return self.status == "committed"


@dataclass(slots=True)
class ReplicaRead:
    reader: str
    node: str
    ts: Timestamp
    view: int
    mode: str
    start_ns: int
    end_ns: int
    reads: list  # (key, vts, val)


@dataclass
class History:
    txns: dict = field(default_factory=dict)        # txn -> TxnInfo
    rreads: list = field(default_factory=list)      # ReplicaRead
    cuts: list = field(default_factory=list)        # (t, node, epoch, promised)
    replays: list = field(default_factory=list)     # (t, replica, primary, epoch)
    records: list = field(default_factory=list)     # (t, role, txn, status, epoch)
    pushes: list = field(default_factory=list)      # (t, kind, node, reader, txn)
    oracle: list = field(default_factory=list)      # (t, srv, lo, hi)


def build_history(events) -> History:
    """Raises ValueError naming the first event that lacks a field its
    kind needs, or holds one of another shape."""
    h = History()
    rr_pending: dict = {}
    try:
        for t, kind, f in events:
            if kind == "txn_begin":
                h.txns[f["txn"]] = TxnInfo(f["txn"], begin_ns=t)
            elif kind == "txn_ts":
                info = h.txns.get(f["txn"])
                if info is not None:
                    info.ts = _ts(f["ts"])
            elif kind == "op":
                info = h.txns.get(f["txn"])
                if info is not None:
                    info.ops.append((f["i"], f["op"], f["key"],
                                     _ts(f.get("vts")), f.get("val")))
            elif kind == "txn_end":
                info = h.txns.get(f["txn"])
                if info is None:
                    continue
                info.end_ns = t
                info.status = f["status"]
                info.epoch = f.get("epoch")
                info.reason = f.get("reason")
            elif kind == "rread_start":
                rr_pending[(f["node"], f["reader"])] = t
            elif kind == "rread":
                key = (f["node"], f["reader"])
                start = rr_pending.pop(key, t)
                h.rreads.append(ReplicaRead(
                    reader=f["reader"], node=f["node"], ts=_ts(f["ts"]),
                    view=f["view"], mode=f["mode"], start_ns=start, end_ns=t,
                    reads=_reads(f["reads"]),
                ))
            elif kind == "cut":
                h.cuts.append((t, f["node"], f["epoch"], f["promised"]))
            elif kind == "replay":
                h.replays.append((t, f["node"], f["src"], f["epoch"]))
            elif kind == "record":
                h.records.append((t, f["role"], f["txn"], f["status"],
                                  f.get("epoch")))
            elif kind in ("push_wait", "push_done"):
                h.pushes.append((t, kind, f["node"], f["reader"], f["txn"]))
            elif kind == "oracle":
                h.oracle.append((t, f["srv"], f["lo"], f["hi"]))
    except (KeyError, TypeError, IndexError) as e:
        what = (f"lacks field {e}" if isinstance(e, KeyError)
                else f"is malformed: {e}")
        raise ValueError(f"event {json.dumps([t, kind, f])} {what}") from None
    return h


def write_trace(path: str, events, meta: dict = None) -> None:
    """Write ``events`` as JSONL below a header of the schema and the
    entries of ``meta``."""
    header = {"kind": "header", "schema": SCHEMA_VERSION}
    header.update(meta or {})
    with open(path, "w") as out:
        out.write(json.dumps(header) + "\n")
        for t, kind, fields in events:
            out.write(json.dumps([t, kind, fields], separators=(",", ":")) + "\n")


def read_trace(path: str):
    """Returns (meta, events); meta is the header minus kind/schema, and
    events the read-only view of a ``TraceLog`` filled from the file, as
    a run's own trace is. A line that is no ``[int, str, object]``
    raises ValueError naming its number."""
    log = TraceLog()
    with open(path) as src:
        first = src.readline()
        if not first:
            raise ValueError("the file is empty")
        header = json.loads(first)
        schema = header.get("schema") if isinstance(header, dict) else None
        if schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported trace schema {schema!r}")
        meta = {k: v for k, v in header.items() if k not in ("kind", "schema")}
        for n, line in enumerate(src, 2):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except ValueError:
                event = None
            if (type(event) is not list
                    or [*map(type, event)] != [int, str, dict]):
                raise ValueError(f"line {n}: {line.strip()} is not an event "
                                 f"[int, str, object]")
            log.add(event[0], event[1], event[2])
    return meta, log.events
