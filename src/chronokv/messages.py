"""Wire payloads. Every message rides a simnet envelope that adds sender,
receiver and, for an rpc, the request id its reply answers; payloads
carry protocol fields only. Timestamps travel as the protocol's
``tsbatch.Timestamp`` tuples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# A record's status; the last two are a transaction's verdict too
IN_PROGRESS = "in_progress"
COMMITTED = "committed"
ABORTED = "aborted"


# -- time oracle -------------------------------------------------------------


@dataclass(slots=True)
class TsReq:
    pass


@dataclass(slots=True)
class TsResp:
    """An oracle reading: true time is somewhere in [earliest, latest]."""

    earliest: int
    latest: int
    server_id: int


@dataclass(slots=True)
class TsErr:
    pass


# -- data plane ---------------------------------------------------------------


@dataclass(slots=True)
class ReadReq:
    """A read at a key's primary. A read-modify-write also carries the
    write that follows it in its chain (``write``, to the same key at the
    same timestamp), and the primary applies the write rule right after
    the read, in the same event, and answers both. A read that must wait
    behind an undecided intent does so when it wakes, unless a read above
    it was served or is parked: then the answer is its write refused, a
    ``WriteResp`` alone, with nothing read (see ``mvto.KeyChain.outbid``
    and ``mvto.DataNode._read_task``)."""

    key: str
    ts: tuple
    reader: str  # txn id or replica-reader tag, for push bookkeeping
    write: Optional[WriteReq] = None


@dataclass(slots=True)
class ReadResp:
    value: Optional[str]
    version_ts: Optional[tuple]
    # The answer to the request's ``write``, or None if it carried none
    write: Optional[WriteResp] = None


@dataclass(slots=True)
class Pending:
    """Interim reply: the request is still being served and its answer
    follows under the same request id. Every server that parks a request
    says so at once: a primary's read behind an undecided intent, a
    replica's read waiting for its view or a settle, and a recorder's
    push or decide waiting for a decision; so does every server to a
    re-ask of a request it is still serving (``replication.serve``). The
    sender stops counting tries and only asks again every
    ``LONG_POLL_NS``."""


@dataclass(slots=True)
class WriteReq:
    key: str
    txn: str
    ts: tuple
    value: str
    role: str  # recorder role handling this transaction
    # Program index of the write's last op. A late try of an earlier
    # write of the key must not overwrite a later one.
    idx: int = 0


@dataclass(slots=True)
class WriteResp:
    ok: bool
    proposal: Optional[int] = None  # epoch proposed for this write


@dataclass(slots=True)
class FinalizeReq:
    """One-way: install or discard the transaction's intents."""

    txn: str
    decision: str  # COMMITTED | ABORTED
    epoch: Optional[int]


# -- recorder ------------------------------------------------------------------


@dataclass(slots=True)
class DecideReq:
    role: str
    txn: str
    decision: str  # COMMITTED | ABORTED
    proposal: int  # the highest epoch a write ack proposed, 0 if none


@dataclass(slots=True)
class DecideResp:
    status: str  # COMMITTED | ABORTED
    epoch: Optional[int]


@dataclass(slots=True)
class NotOwner:
    role: str


@dataclass(slots=True)
class PushReq:
    role: str
    txn: str
    # A replica's replayed epoch: the recorder may answer an undecided
    # transaction with an epoch floor above it. None when a primary pushes.
    above: Optional[int] = None


@dataclass(slots=True)
class PushResp:
    decision: Optional[str]  # COMMITTED | ABORTED, or None for a floor
    epoch: Optional[int]  # commit epoch, or the floor the commit will meet


@dataclass(slots=True)
class Heartbeat:
    """A coordinator's beat to the owner of its home role. ``since`` is
    the number of the last transaction it began before its current
    incarnation, 0 in its first: those died with an earlier process, so
    the sweep aborts them although their coordinator beats."""
    coordinator: str
    since: int


# -- replication ----------------------------------------------------------------


@dataclass(slots=True)
class LogShip:
    start: int  # position of entries[0] in the primary's data log
    entries: list


@dataclass(slots=True)
class CatchUp:
    have: int  # replica has entries [0, have) of its primary's data log


# -- replica reads ----------------------------------------------------------------


@dataclass(slots=True)
class ReplicaReadReq:
    keys: list
    ts: tuple
    reader: str
    mode: str = "fresh"  # fresh (linearizable) | stale (client snapshot)


@dataclass(slots=True)
class ReplicaReadResp:
    view: int
    reads: list  # [(key, version_ts, value)]
