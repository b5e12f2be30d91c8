"""Wire payloads. Every message rides a simnet envelope that adds sender,
receiver and, for an rpc, the request id its reply answers; payloads
carry protocol fields only. Timestamps travel as (nanos, server_id,
batch) tuples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

COMMIT = "commit"
ABORT = "abort"

IN_PROGRESS = "in_progress"
COMMITTED = "committed"
ABORTED = "aborted"


# -- time oracle -------------------------------------------------------------


@dataclass(slots=True)
class TsReq:
    pass


@dataclass(slots=True)
class TsResp:
    earliest: int
    latest: int
    server_id: int


@dataclass(slots=True)
class TsErr:
    pass


# -- data plane ---------------------------------------------------------------


@dataclass(slots=True)
class ReadReq:
    key: str
    ts: tuple
    reader: str  # txn id or replica-reader tag, for push bookkeeping


@dataclass(slots=True)
class ReadResp:
    value: Optional[str]
    version_ts: Optional[tuple]


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
    decision: str  # COMMIT | ABORT
    epoch: Optional[int]


# -- recorder ------------------------------------------------------------------


@dataclass(slots=True)
class DecideReq:
    role: str
    txn: str
    decision: str
    proposals: list  # epochs proposed by write acks


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
    decision: Optional[str]  # COMMIT | ABORT, or None for an epoch floor
    epoch: Optional[int]  # commit epoch, or the floor the commit will meet


@dataclass(slots=True)
class Heartbeat:
    coordinator: str


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
    reads: list  # [(key, value, version_ts)]
