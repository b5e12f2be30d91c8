"""Timestamp batches: turn one oracle round trip into a window of locally
issued, globally ordered timestamps.

A batch built from an oracle reading with upper bound U covers
``[U + ttl, U + 2*ttl)`` in steps of ``STEP_NS`` nanoseconds, so it
holds exactly ``ttl // STEP_NS`` timestamps. The lower bound sits a full
TTL above the oracle's upper bound; as long as the batch is only used
while less than one TTL of (drift-compensated) local time has passed
since the fetch was *sent*, every issued timestamp is strictly in the future of the true
instant it was handed out. That is what lets a transaction's commit wait
be a constant: by ``2*(ttl+eps)`` of true time after issuance, the
timestamp is strictly in the past.

The step only spaces a batch's own timestamps apart. Two batches from
one server may overlap and share nanosecond values; each timestamp
carries its batch's lower bound as a final tie-break, and since a
server's upper bounds strictly increase, no two batches share one. So no
two issued timestamps are equal (Lamport's rule: equal clock values are
ordered by their issuer).

Expiry is judged on the owner's local timer with the worst-case drift
folded in: the batch is usable only while ``elapsed * (1 + D) < ttl``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .clock import UncertainTime
from .errors import InvalidConfig, OracleUnavailable
from .messages import TsReq, TsResp
from .replication import request
from .simnet import MS, Future, NodeKernel, retry_backoff_ns

# The spacing of a batch's timestamps; a TTL must be a multiple of it.
STEP_NS = 10


class Timestamp(NamedTuple):
    """Total order: nanoseconds first, then the oracle server id, then the
    issuing batch's lower bound (0 for a timestamp no batch issued)."""

    nanos: int
    server_id: int
    batch: int = 0


@dataclass(slots=True)
class TimestampBatch:
    low: int  # first issuable nanosecond
    capacity: int
    server_id: int
    acquired_local: int  # owner's local clock when the fetch was *sent*
    ttl_ns: int
    max_drift_ppm: int
    issued: int = 0

    def expired(self, local_now: int) -> bool:
        elapsed = local_now - self.acquired_local
        return elapsed * (1_000_000 + self.max_drift_ppm) >= self.ttl_ns * 1_000_000

    def next_timestamp(self, local_now: int) -> Optional[Timestamp]:
        """The batch's next timestamp, or None once the batch has
        expired or is used up."""
        if self.expired(local_now) or self.issued >= self.capacity:
            return None
        ts = Timestamp(self.low + self.issued * STEP_NS, self.server_id,
                       self.low)
        self.issued += 1
        return ts


def validate_batch_params(ttl_ns: int) -> None:
    if ttl_ns <= 0:
        raise InvalidConfig("ttl must be positive")
    if ttl_ns % STEP_NS != 0:
        raise InvalidConfig(f"step {STEP_NS}ns must divide ttl {ttl_ns}ns")


def build_batch(reading: UncertainTime, ttl_ns: int,
                acquired_local: int, max_drift_ppm: int) -> TimestampBatch:
    validate_batch_params(ttl_ns)
    low = reading.latest + ttl_ns
    return TimestampBatch(
        low=low,
        capacity=ttl_ns // STEP_NS,
        server_id=reading.server_id,
        acquired_local=acquired_local,
        ttl_ns=ttl_ns,
        max_drift_ppm=max_drift_ppm,
    )


def commit_wait_ns(ttl_ns: int, epsilon_ns: int, max_drift_ppm: int,
                   strawman: bool = False) -> int:
    """Local-clock duration a transaction must outlive its timestamp.

    Batched mode: 2*(ttl+eps)*(1+D). Direct-oracle mode pays no TTL:
    2*eps*(1+D). Rounded up so the true wait can never undershoot."""
    base = 2 * epsilon_ns if strawman else 2 * (ttl_ns + epsilon_ns)
    num = base * (1_000_000 + max_drift_ppm)
    return -(-num // 1_000_000)


class TsProxy:
    """Per-node timestamp source.

    In batched mode it keeps at most one live batch and at most one
    in-flight fetch; concurrent acquirers share the fetch. In strawman
    mode every acquire pays an oracle round trip of its own and the
    returned timestamp is the reading's upper bound; a shared fetch would
    hand one ``latest`` to two acquirers. Either way ``acquire`` asks the
    oracle at most once and raises OracleUnavailable if that gives no
    timestamp; ``acquire_waiting`` is the one loop that asks again.
    """

    # An oracle round trip's timeout. The oracle sits in the rack, so its
    # round trip takes microseconds; a fetch unanswered in 1 ms is lost.
    FETCH_TIMEOUT_NS = MS

    def __init__(self, kernel: NodeKernel, oracle_id: str, ttl_ns: int,
                 epsilon_ns: int, max_drift_ppm: int, mode: str = "batched"):
        validate_batch_params(ttl_ns)
        if mode not in ("batched", "strawman"):
            raise InvalidConfig(f"unknown timestamp mode {mode!r}")
        self.k = kernel
        self.oracle_id = oracle_id
        self.ttl_ns = ttl_ns
        self.epsilon_ns = epsilon_ns
        self.max_drift_ppm = max_drift_ppm
        self.mode = mode
        self.batch: Optional[TimestampBatch] = None
        self._inflight = None  # shared Future while a fetch is on the wire
        # counters for the batching-effectiveness report
        self.requests = 0
        self.fetches = 0
        self.served_local = 0

    @property
    def cwt_ns(self) -> int:
        return commit_wait_ns(self.ttl_ns, self.epsilon_ns, self.max_drift_ppm,
                              strawman=(self.mode == "strawman"))

    def forget(self) -> None:
        """Drop what a crash of the owner loses: the live batch and the
        fetch on the wire. The counters survive."""
        self.batch = None
        self._inflight = None

    def _ask_oracle(self):
        """Generator -> the oracle's reply to one TsReq, or None."""
        self.fetches += 1
        return (yield from request(self.k, self.oracle_id, TsReq(), attempts=1,
                                   timeout_ns=self.FETCH_TIMEOUT_NS))

    def _fetch(self):
        """Generator: one shared oracle round trip, which replaces the
        batch if it succeeds."""
        if self._inflight is not None:
            yield self._inflight
            return
        fut = Future(self.k._node.sim)
        self._inflight = fut
        sent_local = self.k.local_now()
        resp = yield from self._ask_oracle()
        if isinstance(resp, TsResp):
            reading = UncertainTime(resp.earliest, resp.latest, resp.server_id)
            self.batch = build_batch(reading, self.ttl_ns,
                                     acquired_local=sent_local,
                                     max_drift_ppm=self.max_drift_ppm)
        self._inflight = None
        fut.resolve()

    def _next_from_batch(self) -> Optional[Timestamp]:
        b = self.batch
        return None if b is None else b.next_timestamp(self.k.local_now())

    def acquire(self):
        """Generator -> Timestamp: the live batch's next one, or else one
        from a single oracle fetch. Raises OracleUnavailable when the fetch
        fails, or its batch is expired or used up by the time it lands."""
        self.requests += 1
        if self.mode == "strawman":
            resp = yield from self._ask_oracle()
            if not isinstance(resp, TsResp):
                raise OracleUnavailable("the oracle gave no reading")
            return Timestamp(resp.latest, resp.server_id)
        ts = self._next_from_batch()
        if ts is not None:
            self.served_local += 1
            return ts
        yield from self._fetch()
        ts = self._next_from_batch()
        if ts is None:
            raise OracleUnavailable("the fetch gave no live batch")
        return ts

    def acquire_waiting(self, attempts: Optional[int] = None):
        """Generator -> Timestamp, or None after ``attempts`` failed tries
        (never, if ``attempts`` is None). Each try after the first backs
        off by ``retry_backoff_ns`` on the local clock."""
        for i in itertools.count():
            if i:
                yield self.k.sleep_local(retry_backoff_ns(i - 1))
            try:
                return (yield from self.acquire())
            except OracleUnavailable:
                if attempts is not None and i + 1 >= attempts:
                    return None
