"""Timestamp batches: turn one oracle round trip into a window of locally
issued, globally ordered timestamps.

A batch built from an oracle reading with upper bound U covers
``[U + ttl, U + 2*ttl)`` in fixed nanosecond steps, so it holds exactly
``ttl // step`` timestamps. The lower bound sits a full TTL above
the oracle's upper bound; as long as the batch is only used while less
than one TTL of (drift-compensated) local time has passed since the fetch
was *sent*, every issued timestamp is strictly in the future of the true
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

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .clock import UncertainTime
from .errors import InvalidConfig, OracleUnavailable
from .messages import TsReq, TsResp
from .simnet import MS, Future, NodeKernel


class Timestamp(NamedTuple):
    """Total order: nanoseconds first, then the oracle server id, then the
    issuing batch's lower bound (0 for a timestamp no batch issued)."""

    nanos: int
    server_id: int
    batch: int = 0


@dataclass(slots=True)
class TimestampBatch:
    low: int  # first issuable nanosecond
    step_ns: int
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
        ts = Timestamp(self.low + self.issued * self.step_ns, self.server_id,
                       self.low)
        self.issued += 1
        return ts


def validate_batch_params(ttl_ns: int, step_ns: int) -> None:
    if ttl_ns <= 0 or step_ns <= 0:
        raise InvalidConfig("ttl and step must be positive")
    if ttl_ns % step_ns != 0:
        raise InvalidConfig(f"step {step_ns}ns must divide ttl {ttl_ns}ns")


def build_batch(reading: UncertainTime, ttl_ns: int, step_ns: int,
                acquired_local: int, max_drift_ppm: int) -> TimestampBatch:
    validate_batch_params(ttl_ns, step_ns)
    low = reading.latest + ttl_ns
    return TimestampBatch(
        low=low,
        step_ns=step_ns,
        capacity=ttl_ns // step_ns,
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
    in-flight fetch; concurrent acquirers share the fetch. A fetch that
    comes back already expired (slow oracle path) triggers an immediate
    refetch, up to 3 retries, after which OracleUnavailable surfaces to
    the caller; ``acquire_waiting`` instead pauses and asks again until a
    timestamp comes. In strawman mode every acquire pays an oracle round
    trip and the returned timestamp is the reading's upper bound.
    """

    RETRY_CAP = 3
    OUTAGE_PAUSE_NS = 5 * MS  # acquire_waiting's pause after a failure
    # An oracle round trip's timeout. The oracle sits in the rack, so its
    # round trip takes microseconds; a fetch unanswered in 1 ms is lost.
    FETCH_TIMEOUT_NS = MS

    def __init__(self, kernel: NodeKernel, oracle_id: str, ttl_ns: int,
                 step_ns: int, epsilon_ns: int, max_drift_ppm: int,
                 mode: str = "batched"):
        validate_batch_params(ttl_ns, step_ns)
        if mode not in ("batched", "strawman"):
            raise InvalidConfig(f"unknown timestamp mode {mode!r}")
        self.k = kernel
        self.oracle_id = oracle_id
        self.ttl_ns = ttl_ns
        self.step_ns = step_ns
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

    def _ask_oracle(self, req: TsReq):
        """Generator -> the oracle's reply to one try of ``req``, or
        RPC_TIMEOUT."""
        call = self.k.call(self.oracle_id, req)
        resp = yield call.ask(self.FETCH_TIMEOUT_NS)
        call.close()
        return resp

    def _fetch(self):
        """Generator: one shared oracle round trip; returns True on success."""
        if self._inflight is not None:
            ok = yield self._inflight
            return ok
        fut = Future(self.k._node.sim)
        self._inflight = fut
        sent_local = self.k.local_now()
        self.fetches += 1
        resp = yield from self._ask_oracle(TsReq())
        ok = isinstance(resp, TsResp)
        if ok:
            reading = UncertainTime(resp.earliest, resp.latest, resp.server_id)
            self.batch = build_batch(reading, self.ttl_ns, self.step_ns,
                                     acquired_local=sent_local,
                                     max_drift_ppm=self.max_drift_ppm)
        self._inflight = None
        fut.resolve(ok)
        return ok

    def acquire(self):
        """Generator -> Timestamp. Raises OracleUnavailable when the oracle
        cannot produce a live batch within the retry cap."""
        self.requests += 1
        if self.mode == "strawman":
            return (yield from self._acquire_strawman())
        fetched = False
        failures = 0
        while True:
            b = self.batch
            if b is not None:
                got = b.next_timestamp(self.k.local_now())
                if got is not None:
                    if not fetched:
                        self.served_local += 1
                    return got
            if failures > self.RETRY_CAP:
                raise OracleUnavailable(
                    f"no live batch after {self.RETRY_CAP} retries"
                )
            fetched = True
            ok = yield from self._fetch()
            if not ok:
                failures += 1
                yield self.k.sleep_local(self.ttl_ns)
            elif self.batch.expired(self.k.local_now()):
                # fetch "succeeded" but the round trip outlived the TTL
                failures += 1

    def acquire_waiting(self):
        """Generator -> Timestamp. Like ``acquire``, but an oracle that
        cannot give one is asked again after ``OUTAGE_PAUSE_NS`` on the
        local clock, for as long as it takes."""
        while True:
            try:
                return (yield from self.acquire())
            except OracleUnavailable:
                yield self.k.sleep_local(self.OUTAGE_PAUSE_NS)

    def _acquire_strawman(self):
        for attempt in range(self.RETRY_CAP + 1):
            self.fetches += 1
            resp = yield from self._ask_oracle(TsReq())
            if isinstance(resp, TsResp):
                return Timestamp(resp.latest, resp.server_id)
            yield self.k.sleep_local(self.ttl_ns)
        raise OracleUnavailable("direct oracle reads failing")
