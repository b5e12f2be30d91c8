"""Promised epochs: the visibility clock that decouples replica reads from
transaction commit times.

Every node agrees, statically, that epoch ``n`` ends at promised instant
``n * interval``. Epoch ``n`` spans ``(T_{n-1}, T_n]``; a node that has
logged cut markers 1..k is *in* epoch ``k+1``, and that spanning epoch
number is what writes propose. A cut for epoch ``n`` is only logged once
the node has proof the true instant is past ``T_n``: it grabs a timestamp,
re-arms until the timestamp exceeds the promised end, then waits out the
timestamp's own uncertainty horizon, the commit wait of its timestamp
proxy (``TsProxy.commit_wait(0)``), on its local timer. Late cuts are
fine (the schedule is a promise about lower bounds, not an alarm clock);
early cuts would break replica reads and never happen.

A transaction's commit epoch is the highest proposal its writes collected
or the recorder's own current epoch, whichever is higher, so no write of
a transaction can hide in a log segment later than the epoch that claims
it.
It is also at least the record's epoch floor, if a replica's push set
one: the replica has served the views below the floor without waiting
for the transaction, so the commit must land in the floor's epoch or
later.
"""

from __future__ import annotations

from typing import Optional

from .replication import CutEntry


def promised_end_ns(epoch: int, interval_ns: int) -> int:
    return epoch * interval_ns


def ceiling_epoch(ts_nanos: int, interval_ns: int) -> int:
    """The read view for a timestamp: smallest k with ts <= k * interval."""
    return max(1, -(-ts_nanos // interval_ns))


def assign_commit_epoch(proposal: int, recorder_epoch: int,
                        floor: Optional[int] = None) -> int:
    return max(proposal, recorder_epoch, floor or 0)


class EpochCutter:
    """Per-data-node loop that logs one cut marker per promised epoch.

    Timer arithmetic multiplies by (1 + max drift), the drift bound of the
    node's timestamp proxy, so a fast local clock still cannot fire before
    the promised instant; the verify loop mops up whatever earliness
    jitter remains. When the node falls behind (crash, oracle outage),
    non-positive re-arms clamp to immediate so it cuts straight through
    the backlog.
    """

    def __init__(self, node, interval_ns: int):
        self.node = node  # DataNode: provides tsproxy, append_log, kernel
        self.interval_ns = interval_ns
        self.cuts_done = 0

    def epoch_now(self) -> int:
        return self.cuts_done + 1

    def _stretch(self, ns: int) -> int:
        return ns * (1_000_000 + self.node.tsproxy.max_drift_ppm) // 1_000_000

    def start(self) -> None:
        self.node.k.spawn(self.run())

    def run(self):
        k = self.node.k
        wait = self._stretch(self.interval_ns)
        while True:
            if wait > 0:
                yield k.sleep_local(wait)
            target = self.cuts_done + 1
            promised = promised_end_ns(target, self.interval_ns)
            # Re-arm until a fresh timestamp proves the promised end passed.
            while True:
                ts = yield from self.node.tsproxy.acquire_waiting()
                if ts.nanos > promised:
                    break
                yield k.sleep_local(max(1, promised - ts.nanos))
            # The timestamp may lead true time by its whole uncertainty
            # horizon; wait it out so the cut instant truly follows the
            # promised end.
            yield k.sleep_local(self.node.tsproxy.commit_wait(0))
            self.node.append_log([CutEntry(target)])
            self.cuts_done = target
            k.trace("cut", node=self.node.node_id, epoch=target, promised=promised)
            # Aim at the next promised end from where the timestamp landed.
            wait = self._stretch(self.interval_ns + promised - ts.nanos)

    def resume_at(self, cuts_done: int) -> None:
        """After recovery: continue from the highest durable cut marker."""
        self.cuts_done = cuts_done
