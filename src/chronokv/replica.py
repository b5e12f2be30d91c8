"""Read-only replicas driven by shipped logs and promised epochs.

A replica applies its primary's durable data log strictly in order. A
segment arriving ahead of the prefix is parked, not applied: usually the
missing piece is just jittered and lands a moment later, so parking costs
nothing, while a catch-up request naming the prefix we already have
covers the genuinely-dropped case. It is the one repair path: a live
primary logs a cut every epoch interval and every append ships, so a
later ship always exposes a lost one. Applying the cut marker for epoch
``n`` makes views 1..n servable: a read at timestamp ``ts`` belongs to
view ``ceil(ts / interval)`` and blocks until that view has replayed. No
commit with an epoch at or below ``n`` can be durably logged after
marker ``n``, so a replayed view is a closed book — the replica can
answer from local state alone. A read waits as long as its view takes
to replay, or its intents take to settle. It tells its sender so at once
with ``Pending``, as does a re-ask meanwhile (``replication.serve``),
and the sender only asks again every ``LONG_POLL_NS``.

Two wrinkles remain. Undecided intents below the read timestamp are
settled by the primary's own ``mvto.Settler``: the reader parks and a
push asks the writer's recorder, unless the primary's finalize arrives
in the log first and wakes it. Only intents proposed into the view or
earlier block a read (``KeyChain.blocker`` with the view): an intent
commits into its proposal's epoch or a later one. The push carries the
replayed epoch, and the recorder of a transaction not yet being decided
answers it with an epoch floor above that epoch, which the commit will
meet: the intent then lies beyond every view served so far, and the
reader goes on without waiting for a transaction that may itself be
parked behind a slow writer. And committed versions carry their commit
epoch, so a version from a *later* epoch that happens to have a small
timestamp stays invisible until its own view replays.
"""

from __future__ import annotations

from .epochs import ceiling_epoch
from .messages import CatchUp, LogShip, ReplicaReadReq, ReplicaReadResp
from .mvto import KeyStore, Settler, apply_log_entry
from .replication import serve, tell_parked
from .simnet import Future, Node


class ReplicaNode(Node):
    kind = "replica"

    def __init__(self, sim, net, node_id, region, drift_ppm, primary_id,
                 directory, interval_ns):
        super().__init__(sim, net, node_id, region, drift_ppm)
        self.primary_id = primary_id
        self.interval_ns = interval_ns
        self.membership = directory
        self.store = KeyStore()
        self.applied = 0  # entries of the primary's log applied so far
        self._parked: dict[int, list] = {}  # start -> entries beyond a gap
        self.replayed_epoch = 0
        self._view_waiters: dict[int, Future] = {}
        self.settler = Settler(self, self.store, self.store.resolve,
                               above=lambda: self.replayed_epoch)
        self.serving: dict[tuple, object] = {}  # see replication.serve

    def handle(self, env) -> None:
        p = env.payload
        if isinstance(p, LogShip):
            self._on_ship(p)
        elif isinstance(p, ReplicaReadReq):
            serve(self, env, self._read_task(env, p))

    # -- log application ---------------------------------------------------------

    def _on_ship(self, ship: LogShip) -> None:
        if ship.start > self.applied:
            # Gap: park the segment for when the prefix lands, and ask
            # the primary to resend from our prefix in case it's lost.
            parked = self._parked
            old = parked.get(ship.start)
            if old is None or len(old) < len(ship.entries):
                parked[ship.start] = ship.entries
            if len(parked) > 64:  # a busy log under heavy loss
                parked.pop(max(parked))
            self.k.send(self.primary_id, CatchUp(self.applied))
            return
        self._ingest(ship.start, ship.entries)

    def _ingest(self, start: int, entries: list) -> None:
        for entry in entries[self.applied - start:]:
            self._apply(entry)
        parked = self._parked
        while parked:
            start = min(parked)
            if start > self.applied:
                break
            entries = parked.pop(start)
            for entry in entries[self.applied - start:]:
                self._apply(entry)

    def _apply(self, entry) -> None:
        self.applied += 1
        epoch = apply_log_entry(self.store, entry)
        if epoch is not None and epoch > self.replayed_epoch:
            self.replayed_epoch = epoch
            self.k.trace("replay", node=self.node_id, src=self.primary_id,
                         epoch=epoch)
            for v in sorted(self._view_waiters):
                if v <= epoch:
                    self._view_waiters.pop(v).resolve()
        txn = getattr(entry, "txn", None)
        if txn is not None and txn in self.store.decided:
            self.settler.wake(txn)

    # -- reads ----------------------------------------------------------------------

    def _read_task(self, env, r: ReplicaReadReq):
        view = ceiling_epoch(r.ts.nanos, self.interval_ns)
        self.k.trace("rread_start", node=self.node_id, reader=r.reader,
                     ts=list(r.ts), view=view, mode=r.mode)
        while self.replayed_epoch < view:
            tell_parked(self, env)
            fut = self._view_waiters.get(view)
            if fut is None:
                fut = self._view_waiters[view] = Future(self.sim)
            yield fut
        reads = []
        for key in r.keys:
            chain = self.store.touch(key)
            yield from self.settler.settle_below(
                chain, r.ts, r.reader, view, lambda: tell_parked(self, env))
            vts, value = chain.visible(r.ts, view)
            reads.append((key, vts, value))
        self.k.trace("rread", node=self.node_id, reader=r.reader,
                     ts=list(r.ts), view=view, mode=r.mode,
                     reads=[[k, list(v) if v else None, val]
                            for k, v, val in reads])
        return ReplicaReadResp(view, reads)
