"""Run configuration: topology, clocks, workload, faults.

A Scenario is a plain dataclass so tests can build them inline; the YAML
loader exists for the CLI. Node ids are derived, in order, from the
region lists — data nodes ``d0.SH, d1.BJ, ...``, standbys ``s0.SH, ...``,
coordinators ``c0.SH, ...``, oracles ``ts.SH``, replicas ``d0.SH@SG``,
replica readers' client hosts ``r0.SH, ...`` — and fault entries and
per-node drifts refer to nodes by those ids.

All durations in field names carry their unit. The region set defaults
to a five-site wide-area layout, and the round-trip table between sites
is fixed: the farthest pair sits ~78ms apart and intra-region hops cost
0.2ms. The timestamp oracle is reached over a dedicated low-latency path
(``simnet.ORACLE_ONE_WAY_NS``) instead of the general mesh, so a batch
fetch costs microseconds, not the intra-region RTT (which would dwarf
the batch lifetime).

Input fails loudly: a key the loader does not know, at any level, a
value of another type than its field's (``true`` for an int, ``SG``
for a list; an int does for a float), or holding an element, key or
value of another type than its field's (``[SH, [BJ]]`` for a list of
regions, ``{5: 10}`` for a drift by node id), a region listed twice in
``regions`` or ``replicate_to``, a pair of regions with no known
round-trip time, a message filter naming no class
in ``messages``, a partition of a region outside ``regions``, a crash of
a node that no data node, standby or coordinator has, a drift of an id
that no data node, standby, replica, coordinator or reader host has
(oracles never drift), a takeover of a
role or to a node that no data node or standby has, a probability
outside [0, 1], a fault window or restart that does not end after it
starts, replica readers without replicas, a negative drift bound,
count, duration or hold, and a float that is not finite (``.inf``,
``.nan``) all raise InvalidConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from . import messages
from .errors import InvalidConfig
from .replication import recorder_role
from .simnet import (
    MS,
    CrashDirective,
    FaultSchedule,
    MsgFilter,
    OracleOutage,
    PartitionWindow,
    TakeoverDirective,
)
from .tsbatch import validate_batch_params

DEFAULT_REGIONS = ["SH", "BJ", "GZ", "GY", "SG"]

# Round-trip milliseconds between sites; same-site pairs default to 0.2.
DEFAULT_RTT_MS = {
    ("SH", "BJ"): 27.3,
    ("SH", "GZ"): 31.3,
    ("SH", "GY"): 29.2,
    ("SH", "SG"): 69.3,
    ("BJ", "GZ"): 42.6,
    ("BJ", "GY"): 38.5,
    ("BJ", "SG"): 77.6,
    ("GZ", "GY"): 28.0,
    ("GZ", "SG"): 46.8,
    ("GY", "SG"): 60.0,
}

INTRA_REGION_RTT_MS = 0.2

# The payload kinds a message filter can name.
MESSAGE_KINDS = frozenset(
    name for name, obj in vars(messages).items()
    if isinstance(obj, type) and obj.__module__ == messages.__name__)


def full_rtt_table(regions):
    table = {}
    for i, a in enumerate(regions):
        table[(a, a)] = INTRA_REGION_RTT_MS
        for b in regions[i + 1:]:
            key = (a, b) if (a, b) in DEFAULT_RTT_MS else (b, a)
            if key in DEFAULT_RTT_MS:
                table[(a, b)] = DEFAULT_RTT_MS[key]
    return table


# The types a value that YAML read may have, by the name in its field's
# annotation: ``true`` is no int, ``1.5`` no int and ``SG`` no list, but 1
# is a float.
_YAML_TYPES = {"int": (int,), "float": (int, float), "str": (str,),
               "bool": (bool,), "list": (list,), "dict": (dict,),
               "WorkloadSpec": (dict,), "FaultSchedule": (dict,)}


def _field_types(cls) -> dict:
    return {f.name: f.type for f in fields(cls)}


def _check_type(value, name: str, what: str) -> None:
    ok = _YAML_TYPES[name]
    if type(value) not in ok:
        raise InvalidConfig(f"{what} must be "
                            f"{'/'.join(t.__name__ for t in ok)}, "
                            f"not {value!r}")
    if name == "float" and not math.isfinite(value):
        raise InvalidConfig(f"{what} must be finite, not {value!r}")


def check_fields(d, types: dict, where: str, required=()) -> None:
    """Refuse a key that ``types`` does not name, a value that is not of
    the annotation ``types`` gives its key, and a mapping that lacks a
    key in ``required``. An annotation is a type's name, or ``list[E]``
    or ``dict[K, V]`` of them, whose every element, key and value is
    checked too. A list of fault entries (``list[CrashDirective]``) is
    checked entry by entry, by ``_faults_from_dict``."""
    if type(d) is not dict:
        raise InvalidConfig(f"{where}: {d!r} is not a mapping")
    for key, value in d.items():
        if key not in types:
            raise InvalidConfig(f"unknown key {key!r} in {where}")
        what = f"{key} in {where}"
        outer, _, inner = types[key].rstrip("]").partition("[")
        _check_type(value, outer, what)
        if outer == "list" and inner in _YAML_TYPES:
            for v in value:
                _check_type(v, inner, f"each element of {what}")
        elif outer == "dict" and inner:
            k_name, v_name = inner.split(", ")
            for k, v in value.items():
                _check_type(k, k_name, f"each key of {what}")
                _check_type(v, v_name, f"each value of {what}")
    missing = sorted(set(required) - d.keys())
    if missing:
        raise InvalidConfig(f"missing key {missing[0]!r} in {where}")


@dataclass
class WorkloadSpec:
    kind: str = "ycsb"            # ycsb | rmw | blind | slow_commit | mix
    keys: int = 1000
    ops_per_txn: int = 3
    write_ratio: float = 0.5
    zipf_theta: float = 0.8
    hold_intervals: float = 3.0   # slow_commit: hold open this many epochs
    slow_fraction: float = 0.05   # mix: fraction of slow_commit txns

    def validate(self) -> None:
        if self.kind not in ("ycsb", "rmw", "blind", "slow_commit", "mix"):
            raise InvalidConfig(f"unknown workload kind {self.kind!r}")
        if self.keys < 1 or self.ops_per_txn < 1:
            raise InvalidConfig("workload needs at least one key and one op")
        for name in ("write_ratio", "slow_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidConfig(f"{name} outside [0, 1]")
        for name in ("hold_intervals", "zipf_theta"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise InvalidConfig(f"{name} must be finite and >= 0")


@dataclass
class Scenario:
    """One run: topology, workload and fault schedule, all seeded.

    Every request is asked until it is answered, so faults are expected
    to heal. A permanent one, such as a crash with no restart or an
    outage that never ends, leaves each client that needs the lost node
    waiting until ``duration_ms`` rather than failing its transaction;
    the transactions it holds open end without a ``txn_end``."""

    name: str = "default"
    seed: int = 1
    duration_ms: int = 10_000      # hard cap on virtual time
    drain_ms: int = 1_000          # extra time for finalize/replication tails

    regions: list[str] = field(default_factory=lambda: list(DEFAULT_REGIONS))

    # clocks and timestamps
    epsilon_ns: int = 100_000
    max_drift_ppm: int = 200       # D, the bound on every node's drift
    node_drift_ppm: dict[str, int] = field(default_factory=dict)  # id -> drift
    drift_spread: bool = False     # give other nodes a seeded drift in [-D, D]
    ts_mode: str = "batched"       # batched | strawman
    ttl_ns: int = 100_000
    interval_ms: int = 100         # epoch length

    # topology: one entry per node, naming its region
    data_nodes: list[str] = field(
        default_factory=lambda: list(DEFAULT_REGIONS))
    standbys: list[str] = field(default_factory=list)
    replicate_to: list[str] = field(default_factory=list)
    coordinators: list[str] = field(
        default_factory=lambda: list(DEFAULT_REGIONS))

    # workload
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    clients_per_coordinator: int = 2
    txns_per_client: int = 50
    replica_readers: int = 0
    replica_reads_per_reader: int = 20
    replica_read_mode: str = "fresh"   # fresh | stale | mixed

    faults: FaultSchedule = field(default_factory=FaultSchedule)

    def __post_init__(self):
        validate_batch_params(self.ttl_ns)
        if self.ts_mode not in ("batched", "strawman"):
            raise InvalidConfig(f"unknown ts_mode {self.ts_mode!r}")
        if self.replica_read_mode not in ("fresh", "stale", "mixed"):
            raise InvalidConfig(
                f"unknown replica_read_mode {self.replica_read_mode!r}")
        for name in ("regions", "replicate_to"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise InvalidConfig(f"{name} lists a region twice")
        n = len(self.regions)
        if len(full_rtt_table(self.regions)) != n * (n + 1) // 2:
            raise InvalidConfig(f"no rtt is known between {self.regions}")
        known = set(self.regions)
        for r in (list(self.data_nodes) + list(self.standbys)
                  + list(self.replicate_to) + list(self.coordinators)):
            if r not in known:
                raise InvalidConfig(f"region {r!r} not in {self.regions}")
        if not self.data_nodes:
            raise InvalidConfig("need at least one data node")
        if not self.coordinators:
            raise InvalidConfig("need at least one coordinator")
        if self.interval_ms <= 0:
            raise InvalidConfig("interval_ms must be positive")
        if self.epsilon_ns <= 0:
            raise InvalidConfig("epsilon_ns must be positive")
        for name in ("duration_ms", "drain_ms", "max_drift_ppm",
                     "clients_per_coordinator", "txns_per_client",
                     "replica_readers", "replica_reads_per_reader"):
            if getattr(self, name) < 0:
                raise InvalidConfig(f"{name} must be >= 0")
        if self.replica_readers and not self.replicate_to:
            raise InvalidConfig("replica_readers need replicate_to")
        drifting = {*self.data_node_ids(), *self.standby_ids(),
                    *self.coordinator_ids(), *self.reader_host_ids(),
                    *sum(self.replica_ids().values(), [])}
        for node, d in self.node_drift_ppm.items():
            if node not in drifting:
                raise InvalidConfig(
                    f"node_drift_ppm: {node!r} names no node that drifts")
            # A float drift would make virtual time a float.
            if type(d) is not int:
                raise InvalidConfig(f"node {node} drift {d!r} is not an int")
            if abs(d) > self.max_drift_ppm:
                raise InvalidConfig(f"node {node} drift {d}ppm exceeds "
                                    f"bound {self.max_drift_ppm}ppm")
        self._check_faults()
        self.workload.validate()

    def _check_faults(self) -> None:
        fs = self.faults
        probs = [(name, getattr(fs, name))
                 for name in ("drop_prob", "reorder_prob", "duplicate_prob")]
        probs += [("msg_filters prob", f.prob) for f in fs.msg_filters]
        for name, prob in probs:
            if not 0.0 <= prob <= 1.0:
                raise InvalidConfig(f"{name} {prob} outside [0, 1]")
        recorders = set(self.data_node_ids() + self.standby_ids())
        for c in fs.crashes:
            if c.node not in recorders | set(self.coordinator_ids()):
                raise InvalidConfig(f"crash target {c.node!r} is not a "
                                    f"data/standby/coordinator node")
            if c.restart_at_ns is not None and c.restart_at_ns <= c.at_ns:
                raise InvalidConfig(
                    f"crash of {c.node}: restart_at_ms not after at_ms")
        for kind, windows in (("partition", fs.partitions),
                              ("oracle outage", fs.oracle_outages)):
            for w in windows:
                if w.end_ns <= w.start_ns:
                    raise InvalidConfig(f"{kind}: to_ms not after from_ms")
        for w in fs.partitions:
            outside = set(w.regions) - set(self.regions)
            if outside:
                raise InvalidConfig(f"partition regions {sorted(outside)} "
                                    f"not in {self.regions}")
        for t in fs.takeovers:
            if t.role not in {recorder_role(n) for n in recorders}:
                raise InvalidConfig(f"takeover role {t.role!r} is owned by "
                                    f"no data or standby node")
            if t.to_node not in recorders:
                raise InvalidConfig(f"takeover target {t.to_node!r} is not "
                                    f"a data/standby node")
        for f in fs.msg_filters:
            unknown = set(f.kinds) - MESSAGE_KINDS
            if unknown:
                raise InvalidConfig(f"message filter kinds {sorted(unknown)} "
                                    f"name no message class")

    @property
    def interval_ns(self) -> int:
        return self.interval_ms * MS

    # derived node ids, in creation order
    def data_node_ids(self):
        return [f"d{i}.{r}" for i, r in enumerate(self.data_nodes)]

    def standby_ids(self):
        return [f"s{i}.{r}" for i, r in enumerate(self.standbys)]

    def coordinator_ids(self):
        return [f"c{i}.{r}" for i, r in enumerate(self.coordinators)]

    def replica_ids(self) -> dict:
        """Primary id -> its replicas' ids, one per ``replicate_to``
        region; empty without replicas."""
        return {nid: [f"{nid}@{r}" for r in self.replicate_to]
                for nid in self.data_node_ids() if self.replicate_to}

    def reader_host_ids(self):
        """The client hosts of the replica readers: one in the region of
        each of the first ``replica_readers`` coordinators, numbered as
        they are. Reader ``j`` runs on host ``j`` modulo their number."""
        n = min(self.replica_readers, len(self.coordinators))
        return [f"r{i}.{r}" for i, r in enumerate(self.coordinators[:n])]


def _ms(v) -> int:
    return int(float(v) * MS)


# The keys of each kind of fault entry, annotated as a field is: those it
# must have, and those it may have.
_FAULT_ENTRY_KEYS = {
    "crashes": ({"node": "str", "at_ms": "float"}, {"restart_at_ms": "float"}),
    "partitions": ({"regions": "list[str]", "from_ms": "float",
                    "to_ms": "float"}, {}),
    "oracle_outages": ({"region": "str", "from_ms": "float",
                        "to_ms": "float"}, {}),
    "takeovers": ({"role": "str", "to": "str", "at_ms": "float"}, {}),
    "msg_filters": ({"kinds": "list[str]", "prob": "float"},
                    {"from_ms": "float", "to_ms": "float"}),
}


def scenario_from_dict(d: dict) -> Scenario:
    # A workload or faults key with no value is an empty mapping.
    d = {**d, **{k: {} for k in ("workload", "faults") if d.get(k) is None}}
    check_fields(d, _field_types(Scenario), "scenario")
    check_fields(d["workload"], _field_types(WorkloadSpec), "workload")
    d["workload"] = WorkloadSpec(**d["workload"])
    fault_d = d.pop("faults")
    regions = d.get("regions", DEFAULT_REGIONS)
    return Scenario(**d, faults=_faults_from_dict(fault_d, regions))


def _faults_from_dict(fd: dict, regions: list) -> FaultSchedule:
    check_fields(fd, _field_types(FaultSchedule), "faults")
    for kind, (required, optional) in _FAULT_ENTRY_KEYS.items():
        for entry in fd.get(kind, ()):
            check_fields(entry, {**required, **optional}, f"faults.{kind}",
                         required)
    probs = ("drop_prob", "reorder_prob", "duplicate_prob")
    fs = FaultSchedule(**{k: float(fd[k]) for k in probs if k in fd})
    for c in fd.get("crashes", ()):
        restart = c.get("restart_at_ms")
        fs.crashes.append(CrashDirective(
            node=c["node"], at_ns=_ms(c["at_ms"]),
            restart_at_ns=_ms(restart) if restart is not None else None,
        ))
    for p in fd.get("partitions", ()):
        fs.partitions.append(PartitionWindow(
            regions=frozenset(p["regions"]),
            start_ns=_ms(p["from_ms"]), end_ns=_ms(p["to_ms"]),
        ))
    for o in fd.get("oracle_outages", ()):
        region = o["region"]
        if region not in regions:
            raise InvalidConfig(f"oracle outage names unknown region {region!r}")
        fs.oracle_outages.append(OracleOutage(
            server_id=regions.index(region),
            start_ns=_ms(o["from_ms"]), end_ns=_ms(o["to_ms"]),
        ))
    for t in fd.get("takeovers", ()):
        fs.takeovers.append(TakeoverDirective(
            role=t["role"], to_node=t["to"], at_ns=_ms(t["at_ms"]),
        ))
    for m in fd.get("msg_filters", ()):
        fs.msg_filters.append(MsgFilter(
            kinds=frozenset(m["kinds"]), prob=float(m["prob"]),
            start_ns=_ms(m.get("from_ms", 0)),
            end_ns=_ms(m["to_ms"]) if "to_ms" in m else 1 << 62,
        ))
    return fs


def read_scenario(path: str) -> dict:
    """The mapping a scenario file holds, which ``scenario_from_dict``
    builds the Scenario from. ``chronokv run`` keeps the mapping, to
    write it in the trace's header. PyYAML is imported here, so a run
    that reads no file does not load it."""
    import yaml

    with open(path) as f:
        raw = yaml.safe_load(f) or {}
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{path}: expected a mapping at top level")
    return raw
