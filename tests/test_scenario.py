"""Scenario construction, validation, and YAML loading."""

import math

import pytest

from chronokv.cluster import Cluster
from chronokv.errors import InvalidConfig
from chronokv.scenario import (
    Scenario,
    WorkloadSpec,
    full_rtt_table,
    read_scenario,
    scenario_from_dict,
)


def test_defaults_are_a_five_region_wide_area_cluster():
    sc = Scenario()
    assert sc.regions == ["SH", "BJ", "GZ", "GY", "SG"]
    assert sc.data_node_ids() == ["d0.SH", "d1.BJ", "d2.GZ", "d3.GY", "d4.SG"]
    assert sc.coordinator_ids() == ["c0.SH", "c1.BJ", "c2.GZ", "c3.GY", "c4.SG"]
    assert sc.interval_ns == 100_000_000


def test_rtt_table_covers_every_pair():
    t = full_rtt_table(["SH", "BJ", "SG"])
    assert t[("SH", "SH")] == 0.2
    assert t[("SH", "BJ")] == 27.3
    assert t[("BJ", "SG")] == 77.6
    assert t[("SH", "SG")] == 69.3


def test_scenario_from_dict_round_trips_faults():
    sc = scenario_from_dict({
        "name": "full",
        "seed": 5,
        "duration_ms": 2_000,
        "regions": ["SH", "BJ"],
        "data_nodes": ["SH", "BJ"],
        "standbys": ["SH"],
        "replicate_to": ["BJ"],
        "coordinators": ["SH"],
        "workload": {"kind": "rmw", "keys": 10, "ops_per_txn": 2,
                     "write_ratio": 1},  # an int is a float
        "faults": {
            "drop_prob": 0.01,
            "reorder_prob": 0.05,
            "crashes": [{"node": "c0.SH", "at_ms": 500, "restart_at_ms": 800},
                        {"node": "d0.SH", "at_ms": 900}],
            "partitions": [{"regions": ["SH", "BJ"],
                            "from_ms": 100, "to_ms": 200}],
            "oracle_outages": [{"region": "BJ", "from_ms": 50, "to_ms": 60}],
            "takeovers": [{"role": "rec/d0.SH", "to": "s0.SH", "at_ms": 950}],
            "msg_filters": [{"kinds": ["DecideReq"], "prob": 0.5,
                             "to_ms": 100}],
        },
    })
    assert sc.workload.kind == "rmw" and sc.workload.write_ratio == 1
    fs = sc.faults
    assert fs.drop_prob == 0.01 and fs.reorder_prob == 0.05
    assert [c.node for c in fs.crashes] == ["c0.SH", "d0.SH"]
    assert fs.crashes[0].restart_at_ns == 800_000_000
    assert fs.crashes[1].restart_at_ns is None
    assert fs.partitions[0].regions == frozenset({"SH", "BJ"})
    assert fs.oracle_outages[0].server_id == 1  # BJ is regions[1]
    assert fs.takeovers[0].to_node == "s0.SH"
    assert fs.msg_filters[0].kinds == frozenset({"DecideReq"})


@pytest.mark.parametrize("bad", [
    dict(ts_mode="quantum"),
    dict(replica_read_mode="psychic"),
    dict(data_nodes=[]),
    dict(coordinators=[]),
    dict(interval_ms=0),
    dict(data_nodes=["MARS"]),
    dict(ttl_ns=105),                    # ttl must be a step multiple
    dict(workload=WorkloadSpec(kind="nope")),
    dict(epsilon_ns=0),
    dict(epsilon_ns=-1),
    dict(max_drift_ppm=-1),
    dict(node_drift_ppm={"d0.SH": 1.5}),  # virtual time would be a float
    dict(clients_per_coordinator=-1),
    dict(replica_readers=-1),
    # Cluster could not build these: no rtt, and duplicate node ids
    dict(regions=["SH", "XX"], data_nodes=["SH"], coordinators=["XX"]),
    dict(regions=["SH", "SH"], data_nodes=["SH"], coordinators=["SH"]),
    dict(regions=["SH", "SG"], data_nodes=["SH"], coordinators=["SH"],
         replicate_to=["SG", "SG"]),
    dict(workload=WorkloadSpec(keys=0)),
    dict(workload=WorkloadSpec(ops_per_txn=0)),
    dict(workload=WorkloadSpec(zipf_theta=-0.1)),
    # a workload built inline skips the loader's finite check
    dict(workload=WorkloadSpec(kind="slow_commit", hold_intervals=math.inf)),
    dict(workload=WorkloadSpec(hold_intervals=math.nan)),
    dict(workload=WorkloadSpec(zipf_theta=math.inf)),
])
def test_invalid_scenarios_are_rejected(bad):
    with pytest.raises(InvalidConfig):
        Scenario(**bad)


def test_node_drift_is_applied_within_its_bound_and_rejected_beyond():
    sc = Scenario(max_drift_ppm=200,
                  node_drift_ppm={"d0.SH": 200, "d1.BJ": -200})
    nodes = Cluster(sc).net.nodes
    assert nodes["d0.SH"].k.drift_ppm == 200
    assert nodes["d1.BJ"].k.drift_ppm == -200
    assert nodes["c0.SH"].k.drift_ppm == 0  # unlisted, no drift_spread
    with pytest.raises(InvalidConfig, match="c0.SH drift 201ppm"):
        Scenario(max_drift_ppm=200, node_drift_ppm={"c0.SH": 201})


def test_a_drift_applies_to_each_node_that_drifts_and_names_no_other():
    # Replicas and the replica readers' client hosts drift as listed. An
    # id that names no node is refused, and so is an oracle's: oracles
    # never drift.
    base = dict(regions=["SH", "SG"], data_nodes=["SH"],
                coordinators=["SH", "SG"], replicate_to=["SG"],
                replica_readers=3)
    sc = Scenario(**base, node_drift_ppm={"d0.SH@SG": 5, "r1.SG": -3})
    assert sc.replica_ids() == {"d0.SH": ["d0.SH@SG"]}
    assert sc.reader_host_ids() == ["r0.SH", "r1.SG"]
    cluster = Cluster(sc)
    cluster.start()
    nodes = cluster.net.nodes
    assert [nodes[n].k.drift_ppm for n in ("d0.SH@SG", "r1.SG", "r0.SH")] \
        == [5, -3, 0]
    for node in ("d9.SH", "d0.SH@BJ", "r2.SH", "ts.SH"):
        with pytest.raises(InvalidConfig, match=f"'{node}' names no node"):
            Scenario(**base, node_drift_ppm={node: 1})


TWO_REGIONS = {"regions": ["SH", "BJ"], "data_nodes": ["SH"],
               "coordinators": ["BJ"]}


@pytest.mark.parametrize("extra, named", [
    ({"think_ms": 5}, "think_ms"),
    ({"rtt_overrides": {"SH-BJ": 10.0}}, "rtt_overrides"),
    ({"workload": {"kind": "rmw", "theta": 0.9}}, "theta"),
    ({"faults": {"crashs": [{"node": "c0.BJ", "at_ms": 5}]}}, "crashs"),
    ({"faults": {"crashes": [{"node": "c0.BJ", "at_ms": 5,
                              "restart_at": 9}]}}, "restart_at"),
    ({"faults": {"partitions": [{"regions": ["SH"], "from_ms": 0,
                                 "to_ms": 1, "until_ms": 2}]}}, "until_ms"),
    ({"faults": {"msg_filters": [{"kinds": ["decide"], "prob": 0.5}]}},
     "decide"),
    ({"faults": {"partitions": [{"regions": ["SH", "SG"], "from_ms": 0,
                                 "to_ms": 1}]}}, "SG"),
    ({"faults": {"drop_prob": 1.5}}, "drop_prob"),
    ({"faults": {"reorder_prob": -0.1}}, "reorder_prob"),
    ({"faults": {"duplicate_prob": 2}}, "duplicate_prob"),
    ({"faults": {"msg_filters": [{"kinds": ["DecideReq"], "prob": 1.5}]}},
     "msg_filters prob"),
    ({"faults": {"crashes": [{"node": "c0.BJ", "at_ms": 5,
                              "restart_at_ms": 5}]}}, "restart_at_ms"),
    ({"faults": {"partitions": [{"regions": ["SH"], "from_ms": 5,
                                 "to_ms": 5}]}}, "partition: to_ms"),
    ({"faults": {"oracle_outages": [{"region": "SH", "from_ms": 5,
                                     "to_ms": 1}]}}, "oracle outage: to_ms"),
    ({"faults": {"takeovers": [{"role": "rec/d9.SH", "to": "d0.SH",
                                "at_ms": 5}]}}, "rec/d9.SH"),
    ({"replica_readers": 1}, "replicate_to"),
    ({"faults": {"crashes": [{"node": "c9.BJ", "at_ms": 5}]}}, "c9.BJ"),
    ({"faults": {"takeovers": [{"role": "rec/d0.SH", "to": "c0.BJ",
                                "at_ms": 5}]}}, "c0.BJ"),
    ({"workload": {"kind": "mix", "slow_fraction": 1.5}}, "slow_fraction"),
    ({"workload": {"kind": "mix", "slow_fraction": -0.1}}, "slow_fraction"),
    ({"workload": {"kind": "slow_commit", "hold_intervals": -1}},
     "hold_intervals"),
    ({"txns_per_client": -1}, "txns_per_client"),
    ({"replica_reads_per_reader": -1}, "replica_reads_per_reader"),
    ({"drain_ms": -1}, "drain_ms"),
    ({"duration_ms": -5}, "duration_ms"),
    # a value of another type than its field's
    ({"seed": True}, "seed in scenario must be int, not True"),
    ({"interval_ms": 2.5}, "interval_ms in scenario must be int"),
    ({"coordinators": "BJ"}, "coordinators in scenario must be list"),
    ({"drift_spread": 1}, "drift_spread in scenario must be bool"),
    ({"workload": 5}, "workload in scenario must be dict"),
    ({"workload": {"keys": "many"}}, "keys in workload must be int"),
    ({"workload": {"write_ratio": "half"}}, "write_ratio in workload"),
    ({"faults": 5}, "faults in scenario must be dict"),
    ({"faults": {"drop_prob": "x"}}, "drop_prob in faults must be int/float"),
    ({"faults": {"crashes": {"node": "c0.BJ", "at_ms": 5}}},
     "crashes in faults must be list"),
    ({"faults": {"crashes": [5]}}, "faults.crashes: 5 is not a mapping"),
    ({"faults": {"crashes": [{"node": "c0.BJ", "at_ms": "5"}]}},
     "at_ms in faults.crashes must be int/float"),
    ({"faults": {"msg_filters": [{"kinds": "DecideReq", "prob": 0.5}]}},
     "kinds in faults.msg_filters must be list"),
    # or holding an element, key or value of another type
    ({"node_drift_ppm": {"d0.SH": "abc"}},
     "each value of node_drift_ppm in scenario must be int, not 'abc'"),
    ({"node_drift_ppm": {"d0.SH": 1.5}},
     "each value of node_drift_ppm in scenario must be int, not 1.5"),
    ({"node_drift_ppm": {5: 10}},
     "each key of node_drift_ppm in scenario must be str, not 5"),
    ({"data_nodes": [["SH"]]}, "each element of data_nodes in scenario"),
    ({"regions": ["SH", ["BJ"]]}, "each element of regions in scenario"),
    ({"faults": {"partitions": [{"regions": ["SH", ["BJ"]], "from_ms": 0,
                                 "to_ms": 1}]}},
     "each element of regions in faults.partitions must be str"),
    ({"node_drift_ppm": {"d9.SH": 150}}, "'d9.SH' names no node that drifts"),
    # or a float that is not finite
    ({"faults": {"crashes": [{"node": "c0.BJ", "at_ms": math.inf}]}},
     "at_ms in faults.crashes must be finite, not inf"),
    ({"workload": {"kind": "slow_commit", "hold_intervals": math.inf}},
     "hold_intervals in workload must be finite, not inf"),
    ({"faults": {"oracle_outages": [{"region": "SH", "from_ms": math.nan,
                                     "to_ms": 5}]}},
     "from_ms in faults.oracle_outages must be finite, not nan"),
    ({"workload": {"zipf_theta": -math.inf}},
     "zipf_theta in workload must be finite, not -inf"),
    ({"faults": {"drop_prob": math.nan}},
     "drop_prob in faults must be finite, not nan"),
])
def test_scenario_input_that_names_nothing_is_rejected(extra, named):
    with pytest.raises(InvalidConfig, match=named):
        scenario_from_dict({**TWO_REGIONS, **extra})


@pytest.mark.parametrize("faults, missing", [
    ({"crashes": [{"node": "c0.BJ"}]}, "at_ms"),
    ({"crashes": [{"at_ms": 5}]}, "node"),
    ({"partitions": [{"regions": ["SH"], "from_ms": 0}]}, "to_ms"),
    ({"oracle_outages": [{"region": "SH", "to_ms": 1}]}, "from_ms"),
    ({"takeovers": [{"role": "rec/d0.SH", "at_ms": 5}]}, "to"),
    ({"msg_filters": [{"kinds": ["DecideReq"]}]}, "prob"),
])
def test_a_fault_entry_missing_a_key_is_rejected_naming_it(faults, missing):
    with pytest.raises(InvalidConfig, match=f"missing key '{missing}'"):
        scenario_from_dict({**TWO_REGIONS, "faults": faults})


def test_oracle_outage_for_unknown_region_is_rejected():
    with pytest.raises(InvalidConfig, match="unknown region"):
        scenario_from_dict({
            "regions": ["SH"], "data_nodes": ["SH"], "coordinators": ["SH"],
            "faults": {"oracle_outages": [
                {"region": "XX", "from_ms": 0, "to_ms": 1}]},
        })


def test_load_scenario_reads_yaml(tmp_path):
    p = tmp_path / "s.yaml"
    p.write_text(
        "name: from-yaml\n"
        "seed: 9\n"
        "regions: [SH, BJ]\n"
        "data_nodes: [SH]\n"
        "coordinators: [BJ]\n"
        "workload: {kind: blind, write_ratio: 1.0}\n"
        "faults: {drop_prob: 0.02}\n"
    )
    sc = scenario_from_dict(read_scenario(str(p)))
    assert sc.name == "from-yaml"
    assert sc.seed == 9
    assert sc.coordinator_ids() == ["c0.BJ"]
    assert sc.workload.kind == "blind"
    assert sc.faults.drop_prob == 0.02


def test_load_scenario_rejects_non_mapping_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("- just\n- a\n- list\n")
    with pytest.raises(InvalidConfig, match="mapping"):
        scenario_from_dict(read_scenario(str(p)))
