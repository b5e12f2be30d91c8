"""The chronokv CLI driven in-process."""

import json
from pathlib import Path

import pytest

from chronokv.cli import main


SMALL = {
    "name": "cli-unit",
    "seed": "3",
    "duration_ms": "30000",
    "regions": "[SH, BJ]",
    "data_nodes": "[SH]",
    "replicate_to": "[BJ]",
    "coordinators": "[SH]",
    "clients_per_coordinator": "1",
    "txns_per_client": "12",
    "interval_ms": "50",
    "workload": "{kind: ycsb, keys: 16, write_ratio: 0.8}",
}


#: The scenario of the hand-written traces below, and their header.
ONE_REGION = {"regions": ["SH"], "data_nodes": ["SH"], "coordinators": ["SH"]}
HEADER = {"kind": "header", "schema": 2, "scenario": ONE_REGION,
          "end_ns": 2000}


def small_yaml(tmp_path, **overrides):
    fields = {**SMALL, **overrides}
    p = tmp_path / "scenario.yaml"
    p.write_text("".join(f"{k}: {v}\n" for k, v in fields.items()))
    return str(p)


def test_run_prints_a_summary_and_writes_a_trace(tmp_path, capsys):
    trace = tmp_path / "out.trace"
    rc = main(["run", "--scenario", small_yaml(tmp_path),
               "--trace", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    summary = json.loads(out)
    assert summary["txns"] == 12
    assert summary["committed"] + summary["aborted"] == 12
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    # the scenario as the file holds it
    assert header["scenario"]["seed"] == 3
    assert header["scenario"]["workload"] == {
        "kind": "ycsb", "keys": 16, "write_ratio": 0.8}
    assert header["end_ns"] >= json.loads(lines[-1])[0]
    assert len(lines) > 12


def test_run_seed_override_changes_the_run(tmp_path, capsys):
    sc = small_yaml(tmp_path)
    main(["run", "--scenario", sc])
    first = capsys.readouterr().out
    trace = tmp_path / "99.trace"
    main(["run", "--scenario", sc, "--seed", "99", "--until-ms", "20000",
          "--trace", str(trace)])
    second = capsys.readouterr().out
    assert json.loads(first)["seed"] == 3
    assert json.loads(second)["seed"] == 99
    # the header holds the scenario that ran, overrides applied
    header = json.loads(trace.read_text().splitlines()[0])
    assert header["scenario"]["seed"] == 99
    assert header["scenario"]["duration_ms"] == 20000


def test_check_passes_on_a_clean_trace(tmp_path, capsys):
    trace = tmp_path / "clean.trace"
    main(["run", "--scenario", small_yaml(tmp_path), "--trace", str(trace)])
    capsys.readouterr()
    csv = tmp_path / "vis.csv"
    rc = main(["check", "--trace", str(trace), "--csv", str(csv)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "strict-serializability" in out and "FAIL" not in out
    assert "deadlock-freedom: ok" in out
    assert csv.read_text().startswith("commit_ms,delay_ms\n")


def test_check_fails_on_a_trace_with_a_planted_violation(tmp_path, capsys):
    # a commit stamped after the transaction already released
    trace = tmp_path / "bad.trace"
    trace.write_text("\n".join([
        json.dumps(HEADER),
        json.dumps([1000, "txn_begin", {"txn": "c0.SH:1"}]),
        json.dumps([1500, "txn_ts", {"txn": "c0.SH:1", "ts": [5000, 0, 0]}]),
        json.dumps([2000, "txn_end", {"txn": "c0.SH:1", "status": "committed",
                                      "epoch": 1}]),
    ]) + "\n")
    rc = main(["check", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "timestamp-in-lifetime: FAIL" in out


def test_check_exits_2_naming_a_key_the_trace_header_lacks(tmp_path, capsys):
    for key in ("scenario", "end_ns"):
        trace = tmp_path / "headless.trace"
        trace.write_text("\n".join([
            json.dumps({k: v for k, v in HEADER.items() if k != key}),
            json.dumps([1000, "txn_begin", {"txn": "c0.SH:1"}]),
        ]) + "\n")
        rc = main(["check", "--trace", str(trace)])
        assert rc == 2
        assert f"missing key '{key}' in trace header" in \
            capsys.readouterr().err


@pytest.mark.parametrize("end_ns, verdict", [
    (1_400_000_000, "push-progress: ok"),
    (1_520_000_000, "push-progress: FAIL"),
], ids=["end-at-last-event", "end-after-it"])
def test_check_judges_push_progress_at_the_run_end_in_the_header(
        tmp_path, capsys, end_ns, verdict):
    # The wait's writer was decided at 1.0 s, and the last event is at
    # 1.4 s: within the 0.5 s grace of the last event, but 0.52 s before
    # a run that ended at 1.52 s.
    trace = tmp_path / "open-wait.trace"
    trace.write_text("\n".join([
        json.dumps({**HEADER, "end_ns": end_ns}),
        json.dumps([900_000_000, "push_wait", {
            "node": "d0.SH", "reader": "c0.SH:2", "txn": "c0.SH:1"}]),
        json.dumps([1_000_000_000, "record", {
            "role": "rec/d0.SH", "txn": "c0.SH:1", "status": "committed",
            "epoch": 1}]),
        json.dumps([1_400_000_000, "cut", {
            "node": "d0.SH", "epoch": 14, "promised": 1_400_000_000}]),
    ]) + "\n")
    rc = main(["check", "--trace", str(trace), "--property", "ss"])
    out = capsys.readouterr().out
    assert verdict in out
    assert rc == (0 if verdict.endswith("ok") else 1)


# Trace files of a schema 2 header and one event line each.
EVENT_LINES = {
    "event-int": "5",
    "event-no-fields": '[1,"op"]',
    "fields-not-an-object": '[1,"op",5]',
    "kind-not-a-string": '[1,5,{}]',
    "op-without-txn": '[1,"op",{}]',
}

# Scenario files of the SMALL scenario with one value replaced.
BAD_VALUES = {
    "workload-int": {"workload": "5"},
    "regions-int": {"regions": "5"},
    "duration-string": {"duration_ms": "abc"},
    "txns-float": {"txns_per_client": "1.5"},
    "seed-bool": {"seed": "true"},
    "crash-int": {"faults": "{crashes: [5]}"},
    "partition-string": {
        "faults": "{partitions: [{regions: SH, from_ms: 0, to_ms: 1}]}"},
    "drift-string": {"node_drift_ppm": "{d0.SH: abc}"},
    "drift-float": {"node_drift_ppm": "{d0.SH: 1.5}"},
    "drift-int-key": {"node_drift_ppm": "{5: 10}"},
    "data-nodes-nested": {"data_nodes": "[[SH]]"},
    "regions-nested": {"regions": "[SH, [BJ]]"},
    "drift-of-no-node": {"node_drift_ppm": "{d9.SH: 150}"},
    "crash-at-inf": {"faults": "{crashes: [{node: c0.SH, at_ms: .inf}]}"},
    "hold-inf": {"workload": "{kind: slow_commit, hold_intervals: .inf}"},
    "outage-from-nan": {
        "faults": "{oracle_outages: [{region: SH, from_ms: .nan, to_ms: 5}]}"},
}

# Trace files of HEADER with one value of its scenario replaced, or one
# of its own values replaced or left out (None).
BAD_SCENARIOS = {
    "header-data-nodes-int": {"data_nodes": 5},
    "header-interval-zero": {"interval_ms": 0},
    "header-interval-string": {"interval_ms": "abc"},
    "header-epsilon-string": {"epsilon_ns": "5"},
    "header-no-data-node": {"data_nodes": []},
    "header-replicate-to-int": {"replicate_to": [1]},
}
BAD_HEADERS = {
    **{name: {"scenario": {**ONE_REGION, **values}}
       for name, values in BAD_SCENARIOS.items()},
    # the header older traces have
    "header-replicas-of-list": {"replicas_of": [1]},
    "header-scenario-list": {"scenario": [1]},
    "header-no-end": {"end_ns": None},
}


@pytest.mark.parametrize("argv, culprit, reason", [
    (["check", "--trace", "empty"], "empty", "the file is empty"),
    (["check", "--trace", "schema1"], "schema1", "unsupported trace schema 1"),
    (["check", "--trace", "missing"], "missing", "No such file or directory"),
    (["check", "--trace", "listed"], "listed", "unsupported trace schema None"),
    (["diff", "schema1", "empty"], "schema1", "unsupported trace schema 1"),
    (["diff", "clean", "missing"], "missing", "No such file or directory"),
    (["run", "--scenario", "bad_key"], "bad_key", "unknown key 'bogus'"),
    (["run", "--scenario", "missing"], "missing", "No such file or directory"),
    (["check", "--trace", "event-int"], "event-int",
     "line 2: 5 is not an event [int, str, object]"),
    (["check", "--trace", "event-no-fields"], "event-no-fields",
     'line 2: [1,"op"] is not an event'),
    (["check", "--trace", "fields-not-an-object"], "fields-not-an-object",
     'line 2: [1,"op",5] is not an event'),
    (["diff", "clean", "kind-not-a-string"], "kind-not-a-string",
     'line 2: [1,5,{}] is not an event'),
    (["check", "--trace", "op-without-txn"], "op-without-txn",
     """event [1, "op", {}] lacks field 'txn'"""),
    (["run", "--scenario", "workload-int"], "workload-int",
     "workload in scenario must be dict, not 5"),
    (["run", "--scenario", "regions-int"], "regions-int",
     "regions in scenario must be list, not 5"),
    (["run", "--scenario", "duration-string"], "duration-string",
     "duration_ms in scenario must be int, not 'abc'"),
    (["run", "--scenario", "txns-float"], "txns-float",
     "txns_per_client in scenario must be int, not 1.5"),
    (["run", "--scenario", "seed-bool"], "seed-bool",
     "seed in scenario must be int, not True"),
    (["run", "--scenario", "crash-int"], "crash-int",
     "faults.crashes: 5 is not a mapping"),
    (["run", "--scenario", "partition-string"], "partition-string",
     "regions in faults.partitions must be list, not 'SH'"),
    (["run", "--scenario", "drift-string"], "drift-string",
     "each value of node_drift_ppm in scenario must be int, not 'abc'"),
    (["run", "--scenario", "drift-float"], "drift-float",
     "each value of node_drift_ppm in scenario must be int, not 1.5"),
    (["run", "--scenario", "drift-int-key"], "drift-int-key",
     "each key of node_drift_ppm in scenario must be str, not 5"),
    (["run", "--scenario", "data-nodes-nested"], "data-nodes-nested",
     "each element of data_nodes in scenario must be str, not ['SH']"),
    (["run", "--scenario", "regions-nested"], "regions-nested",
     "each element of regions in scenario must be str, not ['BJ']"),
    (["run", "--scenario", "drift-of-no-node"], "drift-of-no-node",
     "node_drift_ppm: 'd9.SH' names no node that drifts"),
    (["run", "--scenario", "crash-at-inf"], "crash-at-inf",
     "at_ms in faults.crashes must be finite, not inf"),
    (["run", "--scenario", "hold-inf"], "hold-inf",
     "hold_intervals in workload must be finite, not inf"),
    (["run", "--scenario", "outage-from-nan"], "outage-from-nan",
     "from_ms in faults.oracle_outages must be finite, not nan"),
    (["run", "--until-ms", "-5"], "--seed/--until-ms",
     "duration_ms must be >= 0"),
    (["check", "--trace", "header-data-nodes-int"], "header-data-nodes-int",
     "data_nodes in scenario must be list, not 5"),
    (["check", "--trace", "header-interval-zero"], "header-interval-zero",
     "interval_ms must be positive"),
    (["check", "--trace", "header-interval-string"],
     "header-interval-string",
     "interval_ms in scenario must be int, not 'abc'"),
    (["check", "--trace", "header-epsilon-string"], "header-epsilon-string",
     "epsilon_ns in scenario must be int, not '5'"),
    (["check", "--trace", "header-no-data-node"], "header-no-data-node",
     "need at least one data node"),
    (["check", "--trace", "header-replicate-to-int"],
     "header-replicate-to-int",
     "each element of replicate_to in scenario must be str, not 1"),
    (["check", "--trace", "header-replicas-of-list"],
     "header-replicas-of-list",
     "unknown key 'replicas_of' in trace header"),
    (["check", "--trace", "header-scenario-list"], "header-scenario-list",
     "scenario in trace header must be dict, not [1]"),
    (["check", "--trace", "header-no-end"], "header-no-end",
     "missing key 'end_ns' in trace header"),
], ids=["check-empty", "check-schema-1", "check-missing",
        "check-header-not-an-object", "diff-schema-1", "diff-missing",
        "run-unknown-key", "run-missing", *EVENT_LINES, *BAD_VALUES,
        "run-negative-until", *BAD_HEADERS])
def test_input_a_command_cannot_read_exits_2_with_one_line(
        tmp_path, capsys, argv, culprit, reason):
    # Exit 1 means a violation to check and a difference to diff.
    (tmp_path / "empty").write_text("")
    (tmp_path / "schema1").write_text(
        json.dumps({"kind": "header", "schema": 1}) + "\n")
    (tmp_path / "listed").write_text("[2]\n")
    (tmp_path / "clean").write_text(
        json.dumps({"kind": "header", "schema": 2}) + "\n")
    for name, line in EVENT_LINES.items():
        (tmp_path / name).write_text(
            json.dumps({"kind": "header", "schema": 2}) + "\n" + line + "\n")
    Path(small_yaml(tmp_path, bogus="1")).rename(tmp_path / "bad_key")
    for name, values in BAD_VALUES.items():
        Path(small_yaml(tmp_path, **values)).rename(tmp_path / name)
    for name, values in BAD_HEADERS.items():
        header = {k: v for k, v in {**HEADER, **values}.items()
                  if v is not None}
        (tmp_path / name).write_text(json.dumps(header) + "\n")
    files = {"empty", "schema1", "listed", "clean", "missing", "bad_key",
             *EVENT_LINES, *BAD_VALUES, *BAD_HEADERS}
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    where = tmp_path / culprit if culprit in files else culprit
    assert line.startswith(f"chronokv {argv[0]}: {where}: ")
    assert reason in line


def test_check_property_subsets_run_only_their_checkers(tmp_path, capsys):
    trace = tmp_path / "clean.trace"
    main(["run", "--scenario", small_yaml(tmp_path), "--trace", str(trace)])
    capsys.readouterr()
    rc = main(["check", "--trace", str(trace), "--property", "replica"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "epoch-cuts" in out
    assert "strict-serializability" not in out
    rc = main(["check", "--trace", str(trace), "--property", "visibility"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("visibility: ")


def test_check_measures_visibility_like_run_on_two_primaries(tmp_path, capsys):
    # Each transaction waits only on the replicas of the primaries it
    # wrote, in check as in run: the trace header names the topology.
    trace = tmp_path / "two.trace"
    scenario = small_yaml(tmp_path, data_nodes="[SH, BJ]",
                          replicate_to="[SH, BJ]", txns_per_client=40)
    main(["run", "--scenario", scenario, "--trace", str(trace)])
    run_vis = json.loads(capsys.readouterr().out)["visibility"]
    rc = main(["check", "--trace", str(trace), "--property", "visibility"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out.removeprefix("visibility: ")) == run_vis


def test_diff_prints_the_first_event_two_traces_differ_at(tmp_path, capsys):
    def trace(name, events):
        path = tmp_path / name
        path.write_text("\n".join(
            [json.dumps({"kind": "header", "schema": 2, "seed": name})]
            + [json.dumps(e) for e in events]) + "\n")
        return str(path)

    events = [[i, "op", {"i": i}] for i in range(10)]
    a = trace("a", events)
    b = trace("b", events[:5] + [[5, "op", {"i": 99}]] + events[6:])
    assert main(["diff", a, trace("same", events)]) == 0
    assert capsys.readouterr().out == "identical: 10 events\n"
    # DIFF_CONTEXT (3) shared events before it, that many after it
    assert main(["diff", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "first difference at event 5 (A: 10 events, B: 10)",
        '  2 [2,"op",{"i":2}]', '  3 [3,"op",{"i":3}]',
        '  4 [4,"op",{"i":4}]',
        '- 5 [5,"op",{"i":5}]', '- 6 [6,"op",{"i":6}]',
        '- 7 [7,"op",{"i":7}]', '- 8 [8,"op",{"i":8}]',
        '+ 5 [5,"op",{"i":99}]', '+ 6 [6,"op",{"i":6}]',
        '+ 7 [7,"op",{"i":7}]', '+ 8 [8,"op",{"i":8}]']
    # a trace that stops early differs where it stops
    assert main(["diff", a, trace("short", events[:2])]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "first difference at event 2 (A: 10 events, B: 2)",
        '  0 [0,"op",{"i":0}]', '  1 [1,"op",{"i":1}]',
        '- 2 [2,"op",{"i":2}]', '- 3 [3,"op",{"i":3}]',
        '- 4 [4,"op",{"i":4}]', '- 5 [5,"op",{"i":5}]']


def test_diff_of_two_seeds_of_one_scenario(tmp_path, capsys):
    sc = small_yaml(tmp_path)
    paths = [str(tmp_path / f"{seed}.trace") for seed in (3, 4)]
    for seed, path in zip((3, 4), paths):
        main(["run", "--scenario", sc, "--seed", str(seed), "--trace", path])
    capsys.readouterr()
    assert main(["diff", paths[0], paths[0]]) == 0
    assert main(["diff", *paths]) == 1
    assert "first difference at event" in capsys.readouterr().out


def test_unknown_arguments_exit_with_usage_errors():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["check", "--trace", "x", "--property", "bogus"])
    assert e.value.code == 2
