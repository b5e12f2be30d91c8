"""The chronokv CLI driven in-process."""

import json

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
    assert header["seed"] == 3 and header["interval_ms"] == 50
    assert len(lines) > 12


def test_run_seed_override_changes_the_run(tmp_path, capsys):
    sc = small_yaml(tmp_path)
    main(["run", "--scenario", sc])
    first = capsys.readouterr().out
    main(["run", "--scenario", sc, "--seed", "99"])
    second = capsys.readouterr().out
    assert json.loads(first)["seed"] == 3
    assert json.loads(second)["seed"] == 99


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
        json.dumps({"kind": "header", "schema": 2,
                    "interval_ms": 100, "epsilon_ns": 100000,
                    "data_nodes": ["d0.SH"], "replicas_of": {}}),
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
    trace = tmp_path / "headless.trace"
    trace.write_text("\n".join([
        json.dumps({"kind": "header", "schema": 2, "interval_ms": 100,
                    "epsilon_ns": 100000, "data_nodes": ["d0.SH"]}),
        json.dumps([1000, "txn_begin", {"txn": "c0.SH:1"}]),
    ]) + "\n")
    rc = main(["check", "--trace", str(trace)])
    assert rc == 2
    assert "'replicas_of'" in capsys.readouterr().err


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
