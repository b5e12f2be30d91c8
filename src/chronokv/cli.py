"""Command-line front end: run scenarios, check their traces and
compare two of them.

The header of a trace that ``run --trace`` writes is
``{"scenario": <the mapping that ran>, "end_ns": <the run's end>}``,
where the mapping is the scenario file's with ``--seed`` and
``--until-ms`` applied. So every trace names a scenario that can be run
again, and ``check`` derives what it needs of the run from it as the
run did.

Input that a command cannot read (a missing file, a scenario with an
unknown key or a value of the wrong type, a trace that is empty, of
another schema, whose header lacks its scenario or end or holds a
scenario that ``run`` would refuse, or with a line that is no event)
exits 2 with one line on stderr that names the file and the reason, so
that exit 1 keeps its meaning: ``check`` found a violation, or ``diff``
found a difference. ``run``'s ``--seed`` and ``--until-ms`` are checked
as the scenario's own values are."""

from __future__ import annotations

import argparse
import json
import sys

MS = 1_000_000


class Unreadable(Exception):
    """An input file that a command cannot read; ``main`` exits 2."""


def _read(path: str, load):
    """``load(path)``, raising what reading ``path``, a file or the
    options it names, fails with as ``Unreadable``."""
    import yaml

    try:
        return load(path)
    except (OSError, ValueError, yaml.YAMLError) as e:
        reason = e.strerror if isinstance(e, OSError) and e.strerror else e
        raise Unreadable(f"{path}: {reason}") from e


def _cmd_run(args) -> int:
    from . import metrics
    from .cluster import run_scenario
    from .history import write_trace
    from .scenario import read_scenario, scenario_from_dict

    d = {}
    if args.scenario:
        d = _read(args.scenario, read_scenario)
        _read(args.scenario, lambda _path: scenario_from_dict(d))
    d.update((k, v) for k, v in (("seed", args.seed),
                                 ("duration_ms", args.until_ms))
             if v is not None)
    sc = _read("--seed/--until-ms", lambda _options: scenario_from_dict(d))
    result = run_scenario(sc)
    if args.trace:
        write_trace(args.trace, result.trace,
                    meta={"scenario": d, "end_ns": result.end_ns})
    summary = metrics.run_summary(result)
    json.dump(summary, sys.stdout, indent=2, default=str)
    print()
    if args.trace:
        print(f"trace written to {args.trace} "
              f"({len(result.trace)} events)", file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    """Check a trace that ``run --trace`` wrote. The scenario in its
    header gives the epoch interval, epsilon and the topology, and the
    header gives the run's end, so the checks judge the trace as they do
    in process and visibility is measured as in ``run``."""
    from . import checkers, metrics
    from .cluster import Router
    from .history import build_history, read_trace
    from .scenario import check_fields, scenario_from_dict

    meta, events = _read(args.trace, read_trace)
    h = _read(args.trace, lambda _path: build_history(events))
    header = {"scenario": "dict", "end_ns": "int"}
    _read(args.trace, lambda _path: check_fields(meta, header, "trace header",
                                                 required=header))
    sc = _read(args.trace, lambda _path: scenario_from_dict(meta["scenario"]))

    verdicts = []
    if args.property != "visibility":
        verdicts = checkers.run_all_checks(
            h, sc.interval_ns, sc.epsilon_ns, end_ns=meta["end_ns"],
            group=None if args.property == "all" else args.property)
    for v in verdicts:
        print(v.summary())

    if args.property in ("all", "visibility"):
        vis = metrics.measure_visibility(
            h, replicas_of=sc.replica_ids(),
            written_primaries=Router(sc.data_node_ids()).written_primaries,
            interval_ns=sc.interval_ns)
        print("visibility: " + json.dumps(vis["summary"]))
        if args.csv:
            with open(args.csv, "w") as out:
                out.write("commit_ms,delay_ms\n")
                for t, d in vis["series"]:
                    out.write(f"{t / MS:.3f},{d / MS:.3f}\n")

    return 0 if all(verdicts) else 1


#: events ``diff`` shows on each side of the first difference
DIFF_CONTEXT = 3


def _cmd_diff(args) -> int:
    """Print the first event at which two traces that ``run --trace``
    wrote differ: ``DIFF_CONTEXT`` events before it, which both share,
    then that many after it from each, ``-`` for A and ``+`` for B.
    Headers are not compared. Exits 0 if the events are identical, else
    1."""
    from .history import read_trace

    _, a = _read(args.a, read_trace)
    _, b = _read(args.b, read_trace)
    first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                 min(len(a), len(b)))
    if first == len(a) == len(b):
        print(f"identical: {len(a)} events")
        return 0
    print(f"first difference at event {first} "
          f"(A: {len(a)} events, B: {len(b)})")

    def show(mark, events, lo, hi):
        for i in range(max(lo, 0), min(hi, len(events))):
            print(f"{mark} {i} " + json.dumps(list(events[i]),
                                              separators=(",", ":")))

    show(" ", a, first - DIFF_CONTEXT, first)
    show("-", a, first, first + DIFF_CONTEXT + 1)
    show("+", b, first, first + DIFF_CONTEXT + 1)
    return 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chronokv",
        description="Simulated multi-region transactional KV store")
    sub = p.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="run a scenario")
    run.add_argument("--scenario", help="scenario YAML (default: built-in)")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--until-ms", type=int, default=None,
                     help="override run duration (virtual ms)")
    run.add_argument("--trace", help="write the event trace as JSONL")
    run.set_defaults(fn=_cmd_run)

    check = sub.add_parser("check", help="verify properties on a trace")
    check.add_argument("--trace", required=True)
    check.add_argument("--property", default="all",
                       choices=["all", "ss", "replica", "visibility"])
    check.add_argument("--csv", help="dump the visibility series as CSV")
    check.set_defaults(fn=_cmd_check)

    diff = sub.add_parser("diff", help="the first event two traces differ at")
    diff.add_argument("a", help="a trace that run --trace wrote")
    diff.add_argument("b", help="another")
    diff.set_defaults(fn=_cmd_diff)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Unreadable as e:
        print(f"chronokv {args.cmd}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
