"""chronokv benchmark: run one named workload at one seed and report.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0

Each pass runs the whole workload in a fresh process (``one_pass.py``);
passes repeat until ``--seconds`` have gone by, and at least
``MIN_PASSES`` times. Host figures carry the unit ``s`` or ``MB``:
``run_s`` and ``check_s`` add up the fastest pass of each slice of the
work, ``setup_s`` is the median over 20 repeated constructions of each
one's fastest pass (see ``aggregate``), and ``peak_rss_mb`` is the
median over passes. Every other
figure is a count or a virtual-time value and must repeat exactly from
pass to pass, as must the SHA-256 of the trace; if either does not, the
run is reported as incorrect.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with
virtual figures over VIRTUAL_SEEDS seeds; ``--trace 1`` first
makes one untraced pass, then traced passes, and reports the per-layer
metrics, including the tracing overhead (traced minus untraced
``run_s``) and the host time no module accounts for. A traced pass must
reproduce the untraced pass's trace digest.

Readable lines come first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
PASS_TIMEOUT_S = 120
# An untraced run also makes one pass at each of seed + k * SEED_STRIDE,
# k = 1 .. VIRTUAL_SEEDS - 1, and reports virtual metrics over all those
# seeds: repeating a seed adds nothing to a virtual figure, and steady's
# abort_rate (about 66 aborts in 3000 transactions) needs more
# transactions than one seed has to be steady from seed to seed.
VIRTUAL_SEEDS = 4
SEED_STRIDE = 1_000_000


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def one_pass(workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"pass exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def is_host(triple) -> bool:
    return triple[1] in ("s", "MB")


# How a sliced host metric combines its slices' fastest passes: the run
# and the checks are sums of consecutive slices; set-up slices are 20
# repeats of the same construction.
SLICE_TOTAL = {"run_s": sum, "check_s": sum, "setup_s": statistics.median}


def aggregate(passes: list) -> tuple:
    """Host metrics over the passes, exact metrics from the first pass, and
    the names of exact metrics that differed between passes.

    A host metric timed in slices takes each slice's fastest pass, then
    combines them by SLICE_TOTAL: every pass does the same work slice by
    slice, and other tenants of the machine only ever add time to a
    slice. Other host metrics are medians over the passes."""
    first = passes[0]["metrics"]
    merged, unstable = {}, []
    for name, triple in first.items():
        values = [p["metrics"][name][0] for p in passes]
        if name in passes[0]["slices"]:
            slices = [p["slices"][name] for p in passes]
            if len({len(s) for s in slices}) != 1:
                unstable.append(name)
                continue
            fastest = [min(times) for times in zip(*slices)]
            merged[name] = [SLICE_TOTAL[name](fastest) / 1e9, triple[1],
                            len(values)]
        elif is_host(triple):
            merged[name] = [statistics.median(values), triple[1], len(values)]
        else:
            merged[name] = triple
            if any(v != values[0] for v in values):
                unstable.append(name)
    return merged, unstable


def pool(merged: dict, others: list) -> None:
    """Fold other seeds' exact metrics into ``merged``: counts add up,
    every other exact figure is the mean over the seeds."""
    for name, (value, unit, samples) in merged.items():
        if is_host((value, unit)) or any(name not in o for o in others):
            continue
        values = [value] + [o[name][0] for o in others]
        total = sum(values)
        if samples is not None:
            samples += sum(o[name][2] for o in others)
        merged[name] = [total if unit == "count" else total / len(values),
                        unit, samples]


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = WORKLOADS[workload]
    deadline = time.monotonic() + seconds
    extra_seeds = [seed] if traced else \
        [seed + k * SEED_STRIDE for k in range(1, VIRTUAL_SEEDS)]
    extras = [one_pass(workload, s, False) for s in extra_seeds]
    passes = []
    while len(passes) < MIN_PASSES or time.monotonic() < deadline:
        passes.append(one_pass(workload, seed, traced))
    merged, unstable = aggregate(passes)
    digests = {p["digest"] for p in passes}
    violated = set(passes[0]["violated"])
    refused = set(passes[0]["refused"])
    if traced:
        (untraced,) = extras  # at the same seed
        digests.add(untraced["digest"])
        merged["trace.overhead_s"] = [
            statistics.median(p["metrics"]["run_s"][0] for p in passes)
            - untraced["metrics"]["run_s"][0], "s", len(passes)]
    else:
        pool(merged, [e["metrics"] for e in extras])
        for e in extras:
            violated |= set(e["violated"])
            refused |= set(e["refused"])
        merged["checks_failed"] = [len(violated), "count", None]
    violated = sorted(violated)
    unexpected = sorted(set(violated) - wl.known_violations)
    return {
        "metrics": merged,
        "extra": " ".join(f"{s}:{e['digest'][:16]}"
                          for s, e in zip(extra_seeds, extras)),
        "refused": sorted(refused),
        "violated": violated,
        "unexpected": unexpected,
        "unstable": unstable,
        "digests": sorted(digests),
        "passes": len(passes),
        "run_s_per_pass": [p["metrics"]["run_s"][0] for p in passes],
        "correct": not unstable and len(digests) == 1 and not unexpected,
    }


def render(workload: str, seed: int, out: dict, wanted: list) -> list:
    """Readable report lines, then the JSON result line."""
    m = out["metrics"]
    lines = [f"# workload={workload} seed={seed} passes={out['passes']} "
             f"trace_sha256={','.join(out['digests'])}",
             f"# untraced passes, seed:sha256 {out['extra']}",
             "# run_s per pass: " + " ".join(
                 f"{v:.3f}" for v in out["run_s_per_pass"])]
    for name, (value, unit, samples) in m.items():
        n = "" if samples is None else f"  n={samples}"
        lines.append(f"{name:34s} {value:>14.6g} {unit}{n}")
    for name in out["refused"]:
        lines.append(f"{name:34s} refused: fewer than 10 samples beyond it")
    lines.append("# violated: " + (", ".join(out["violated"]) or "none")
                 + (f" (unexpected: {', '.join(out['unexpected'])})"
                    if out["unexpected"] else ""))
    if out["unstable"]:
        lines.append("# not repeated exactly across passes: "
                     + ", ".join(out["unstable"]))
    missing = [w for w in wanted if w not in m]
    if missing:
        raise SystemExit(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": out["correct"],
        "attempted": m["ops_total"][0],
        "failed": m["ops_failed"][0],
        "metrics": {w: {"value": m[w][0], "unit": m[w][1]} for w in wanted},
    }
    lines.append(json.dumps(result))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="default: the workload's default seed")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = load_spec()
    seed = args.seed if args.seed is not None else \
        WORKLOADS[args.workload].default_seed
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out = run(args.workload, seed, seconds, bool(args.trace))
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print("\n".join(render(args.workload, seed, out, wanted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
