#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each metric is.

    python3 perfbench/steadiness.py [--runs 10] [--seconds S] [--json out.json]

Runs two sets of --runs runs of every workload in BENCHMARK.json, each
run of a set with its own seed (seeds 1 to --runs, the same in both
sets and for every workload), alternating the workload order from
pass to pass. For every end-to-end metric and set it prints the
median, the first and third quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median, and how far the second set's
median moved from the first's in the metric's worse direction, next
to the metric's bound. `!` marks a spread or a move above the bound,
`~` one above a third of it. It then makes one traced run per
workload on seed 1, checks that it made the same decisions as the
untraced run of that seed, and prints the tracing overhead on
windows_per_s. Every report is stamped with the build type, pool
threads, hardware_concurrency and commit; a non-Release build is
refused. Exits non-zero when a run fails its checks, the failed share
differs between the sets, or a traced run decides otherwise.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SETS = 2


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"steadiness: {workload} seed {seed} exited "
                 f"{done.returncode}")
    lines = done.stdout.strip().splitlines()
    prefixed = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(": ")
        if key in ("stamp", "decisions"):
            prefixed[key] = json.loads(rest)
    result = json.loads(lines[-1])
    if prefixed.get("stamp", {}).get("build_type") != "Release":
        sys.exit("steadiness: refusing a non-Release build: "
                 f"{prefixed.get('stamp')}")
    return result, prefixed["stamp"], prefixed.get("decisions", {})


def commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return done.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def flag(value, bound):
    return " !" if value > bound else (" ~" if value > bound / 3 else "")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--json", help="also write the report here")
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    # values[set][workload][metric] -> one value per seed.
    values = [{w: {} for w in workloads} for _ in range(SETS)]
    failed_share = [{w: set() for w in workloads} for _ in range(SETS)]
    decisions = {}
    problems = []
    stamp = None
    for s in range(SETS):
        for i in range(args.runs):
            seed = 1 + i
            order = workloads if i % 2 == 0 else list(reversed(workloads))
            for w in order:
                result, stamp, dec = run_once(w, seed, args.seconds, 0)
                if not result["correct"]:
                    problems.append(f"{w} seed {seed} failed its checks")
                failed_share[s][w].add(result["failed"] /
                                       result["attempted"])
                if s == 0 and i == 0:
                    decisions[w] = dec
                for name, m in result["metrics"].items():
                    values[s][w].setdefault(name, []).append(m["value"])
                print(f"  set {s + 1} run {i + 1}/{args.runs} {w} seed "
                      f"{seed}: attempted {result['attempted']}",
                      file=sys.stderr)

    report = {"stamp": dict(stamp, commit=commit(), runs=args.runs,
                            seconds=args.seconds, sets=SETS),
              "workloads": {}}
    print("stamp:", json.dumps(report["stamp"]))
    for w in workloads:
        shares = [sorted(f[w]) for f in failed_share]
        if any(sh != shares[0] for sh in shares):
            problems.append(f"{w}: failed share differs between sets: "
                            f"{shares}")
        print(f"\n{w}  (failed share per run, per set: {shares})")
        print(f"  {'metric':<16}{'set':>4}{'median':>14}{'q1':>14}"
              f"{'q3':>14}{'spread':>9}{'moved':>9}{'bound':>7}")
        rows = {}
        for name, m in metrics.items():
            bound = m["bound"]
            sets = []
            first_med = None
            for s in range(SETS):
                med, q1, q3, rel = spread(values[s][w][name])
                if first_med is None:
                    first_med, moved = med, 0.0
                else:
                    delta = (med - first_med) / first_med if first_med \
                        else float("inf")
                    moved = delta if m["better"] == "lower" else -delta
                print(f"  {name:<16}{s + 1:>4}{med:>14.6g}{q1:>14.6g}"
                      f"{q3:>14.6g}{rel:>9.4f}{moved:>9.4f}{bound:>7}"
                      f"{flag(max(rel, moved), bound)}")
                sets.append({"median": med, "q1": q1, "q3": q3,
                             "spread": rel, "moved": moved,
                             "values": values[s][w][name]})
            rows[name] = sets
        report["workloads"][w] = {"metrics": rows}

    print("\ntraced runs (seed 1):")
    for w in workloads:
        result, _, dec = run_once(w, 1, args.seconds, 1)
        traced = result["metrics"]["trace.windows_per_s"]["value"]
        untraced = values[0][w]["windows_per_s"][0]
        same = dec == decisions[w]
        overhead = 1.0 - traced / untraced if untraced else 0.0
        print(f"  {w}: same decisions: {same}; windows_per_s traced "
              f"{traced:.6g} vs untraced {untraced:.6g} "
              f"(overhead {100 * overhead:.1f}%)")
        report["workloads"][w]["trace"] = {
            "same_decisions": same, "windows_per_s": traced,
            "overhead": overhead,
            "per_layer": {k: v["value"]
                          for k, v in result["metrics"].items()}}
        if not same:
            problems.append(f"traced {w} made other decisions: {dec} vs "
                            f"{decisions[w]}")

    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(report, indent=1))
    if problems:
        sys.exit("steadiness: " + "; ".join(problems))


if __name__ == "__main__":
    main()
