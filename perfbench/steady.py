"""Steadiness mode: several sets of runs of the same code, spread per metric.

    python3 perfbench/steady.py --sets 2 --seeds 1-10
    python3 perfbench/steady.py --shares [--seeds 1]

Runs run.py once per (set, seed, workload) for every workload in
BENCHMARK.json and its `run_seconds`, seeds and workloads interleaved
so that slow drift of the machine lands on every workload alike. For each
set, workload and end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the distance between
the quartiles as a share of the median; then each later set's median shift
against the first, in the metric's worse direction. Both are checked
against the bounds in BENCHMARK.json. All results, with each run's round
times, are also written to `.perfbench_cache/steady.json`.

`--shares` instead makes one traced run per workload and prints each
layer's self time as a share of the median traced round.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    worker = ROOT / ".perfbench_cache" / f"out-{workload}" / "worker.json"
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            json.loads(worker.read_text(encoding="utf-8")))


def print_shares(workloads: list[str], seed: int, seconds: int) -> None:
    print("| layer | " + " | ".join(workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    table, walls, overhead = {}, {}, {}
    for workload in workloads:
        result, worker = _run(workload, seed, seconds, 1)
        wall = statistics.median(worker["traced_rounds"])
        walls[workload] = wall
        overhead[workload] = result["metrics"]["trace.overhead_s"]["value"]
        for name, metric in result["metrics"].items():
            if name.endswith(".self_s"):
                table.setdefault(name[: -len(".self_s")], {})[workload] = metric["value"] / wall
    for name, row in sorted(table.items(), key=lambda kv: -max(kv[1].values())):
        print(f"| {name} | " + " | ".join(f"{100 * row[w]:.1f}%" for w in workloads) + " |")
    print("| (not in a traced span) | " + " | ".join(
        f"{100 * (1 - sum(row[w] for row in table.values())):.1f}%" for w in workloads) + " |")
    print("| traced round wall | " + " | ".join(f"{walls[w]:.3f} s" for w in workloads) + " |")
    print("| trace.overhead_s | " + " | ".join(
        f"{overhead[w]:+.3f} s ({100 * overhead[w] / walls[w]:+.1f}%)" for w in workloads) + " |")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", default="1-10", help="LO-HI")
    parser.add_argument("--shares", action="store_true")
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    if args.shares:
        print_shares(workloads, _seeds(args.seeds)[0], seconds)
        return 0
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = []  # (set, workload, seed, result)
    for k in range(args.sets):
        for seed in _seeds(args.seeds):
            for workload in workloads:
                result, worker = _run(workload, seed, seconds, 0)
                result["rounds"] = worker["rounds"]
                runs.append((k, workload, seed, result))
                print(f"set {k} {workload} seed {seed}: " + " ".join(
                    f"{n}={v['value']:.4g}" for n, v in result["metrics"].items())
                    + f" correct={result['correct']} failed={result['failed']}/"
                    f"{result['attempted']}", file=sys.stderr, flush=True)

    ok = True
    print("| workload | metric | set | median | q1 | q3 | spread | bound | shift vs set 0 |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        for name, spec in metrics.items():
            first = None
            for k in range(args.sets):
                values = [r["metrics"][name]["value"] for s, w, _, r in runs
                          if s == k and w == workload]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                if first is None:
                    first, shift = med, 0.0
                else:
                    sign = 1.0 if spec["better"] == "lower" else -1.0
                    shift = sign * (med - first) / first
                bad = spread > spec["bound"] or shift > spec["bound"]
                ok &= not bad
                print(f"| {workload} | {name} | {k} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                      f"{spread:.3f} | {spec['bound']} | {shift:+.3f}{' FAIL' if bad else ''} |")
    for workload in workloads:
        shares = {k: sum(r["failed"] for s, w, _, r in runs if s == k and w == workload)
                  / sum(r["attempted"] for s, w, _, r in runs if s == k and w == workload)
                  for k in range(args.sets)}
        correct = all(r["correct"] for _, w, _, r in runs if w == workload)
        ok &= correct and len(set(shares.values())) == 1
        print(f"{workload}: failed share per set {shares}, all correct {correct}")
    (ROOT / ".perfbench_cache").mkdir(exist_ok=True)
    (ROOT / ".perfbench_cache" / "steady.json").write_text(
        json.dumps([{"set": k, "workload": w, "seed": s, "result": r} for k, w, s, r in runs]),
        encoding="utf-8")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
