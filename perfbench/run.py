"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload {train,align,score} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. Inputs are generated from the seed into
`.perfbench_cache/` (ignored by git) and reused by later runs of the same
seed. The program is imported from the checkout's `src/` in fresh worker
processes with single-threaded BLAS:

- set-up probes: SETUP_PROBES workers that stop once set-up is done; with
  the measured worker's own set-up they give the median `setup_s`;
- the measured worker: whole rounds for S seconds, then the checks.

With `--trace 0` the last line holds the end-to-end metrics, with
`--trace 1` the per-layer split of a traced run (see tracing.py) and the
tracing overhead against untraced rounds of the same process.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
CACHE = ROOT / ".perfbench_cache"
SETUP_PROBES = 6
WORKLOADS = ("train", "align", "score")


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _start_worker(args, inputs: Path, setup_only: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--inputs", str(inputs), "--scratch", str(CACHE / f"out-{args.workload}"),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            text=True)
    first = proc.stdout.readline()
    ready = time.perf_counter() - start
    if first.strip() != "READY":
        proc.stdout.close()
        proc.wait()
        raise SystemExit(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def _finish(proc) -> str:
    out = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0:
        raise SystemExit(f"worker exited {proc.returncode}")
    return out.strip().splitlines()[-1] if out.strip() else ""


def _median_of(layers, key, name):
    return statistics.median(layer[key].get(name, 0) for layer in layers)


def _layer_metrics(result: dict) -> dict:
    """Per-round medians of the traced rounds' layer split."""
    from tracing import TRACED, edit_cells, lattice_cells

    layers = result["layers"]
    metrics = {}
    for name, counter in TRACED.items():
        metrics[f"{name}.self_s"] = (_median_of(layers, "self_s", name), "s")
        if counter in (lattice_cells, edit_cells):
            metrics[f"{name}.cells"] = (int(_median_of(layers, "work", name)), "count")
    forwards = _median_of(layers, "calls", "synth.model_forward")
    backwards = _median_of(layers, "calls", "synth.model_backward")
    metrics["synth.model_forward.calls"] = (int(forwards), "count")
    # a training forward is the one whose cache a backward consumes
    metrics["synth.forward_useful_ratio"] = (backwards / forwards if forwards else 0.0, "ratio")
    decode_s = _median_of(layers, "self_s", "dataio.iter_logits_jsonl")
    decode_mb = _median_of(layers, "work", "dataio.iter_logits_jsonl") / 1e6
    metrics["dataio.iter_logits_jsonl.mb_per_s"] = (decode_mb / decode_s if decode_s else 0.0,
                                                    "MB/s")
    metrics["trace.overhead_s"] = (statistics.median(
        traced - plain for traced, plain in zip(result["traced_rounds"], result["rounds"])), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "ctctiming" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'ctctiming'} is missing; "
              "run from the root of a ctctiming checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import gen

    inputs = gen.ensure_inputs(CACHE, args.workload, args.seed)

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, ready = _start_worker(args, inputs, setup_only=True)
            setup.append(ready)
            _finish(proc)
    proc, ready = _start_worker(args, inputs, setup_only=False)
    setup.append(ready)
    raw = _finish(proc)
    (CACHE / f"out-{args.workload}" / "worker.json").write_text(raw, encoding="utf-8")
    result = json.loads(raw)
    if not Path(result["program"]).is_relative_to(ROOT / "src"):
        raise SystemExit(f"measured {result['program']}, not the checkout's src/")

    ops = result["ops_per_round"]
    n_rounds = len(result["rounds"]) + len(result["traced_rounds"]) + result["failed_rounds"]
    attempted = ops * n_rounds
    failed = ops * result["failed_rounds"]
    if result["failed_rounds"]:
        metrics = {}
    elif args.trace:
        metrics = _layer_metrics(result)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            # whole rounds' audio over their whole wall time: the machine's speed
            # drifts in phases of seconds, which a median of rounds follows
            "audio_s_per_s": (result["audio_s_per_round"] * len(result["rounds"])
                              / sum(result["rounds"]), "s/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    if "contrast" in result:
        c = result["contrast"]
        print("label-prior contrast (not checked: lower blank occupancy and higher %WS<80 "
              f"expected under the prior): peaky blank_occupancy "
              f"{c['peaky']['blank_occupancy']:.3f} pct_ws_80 {c['peaky']['pct_ws_80']:.1f}; "
              f"label prior blank_occupancy {c['label_prior']['blank_occupancy']:.3f} "
              f"pct_ws_80 {c['label_prior']['pct_ws_80']:.1f}; holds: {c['holds']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
