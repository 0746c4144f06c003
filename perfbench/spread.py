"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads mc_n12,mc_n24 --seeds 1-10 [--trace 1]

Each run is a separate ``python3 perfbench/run.py`` process, as the benchmark
is meant to be run. For every workload and metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the distance between
them as a share of the median, next to a third of the metric's bound from
BENCHMARK.json, and marks metrics that read the same in every run (repeat a
seed, e.g. ``--seeds 7,7,7``, to check that the counts repeat exactly). Raw results go to ``perfbench/out/spread-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run
from record_reference import _seed_list


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {}
    for name in args.workloads.split(","):
        runs = results[name] = []
        for seed in _seed_list(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"seed": seed, "rc": proc.returncode, "elapsed": elapsed,
                         "result": result, "stdout": lines[:-1],
                         "stderr": proc.stderr[-2000:]})
            status = "ok" if result and result["correct"] else f"FAILED rc={proc.returncode}"
            print(f"{name} seed={seed} {elapsed:.1f}s {status}", flush=True)
            if not result:
                print(proc.stderr[-2000:], file=sys.stderr)

    for name, runs in results.items():
        good = [r["result"] for r in runs if r["result"]]
        if not good:
            continue
        print(f"\n{name}: {len(good)}/{len(runs)} runs, run time "
              f"{statistics.median(r['elapsed'] for r in runs):.1f}s median")
        for metric in good[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in good]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            limit = f" bound/3={bound / 3:.4f}" if bound else ""
            same = " identical in every run" if len(set(values)) == 1 else ""
            print(f"  {metric:40s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f}{limit}{same}")
    for name, runs in results.items():
        for r in runs:
            metrics = (r["result"] or {}).get("metrics", {})
            if "trace.wall_s" not in metrics:
                continue
            wall = metrics["trace.wall_s"]["value"]
            shares = {m[:-len(".self_s")]: v["value"] / wall
                      for m, v in metrics.items() if m.endswith(".self_s")}
            print(f"{name} seed={r['seed']} layer shares of traced wall_s: "
                  + " ".join(f"{k}={v:.1%}" for k, v in shares.items()))
    out = run.OUT / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    run.OUT.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"\nraw results: {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
