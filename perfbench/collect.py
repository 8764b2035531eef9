"""Run the benchmark over several seeds and summarise it as one BENCH file.

    python3 perfbench/collect.py --out perfbench/baseline/BENCH_seed.json

For every workload it makes one untraced run on each of seeds 0-9 and one
traced run on seed 0, with the run length from BENCHMARK.json.  Per end-to-end
metric it reports every value, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(Q3 - Q1) / median against the metric's bound.  A performance change reports
two such files, from its parent and from itself, on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS, git_commit


SEEDS = range(10)
TRACE_SEED = 0


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=True)
    lines = done.stdout.strip().splitlines()
    prov = next(json.loads(x[len("provenance: "):]) for x in lines
                if x.startswith("provenance: "))
    return prov, json.loads(lines[-1])


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary = {"git_commit": git_commit(), "run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs, prov = [], None
        for seed in SEEDS:
            prov, result = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"provenance": prov, "runs": runs, "end_to_end": {}}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats.update(bound=bound, unit=runs[0]["metrics"][name]["unit"])
            entry["end_to_end"][name] = stats
            print(f"  {name:12s} median {stats['median']:.4f}  spread {stats['spread']:.4f}"
                  f"  bound {bound}  (third of bound {bound / 3:.4f})", flush=True)
        entry["all_correct"] = all(r["correct"] for r in runs)
        entry["failed"] = sum(r["failed"] for r in runs)
        entry["attempted"] = sum(r["attempted"] for r in runs)
        _, traced = run_once(workload, TRACE_SEED, seconds, 1)
        entry["per_layer"] = {"seed": TRACE_SEED, **traced}
        print(f"  traced seed {TRACE_SEED}: correct={traced['correct']}", flush=True)
        summary["workloads"][workload] = entry
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
