"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads kset closure sampling --seeds 1-10

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. --out writes the same summary, with
every run's values and the environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l[12:]) for l in lines if l.startswith("environment "))
    return dict(json.loads(lines[-1]), environment=env)


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=["kset", "closure", "sampling"])
    p.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,5,8")
    p.add_argument("--out", help="write the summary as JSON to this file")
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    summary = {"seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            result = run_once(workload, seed, spec["run_seconds"])
            result["run_wall_s"] = time.perf_counter() - t0
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} run {result['run_wall_s']:.1f}s {values}", flush=True)
        names = list(runs[0]["metrics"])
        stats = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names}
        for name, s in stats.items():
            flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {workload} {name}: median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"(bound {bounds[name]}, {flag})")
        summary["workloads"][workload] = {
            "metrics": stats,
            "runs": [{"seed": s, "correct": r["correct"], "failed": r["failed"],
                      "attempted": r["attempted"], "run_wall_s": r["run_wall_s"],
                      "values": {k: v["value"] for k, v in r["metrics"].items()}}
                     for s, r in zip(seeds, runs)],
        }
        summary["environment"] = runs[0]["environment"]
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
