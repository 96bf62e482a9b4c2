"""Self-test of the benchmark: smoke runs and a negative control.

    python3 perfbench/selftest.py

For each workload, a tiny op list runs untraced and traced; every metric
named in BENCHMARK.json must be printed with its unit, every op must pass
its check, the traced self times under cli.main must add up to its busy
time, and the layers the workload exercises must report calls. Then the same ops run with wrong expected answers fed to the checker,
which must report failures. Last, the benchmark must refuse to run, with a
non-zero exit and no result line, in a directory that holds only
BENCHMARK.json and the benchmark's own files. Exits 0 when all of it holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Layers each smoke op list must reach; a wrapper that calls escape would
# report 0 calls.
MUST_CALL = {
    "kset": ("feasibility.decide.calls",),
    "closure": ("semigroup.close.calls", "birkhoff.birkhoff_decomposition.calls"),
    "sampling": ("cftp.RngStream.substream.calls", "coupling.sample_image.explicit.calls",
                 "coupling.sample_image.block.calls"),
}


def run(*extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "1", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run("--workload", name, "--trace", str(trace), "--smoke")
            result = json.loads(lines[-1]) if code == 0 else {}
            if not result.get("correct"):
                problems.append(f"{name} trace {trace}: smoke run failed (exit {code})")
                continue
            printed = {m.group(1): m.group(2) for m in
                       (re.match(r"metric (\S+) = \S+ (\S+)$", l) for l in lines) if m}
            for metric in spec[group]:
                if printed.get(metric["name"]) != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} not printed in {metric['unit']}")
                if result["metrics"].get(metric["name"], {}).get("unit") != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} missing from the result line")
            if trace:
                m = next(re.match(r"self_s sum (\S+) s vs cli.main.busy_s (\S+) s", l) for l in lines
                         if l.startswith("self_s sum"))
                if abs(float(m.group(1)) - float(m.group(2))) > 1e-6:
                    problems.append(f"{name}: self_s under cli.main does not sum to its busy_s")
                for metric in MUST_CALL[name]:
                    if not result["metrics"].get(metric, {}).get("value"):
                        problems.append(f"{name}: traced run reports no {metric}")
            print(f"{name} trace {trace}: {len(printed)} metrics printed, "
                  f"{result['attempted']} ops, correct", flush=True)
        code, lines = run("--workload", name, "--smoke", "--wrong")
        result = json.loads(lines[-1]) if code == 0 else {}
        if code != 0 or result.get("correct") or not result.get("failed"):
            problems.append(f"{name}: wrong expected answers were not caught")
        else:
            print(f"{name} negative control: {result['failed']}/{result['attempted']} ops failed, "
                  "as they must", flush=True)
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run("--workload", "kset", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(l.startswith("{") for l in lines):
        problems.append("the benchmark ran in a directory without the package")
    else:
        print(f"bare directory: exit {code}, no result, as it must")
    for p in problems:
        print("PROBLEM " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
