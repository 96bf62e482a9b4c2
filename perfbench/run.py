"""Benchmark for the coalesce CLI: one closed-loop caller, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kset --seed 1 --seconds 20 --trace 0

Each op is one `coalesce` CLI command, called in-process through
coalesce.cli.main with --format json and its output captured. The worker
cycles through the workload's fixed op list until --seconds have passed and
at least one full pass is done; every op's output is checked outside the
timed region. With --trace 0 the last line of stdout is a JSON object with
the end-to-end metrics; with --trace 1 every op also runs a second time with
spans around the package's public functions, and the per-layer metrics are
reported instead. Set-up time is measured on separate short-lived processes
that import, generate the inputs and run one warm-up op, plus the worker,
and rescaled by bare-interpreter null probes run between them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10
# Median time of one calibration_chunk() at the reference machine speed.
# Timed metrics are rescaled by nominal / measured median chunk time, which
# cancels most of the drift in speed that a shared machine shows over
# minutes (see README.md).
CALIBRATION_NOMINAL_S = 0.009
CHUNK_EVERY_S = 0.5
# Set-up is mostly interpreter start and imports, whose cost on a shared
# machine drifts apart from that of the calibration chunks. So setup_s is
# rescaled by a null probe instead: a bare interpreter that imports the
# standard-library modules the package and the benchmark use, and nothing of
# the package. NULL_PROBE_NOMINAL_S is its start-to-ready time at the
# reference machine speed.
NULL_PROBE = ("import argparse, bisect, collections, dataclasses, fractions, functools, hashlib, "
              "itertools, json, math, pathlib, random, secrets, typing; print('READY', flush=True)")
NULL_PROBE_NOMINAL_S = 0.05

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    spec = [
        ("feasibility.SupportTester", "calls busy_s"),
        ("feasibility.decide", "calls busy_s feasible feasible_ratio"),
        ("feasibility.witness", "calls busy_s"),
        ("kset.k_set_report", "calls busy_s self_s"),
        ("kset.allowed_functions", "busy_s"),
        ("kset", "subsets_enumerated lp_decided cover_skipped pruned"),
        ("semigroup.coalescence_number", "calls busy_s"),
        ("semigroup.coalescing_pairs", "calls busy_s"),
        ("semigroup.limiting_partitions", "calls busy_s self_s"),
        ("semigroup.close", "calls busy_s elements"),
        ("coupling.expand_support", "calls busy_s functions"),
        ("coupling.sample_image.explicit", "calls busy_s"),
        ("coupling.sample_image.block", "calls busy_s"),
        ("coupling.parse_coupling", "busy_s"),
        ("coupling.serialize_coupling", "busy_s"),
        ("cftp.sample_counts", "calls busy_s"),
        ("cftp.cftp_sample", "calls busy_s self_s did_not_coalesce"),
        ("cftp.RngStream.substream", "calls busy_s"),
        ("cftp", "draws_per_sample"),
        ("cftp.backward_record", "calls busy_s self_s"),
        ("cftp.forward_record", "calls busy_s self_s"),
        ("cftp.provably_never_coalesces", "busy_s"),
        ("cftp.equidistribution_report", "busy_s"),
        ("birkhoff.birkhoff_decomposition", "calls busy_s"),
        ("birkhoff", "terms"),
        ("blocks.check_lumpability", "busy_s"),
        ("blocks.construct_block_measure", "busy_s"),
        ("blocks.is_block_measure", "calls busy_s"),
        ("matrix.parse_matrix", "busy_s"),
        ("matrix.invariant_distribution", "calls busy_s"),
        ("cli.main", "calls busy_s self_s"),
        ("trace", "overhead_ratio"),
    ]
    units = {"busy_s": "s", "self_s": "s", "feasible_ratio": "ratio", "overhead_ratio": "ratio",
             "draws_per_sample": "draws/sample"}
    return [(f"{prefix}.{stat}", units.get(stat, "count")) for prefix, stats in spec for stat in stats.split()]


# --- worker side -------------------------------------------------------------


def calibration_chunk() -> float:
    """Seconds taken by a fixed slice of package-independent Python work of
    the kinds the package does: Fraction arithmetic, tuple composition, set
    membership, hash-seeded generators."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = set()
    t = tuple(range(6))
    g, h = (1, 2, 3, 4, 5, 0), (0, 0, 2, 3, 4, 5)
    for i in range(500):
        acc += Fraction(i + 1, i + 3) * Fraction(2, 7)
        t = tuple((h if i % 3 else g)[v] for v in t)
        seen.add((t, i % 50))
        digest = hashlib.blake2b(repr((i, t)).encode(), digest_size=16).digest()
        random.Random(int.from_bytes(digest, "big")).random()
    return time.perf_counter() - t0


def _import_package():
    src = ROOT / "src"
    if not (src / "coalesce" / "__init__.py").is_file():
        raise SystemExit(f"error: no coalesce package under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import coalesce
    import coalesce.cli

    if Path(coalesce.__file__).resolve().parent != (src / "coalesce").resolve():
        raise SystemExit(f"error: imported coalesce from {coalesce.__file__}, not from {src}")
    return coalesce


def _run_op(cli, argv):
    """(exit code, stdout, error text, wall s, cpu s) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
        error = err.getvalue().strip()
    except Exception:
        code = -1
        error = traceback.format_exc(limit=3)
    t1 = time.perf_counter()
    c1 = time.process_time()
    return code, out.getvalue(), error, t1 - t0, c1 - c0


def _prepare(args, workdir: Path):
    coalesce = _import_package()
    import inputs

    ops, warmup = inputs.build_ops(args.workload, args.seed, workdir, args.smoke, args.wrong)
    code, _, error, _, _ = _run_op(coalesce.cli, warmup.argv)
    if code != 0:
        raise SystemExit(f"error: warm-up op {warmup.label} exited {code}: {error}")
    return coalesce, ops


def _environment(coalesce, workload: str, seed: int) -> dict:
    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload": workload,
        "seed": seed,
        "package_version": coalesce.__version__,
    }


def _tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with TAIL_BEYOND values
    beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def _per_layer(passes: dict[str, float], wall_s: float, traced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric, per pass of the op list."""
    out = {name: passes.get(name, 0) for name, _ in per_layer_metrics()}
    decided = passes.get("feasibility.decide.calls", 0)
    out["feasibility.decide.feasible_ratio"] = (
        passes.get("feasibility.decide.feasible", 0) / decided if decided else 0.0
    )
    samples = passes.get("cftp.cftp_sample.calls", 0)
    out["cftp.draws_per_sample"] = passes.get("cftp.draws_in_sample", 0) / samples if samples else 0.0
    out["trace.overhead_ratio"] = traced_wall_s / wall_s - 1
    return out


def _claims(workload: str, passes: dict[str, float]) -> list[dict]:
    """The profile claims made for the seed code, checked on their workload."""
    main = passes.get("cli.main.busy_s", 0.0)
    if workload == "kset":
        share = sum(passes.get(f"feasibility.{n}.busy_s", 0.0)
                    for n in ("SupportTester", "decide", "witness")) / main
        return [{"claim": "feasibility accounts for most of kset wall time",
                 "measured": share, "holds": share > 0.5}]
    if workload == "sampling":
        busy = passes.get("cftp.cftp_sample.busy_s", 0.0)
        share = passes.get("cftp.substream_in_sample_s", 0.0) / busy if busy else 0.0
        return [{"claim": "RngStream.substream is about 70% of cftp_sample busy time",
                 "measured": share, "holds": 0.6 <= share <= 0.8}]
    share = passes.get("semigroup.limiting_partitions.busy_s", 0.0) / main
    return [{"claim": "limiting_partitions dominates closure wall time",
             "measured": share, "holds": share > 0.5}]


def worker(args) -> int:
    workdir = OUT / f"work-{os.getpid()}"
    try:
        coalesce, ops = _prepare(args, workdir)
        print("READY", flush=True)
        result = _measure(coalesce, ops, args)
        result["environment"] = _environment(coalesce, args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _measure(coalesce, ops, args) -> dict:
    import checks

    cli = coalesce.cli
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    n = len(ops)
    runs: list[list[tuple[float, float]]] = [[] for _ in ops]
    traced_runs: list[list[float]] = [[] for _ in ops]
    layer_runs: list[list[dict]] = [[] for _ in ops]
    verdicts: dict[tuple[int, int, str], list[str]] = {}
    failures: list[dict] = []
    attempted = 0

    def execute(i: int, traced: bool) -> tuple[float, float]:
        nonlocal attempted
        op = ops[i]
        gc.collect()
        if traced:
            first = tracer.mark()
            tracer.op = i
            tracer.active = True
        code, stdout, error, wall, cpu = _run_op(cli, op.argv)
        if traced:
            tracer.active = False
            stats = tracer.stats_since(first)
            if layer_runs[i]:  # keep the spans of each op's first traced run only
                tracer.drop_since(first)
            if op.check == "kset" and code == 0:
                for key, value in json.loads(stdout)["stats"].items():
                    stats[f"kset.{key}"] = value
            layer_runs[i].append(stats)
        # Calibrate in proportion to the time just spent, so long ops weigh
        # as much in the machine-speed estimate as they do in the metrics, on
        # a heap the op's leftover garbage no longer shapes.
        gc.collect()
        chunks.extend(calibration_chunk() for _ in range(1 + int(wall / CHUNK_EVERY_S)))
        attempted += 1
        key = (i, code, stdout)
        if key not in verdicts:
            verdicts[key] = [error] if error else checks.check(op, code, stdout)
        if verdicts[key]:
            failures.append({"op": op.label, "argv": op.argv, "problems": verdicts[key]})
        return wall, cpu

    chunks = [calibration_chunk() for _ in range(5)]
    start = time.perf_counter()
    done = 0
    while done < n or time.perf_counter() - start < args.seconds:
        i = done % n
        if tracer and (done // n) % 2:  # alternate which of the pair runs first
            traced_runs[i].append(execute(i, True)[0])
            runs[i].append(execute(i, False))
        else:
            runs[i].append(execute(i, False))
            if tracer:
                traced_runs[i].append(execute(i, True)[0])
        done += 1
    if tracer:
        tracer.uninstall()

    walls = [statistics.median(w for w, _ in r) for r in runs if r]
    cpus = [statistics.median(c for _, c in r) for r in runs if r]
    q, tail = _tail(walls)
    raw = {
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "op_p50_ms": 1000 * statistics.median(walls),
        "op_tail_ms": 1000 * tail,
    }
    slowdown = statistics.median(chunks) / CALIBRATION_NOMINAL_S
    e2e = {k: v / slowdown for k, v in raw.items()}
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "ops": n,
        "executions": done,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "tail_percentile": q,
        "end_to_end": e2e,
        "raw_end_to_end": raw,
        "slowdown": slowdown,
        "op_median_ms": {op.label: 1000 * w for op, w in zip(ops, walls)},
    }
    if tracer:
        passes: dict[str, float] = {}
        for per_op in layer_runs:
            for key in {k for stats in per_op for k in stats}:
                passes[key] = passes.get(key, 0) + statistics.fmean(s.get(key, 0) for s in per_op)
        traced_wall = sum(statistics.median(r) for r in traced_runs)
        result["per_layer"] = _per_layer(passes, raw["wall_s"], traced_wall)
        self_sum = sum(v for k, v in passes.items() if k.endswith(".self_s"))
        result["self_sum_check"] = {"sum_self_s": self_sum, "cli.main.busy_s": passes.get("cli.main.busy_s", 0.0)}
        result["claims"] = _claims(args.workload, passes)
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        result["spans_written"] = tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def probe(args) -> int:
    """Set-up only: import, inputs, warm-up op; then report ready and exit."""
    workdir = OUT / f"work-{os.getpid()}"
    try:
        _prepare(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("READY", flush=True)
    return 0


# --- parent side -------------------------------------------------------------


def _read_lines(stream, lines: list[tuple[float, str]]) -> None:
    for line in stream:
        lines.append((time.perf_counter(), line))


def _role(role: str, args) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + ["--smoke"] * args.smoke + ["--wrong"] * args.wrong


def _spawn(role: str, cmd: list[str], deadline: float):
    """Start a child; return (seconds until it printed READY, its other stdout
    lines). A child still running at the deadline is killed and the run fails."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timed: list[tuple[float, str]] = []
    reader = threading.Thread(target=_read_lines, args=(proc.stdout, timed))
    reader.start()
    try:
        reader.join(timeout=max(0.0, deadline - time.perf_counter()))
        if reader.is_alive():
            raise SystemExit(f"error: {role} still running after {WORKER_TIMEOUT_S} s; killed")
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
    ready = next((t - t0 for t, line in timed if line.startswith("READY")), None)
    if proc.returncode != 0 or ready is None:
        raise SystemExit(f"error: {role} exited with code {proc.returncode}")
    return ready, [line for _, line in timed if not line.startswith("READY")]


def orchestrate(args) -> int:
    if not (ROOT / "src" / "coalesce" / "__init__.py").is_file():
        print(f"error: no src/coalesce under {ROOT}; run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    setups, nulls = [], []
    for _ in range(SETUP_PROBES):
        setups.append(_spawn("probe", _role("--probe", args), deadline)[0])
        nulls.append(_spawn("null probe", [sys.executable, "-c", NULL_PROBE], deadline)[0])
    ready, lines = _spawn("worker", _role("--worker", args), deadline)
    setups.append(ready)
    result = next((json.loads(l[7:]) for l in lines if l.startswith("RESULT ")), None)
    if result is None:
        print("error: the worker printed no result", file=sys.stderr)
        return 1
    raw_setup = statistics.median(setups)
    setup_slowdown = statistics.median(nulls) / NULL_PROBE_NOMINAL_S
    e2e = dict(result["end_to_end"], setup_s=raw_setup / setup_slowdown)
    env = result["environment"]
    print(f"workload {args.workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}; "
          f"one closed-loop caller, one process")
    print("environment " + json.dumps(env))
    print(f"ops {result['ops']} per pass, {result['executions']} executions; "
          f"failure_rate {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops failed)")
    for f in result["failures"]:
        print(f"FAILED {f['op']}: {'; '.join(f['problems'])}")
    print(f"op_tail_ms is p{result['tail_percentile']:.1f} over {result['ops']} per-op medians")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}; null probes: "
          f"{', '.join(f'{s:.4f}' for s in nulls)}")
    print(f"machine slowdown {result['slowdown']:.4f} against the calibration nominal, "
          f"{setup_slowdown:.4f} against the null probe's; raw setup_s={raw_setup:.6g} "
          + " ".join(f"{k}={v:.6g}" for k, v in result["raw_end_to_end"].items()))
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in per_layer_metrics()}
        check = result["self_sum_check"]
        print(f"self_s sum {check['sum_self_s']:.6f} s vs cli.main.busy_s {check['cli.main.busy_s']:.6f} s")
        for c in result["claims"]:
            print(f"claim: {c['claim']}: measured {c['measured']:.3f} -> "
                  f"{'holds' if c['holds'] else 'does not hold'}")
        print(f"spans: {result['spans_written']} written to {result['spans_file']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, setup_samples_s=setups, null_probe_samples_s=nulls,
                  setup_slowdown=setup_slowdown, metrics=metrics)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    role = p.add_mutually_exclusive_group()
    role.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    role.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workload", required=True, choices=("kset", "closure", "sampling"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="a few cheap ops only (self-test)")
    p.add_argument("--wrong", action="store_true",
                   help="feed the checker wrong expected answers (negative control)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    if args.probe:
        return probe(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
