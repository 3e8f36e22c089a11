"""okubo benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 45 --trace 0

Workloads and metrics are listed in BENCHMARK.json and explained in
perfbench/METRICS.md.
The workload runs in fresh interpreters that import okubo from this
checkout's src/.  Set-up is timed in five of them, two before, two after
and the one that measures, and its median reported.  The measuring
interpreter runs rounds of the workload (each of its cycles once) for
about --seconds, at least two, and checks every output.  Each
operation's latency is the median over its rounds.  The sandbox is
shared, and other tenants slow it down in phases that can outlast a run,
so every time is scaled to a reference speed, read off a fixed loop
timed beside the operations (see speed.py).  With --trace 1 the same
interpreter then runs one more round with every okubo layer wrapped in
span recorders and reports the per-layer metrics instead of the
end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when no check
failed except the recorded baseline failures (see checks.py),
1 when one did, and 2 when the benchmark cannot run here at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
from workloads import OUT_DIR  # noqa: E402

#: workloads and metric names, units and bounds
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
#: set-up-only interpreters before and after the measuring one
SETUP_AROUND = 2
DEADLINE_S = 170.0


def okubo_env() -> dict:
    """Environment for a fresh interpreter that imports okubo from this
    checkout's sources."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class BenchError(Exception):
    """The benchmark cannot run or a worker broke; no result is printed."""


def _worker_cmd(args, setup_only: bool) -> list:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + (["--setup-only"] if setup_only else [])


def run_worker(args, setup_only: bool, deadline: float) -> tuple:
    """(set-up seconds, readings, result dict or None) of one fresh
    interpreter.  The speed is read (see speed.py) just before it starts
    and just after it ends; while it measures, it asks for a reading
    with a line ``TICK`` and waits for the reading as a line back."""
    readings = [speed.reading()]
    spawned = time.monotonic()
    proc = subprocess.Popen(_worker_cmd(args, setup_only), cwd=ROOT,
                            env=okubo_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - spawned), proc.kill)
    timer.start()
    lines = []
    try:
        for line in proc.stdout:
            if line == "TICK\n":
                proc.stdin.write(f"{speed.reading()!r}\n")
                proc.stdin.flush()
            else:
                lines.append(line)
    except BrokenPipeError:
        pass
    finally:
        proc.wait()
        timer.cancel()
    if not timer.is_alive() and proc.returncode < 0:
        raise BenchError(f"{args.workload} worker ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited with "
                         f"{proc.returncode}")
    ready = next((line for line in lines if line.startswith("READY ")), None)
    if ready is None:
        raise BenchError("worker never finished set-up")
    readings.append(speed.reading())
    setup = float(ready.split()[1]) - spawned
    return setup, readings, None if setup_only else json.loads(lines[-1])


def _spawn_ms(code: str, runs: int = 3) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                       env=okubo_env(), check=True, timeout=60)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "okubo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def tail_latency(lats: list) -> tuple:
    """(value, percentile) of the highest percentile of the sorted
    latencies with at least ten samples beyond it; the median when there
    are too few samples for any percentile above it."""
    n = len(lats)
    rank = n - 10
    if rank <= n / 2:
        return statistics.median(lats), 50.0
    return lats[rank - 1], 100 * rank / n


def end_to_end(setups, result) -> tuple:
    """(metrics, notes) of an untraced run, from latencies at the
    reference speed.

    `wall_s` is the median over the rounds of a round's time.  An
    operation's latency is its median over the rounds; `op_p50_ms` and
    `op_tail_ms` are over the operations of one round, so that the tail's
    percentile does not depend on how many rounds fitted in the run.
    """
    per_op = [lat for cycle in result["per_op"] for lat in cycle]
    rounds = min(len(lat) for lat in per_op)
    wall = statistics.median(sum(lat[k] for lat in per_op)
                             for k in range(rounds))
    raw = statistics.median(
        sum(lat[k] for cycle in result["per_op_raw"] for lat in cycle)
        for k in range(rounds))
    lats = sorted(statistics.median(lat) for lat in per_op)
    n = len(lats)
    tail, percentile = tail_latency(lats)
    statuses = result["statuses"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": n / wall,
        "op_p50_ms": statistics.median(lats) * 1e3,
        "op_tail_ms": tail * 1e3,
        "pass_ratio": statuses.count(checks.OK) / len(statuses),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "wall_s": f"median of {rounds} rounds of {n} operations; "
                  f"{raw:.3f} s as measured",
        "op_p50_ms": f"p50 of n={n}",
        "op_tail_ms": f"p{percentile:.1f} of n={n}",
        "pass_ratio": f"fail_ratio {1 - metrics['pass_ratio']:.4f} of "
                      f"{len(statuses)} attempted: "
                      f"{statuses.count(checks.BASELINE)} recorded baseline "
                      f"misses, {statuses.count(checks.FAILED)} other "
                      f"failures",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "okubo" / "__init__.py").is_file():
        print(f"perfbench: no okubo sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # The speed readings and the workload run on one processor, which
    # the workload's interpreters inherit: the other tenants slow the
    # sandbox's processors down by different amounts at different times.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # set-up runs before and after the measuring one, so that they do not
    # all fall into one of the sandbox's slow phases
    try:
        setups, readings = [], []
        for k in range(2 * SETUP_AROUND + 1):
            setup, around, out = run_worker(args, k != SETUP_AROUND, deadline)
            setups.append(setup)
            readings += around
            if k == SETUP_AROUND:
                result = out
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    env = {"git": _git_sha(), "src_sha256": _src_digest(),
           **result["versions"], "nproc": os.cpu_count(),
           "cli.spawn_floor_ms": round(_spawn_ms("pass"), 2),
           "calibration_ms": round(result["loop_ms"], 4),
           "reference_ms": speed.REFERENCE_S * 1e3,
           "note": "shared sandbox; CPU and frequency cannot be pinned; "
                   "times are scaled to the speed at which the "
                   "calibration loop takes reference_ms"}
    # each set-up between the readings taken just before and after it
    metrics, notes = end_to_end(
        [s * speed.REFERENCE_S / statistics.median(readings[2 * k:2 * k + 2])
         for k, s in enumerate(setups)], result)
    statuses = result["statuses"] + result.get("traced_statuses", [])
    failed = statuses.count(checks.FAILED)
    if args.trace:
        metrics = dict(result["per_layer"])
        metrics["cli.spawn_floor_ms"] = env["cli.spawn_floor_ms"]
        metrics["cli.import_ms"] = _spawn_ms("import okubo.cli")
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if args.trace else "end_to_end"]}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if "far_share" in result:
        print(f"points with |x| >= 0.8: {result['far_share']:.3f} of the "
              f"hyp2f1/w/v requests")
    for name in units:
        note = notes.get(name, "") if not args.trace else ""
        print(f"{name:44s} {metrics[name]:14.6g} {units[name]:8s} {note}")
    for line in result["failures"] + result.get("traced_failures", []):
        print(f"FAILED {line}")
    for target in result.get("missing_targets", []):
        print(f"trace target missing: {target}")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "notes": notes,
              "metrics": metrics, "per_op": result["per_op"],
              "per_op_raw": result["per_op_raw"],
              "starts": result["starts"], "readings": result["readings"]}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json") \
        .write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(statuses), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
