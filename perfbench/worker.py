"""One workload process: set up, signal readiness, measure, check.

Started by run.py in a fresh interpreter with the checkout's src/ on
PYTHONPATH.  It prints ``READY <monotonic time>`` when set-up ends, and
its result as one JSON line at the end.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


MIN_ROUNDS = 2


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started okubo.

    ru_maxrss would also count what run.py had resident when it forked
    this process (its speed-reading buffer); VmHWM counts only the
    memory of the program exec'd here.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def ask_run_py() -> float:
    """A reading of the sandbox's speed, taken by run.py (see speed.py)."""
    print("TICK", flush=True)
    return float(sys.stdin.readline())


def measure(wl, seconds: float, rec) -> tuple:
    """Run rounds, each of every cycle once, until there are MIN_ROUNDS
    rounds and another round, as long as the last one, would end more
    than ``seconds`` after the first began.  Returns, per cycle, the
    latencies of each of its operations over the rounds: at the
    reference speed (see speed.py) and as measured."""
    rounds = [[] for _ in range(wl.CYCLES)]
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        for k in range(wl.CYCLES):
            first = len(rec.latencies)
            wl.cycle(k, rec)
            rounds[k].append((first, len(rec.latencies)))
        now = time.perf_counter()
        next_end = now + (now - begun)
        if len(rounds[0]) >= MIN_ROUNDS and next_end > start + seconds:
            break

    def per_op(values):
        return [[list(op) for op in zip(*(values[a:b] for a, b in cycle))]
                for cycle in rounds]

    return per_op(rec.scaled()), per_op(rec.latencies)


def traced_round(wl) -> tuple:
    """One more round with every okubo layer wrapped in span recorders."""
    tracer = spans.Tracer()
    rec = workloads.Recorder(tracer)
    tracer.install()
    try:
        for k in range(wl.CYCLES):
            wl.cycle(k, rec)
    finally:
        tracer.uninstall()
    return tracer, rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import okubo
    if Path(okubo.__file__).resolve().parent != ROOT / "src" / "okubo":
        print(f"perfbench: imported okubo from {okubo.__file__}, not from "
              f"this checkout's src/", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0
    wl.prepare()
    rec = workloads.Recorder(speedometer=speed.Speedometer(ask_run_py))
    per_op, per_op_raw = measure(wl, args.seconds, rec)
    result = {"per_op": per_op, "per_op_raw": per_op_raw,
              "loop_ms": statistics.median(rec.speedometer.readings) * 1e3,
              "starts": rec.starts,
              "readings": list(zip(rec.speedometer.times,
                                   rec.speedometer.readings)),
              "statuses": rec.statuses,
              "failures": rec.failures,
              "peak_rss_mb": peak_rss_mb(),
              "versions": _versions()}
    if hasattr(wl, "far_share"):
        result["far_share"] = wl.far_share()
    if args.trace:
        tracer, trec = traced_round(wl)
        metrics = spans.layer_metrics(tracer.spans, spans.CRITERIA)
        # against the last untraced round, the nearest in time: the
        # sandbox's speed drifts between rounds
        metrics["trace.overhead"] = sum(trec.latencies) / sum(
            lat[-1] for cycle in per_op_raw for lat in cycle)
        result.update(per_layer=metrics, traced_statuses=trec.statuses,
                      traced_failures=trec.failures,
                      missing_targets=tracer.missing)
        workloads.OUT_DIR.mkdir(exist_ok=True)
        tracer.write(workloads.OUT_DIR /
                     f"spans-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
