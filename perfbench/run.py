"""End-to-end ChatLS benchmark: requirement -> script -> QoR.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table3_cold --seed 0 --seconds 25 --trace 0

Workloads: ``table3_cold``, ``serve_customize``, ``explore_cold`` (see
``workloads.py``).  A run measures a fixed number of passes, sized to
last about ``--seconds`` on the reference machine.  ``--trace 0`` reports
the end-to-end metrics with no tracing; ``--trace 1`` alternates two
untraced and two traced passes and reports self time and call counts per
layer (see ``layers.py``).

Set-up time (untraced runs only) is the median, over ``SETUP_RUNS`` fresh
processes, of the wall time from starting the process to its readiness
line; the last of those processes runs the workload.  A human-readable report goes to
standard output, followed by one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is nonzero when
an output check fails or the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import READY_LINE, RESULT_PREFIX  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60.0
#: Whole-run deadline; the workload process is killed past it.
RUN_TIMEOUT_S = 170.0
#: Worker threads for the program's parallel layers (never above nproc).
MAX_JOBS = 2

#: End-to-end metrics of untraced runs, in report order.
END_TO_END = (
    "setup_s", "throughput_rps", "latency_p50_s", "latency_tail_s",
    "rss_peak_mb", "wns_sum_ns", "tns_sum_ns", "area_sum_um2",
)


class BenchError(RuntimeError):
    pass


def _spawn(cmd: list[str], env: dict, timeout: float) -> tuple[float, list[str]]:
    """Run one worker; return (seconds to its readiness line, its other lines)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    received: list[tuple[float, str]] = []

    def read() -> None:
        for line in proc.stdout:
            received.append((time.perf_counter(), line.rstrip("\n")))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        code = proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("benchmark process exceeded its deadline")
    finally:
        reader.join(timeout=10)
        proc.stdout.close()
    ready = [t for t, line in received if line == READY_LINE]
    if code != 0 or not ready:
        raise BenchError(f"benchmark process failed with exit code {code}")
    return ready[0] - start, [line for _, line in received if line != READY_LINE]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (src/repro missing)",
              file=sys.stderr)
        return 2

    jobs = max(1, min(MAX_JOBS, os.cpu_count() or 1))
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_JOBS"] = str(jobs)
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(root)
    worker = [sys.executable, os.path.join(HERE, "worker.py")]
    deadline = time.perf_counter() + RUN_TIMEOUT_S

    try:
        setup_samples = []
        # The traced run reports no set-up time, so it needs no extra samples.
        for _ in range(0 if args.trace else SETUP_RUNS - 1):
            ready_s, _ = _spawn(
                worker + ["--setup-only"], env,
                min(SETUP_TIMEOUT_S, deadline - time.perf_counter()),
            )
            setup_samples.append(ready_s)
        ready_s, lines = _spawn(
            worker + [
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            env, deadline - time.perf_counter(),
        )
        setup_samples.append(ready_s)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    results = [l for l in lines if l.startswith(RESULT_PREFIX)]
    if len(results) != 1:
        print("perfbench: the workload process printed no result", file=sys.stderr)
        return 1
    result = json.loads(results[0][len(RESULT_PREFIX):])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("stamp: " + json.dumps(result["stamp"], sort_keys=True))
    print("setup samples (s): " + ", ".join(_fmt(s) for s in setup_samples))
    for index, p in enumerate(result["passes"]):
        print(f"pass {index}: " + json.dumps(p, sort_keys=True))
    if "spans" in result:
        print(f"spans recorded: {result['spans']}")
    names = [n for n in END_TO_END if n in metrics] if not args.trace else list(metrics)
    names += [n for n in metrics if n not in names]
    for name in names:
        print(f"  {name:<40} {_fmt(metrics[name]['value']):>14} {metrics[name]['unit']}")
    for message in result["messages"]:
        print(f"CHECK FAILED: {message}")

    reported = {n: metrics[n] for n in names if n != "failed_ratio"}
    print(json.dumps({
        "correct": bool(result["ok"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": reported,
    }))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
