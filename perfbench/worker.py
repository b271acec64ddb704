"""One benchmark process: set up, signal readiness, run one workload.

Started by ``run.py`` from the root of a checkout with ``src`` on
``PYTHONPATH``.  It prints ``READY_LINE`` as soon as set-up is done
(``run.py`` times process start to that line), then, unless
``--setup-only``, runs the workload and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

READY_LINE = "perfbench: ready"
RESULT_PREFIX = "perfbench-result: "

#: Serve stages flush a batch as soon as it holds every session of a burst.
SERVE_BATCH_WAIT_MS = 10.0
#: Analyze workers of the serving engine.  One, because with two the
#: frontend cache's check-then-insert lets concurrent sessions of one
#: design both miss and elaborate, so call counts would vary by pass.
SERVE_JOBS = 1


def setup():
    """Everything a user pays before the first request."""
    from repro.core import ChatLS
    from repro.designs import build_default_database
    from repro.serve import BatchPolicy, ServeEngine
    from repro.synth import nangate45
    from workloads import SERVE_SESSIONS, Runtime

    library = nangate45()
    database = build_default_database(variants_per_family=1)
    chatls = ChatLS(database, library=library)
    engine = ServeEngine(
        chatls,
        policy=BatchPolicy(batch_max=SERVE_SESSIONS, batch_wait_ms=SERVE_BATCH_WAIT_MS),
        jobs=SERVE_JOBS,
    )
    return Runtime(library, database, chatls, engine)


# -- statistics -----------------------------------------------------------------


def tail_percentile(samples: list[float], above: int = 10) -> tuple[float, float, int]:
    """The highest percentile that still has ``above`` samples above it.

    Returns ``(value, percentile, sample count)``.  With ``n`` sorted
    samples that is the sample at 0-based index ``n - above - 1`` — its
    percentile rank is ``100 * (n - above) / n``.  With ``above`` samples
    or fewer there is no such percentile; the maximum (p100) is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= above:
        return ordered[-1], 100.0, n
    index = n - above - 1
    return ordered[index], 100.0 * (index + 1) / n, n


# -- result stamp ---------------------------------------------------------------


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(args, tail: tuple[float, float, int] | None) -> dict:
    import numpy

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": _git_rev(),
        "nproc": os.cpu_count(),
        "serve_jobs": SERVE_JOBS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }
    if tail is not None:
        info["latency_tail"] = {"percentile": round(tail[1], 2), "samples": tail[2]}
    return info


# -- runs -------------------------------------------------------------------------


def _common_checks(workload, passes) -> tuple[set[int], list[str], bool]:
    """Output checks, digest identity and cold-state discipline."""
    bad, messages = workload.check(passes)
    ok = not bad
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        ok = False
        messages.append(f"per-pass output digests differ: {len(digests)} distinct")
    if len(passes) > 1:
        for cache in passes[0].cache_ratios:
            first = passes[0].cache_ratios[cache]
            rest = max(p.cache_ratios[cache] for p in passes[1:])
            if first > rest + 1e-12:
                ok = False
                messages.append(
                    f"first pass warmer than the rest on {cache}: {first:.4f} > {rest:.4f}"
                )
    return bad, messages, ok


def _failures(passes, bad: set[int]) -> tuple[int, int]:
    attempted = sum(p.requests for p in passes)
    failed = sum(len(p.failed | bad) for p in passes)
    return attempted, failed


def _pass_detail(p, **extra) -> dict:
    return {
        **extra,
        "wall_s": round(p.wall_s, 4),
        "latencies_s": [round(x, 4) for x in p.latencies[:16]],
        "cache_hit_ratios": {k: round(v, 4) for k, v in p.cache_ratios.items()},
    }


def _qor_sums(p) -> dict[str, float]:
    rows = p.qor.values()
    return {
        "wns_sum_ns": sum(r[0] for r in rows),
        "tns_sum_ns": sum(r[1] for r in rows),
        "area_sum_um2": sum(r[2] for r in rows),
    }


def run_untraced(workload, seconds: float) -> tuple[dict, dict]:
    passes = [workload.run_pass() for _ in range(workload.timed_passes(seconds))]
    bad, messages, ok = _common_checks(workload, passes)
    attempted, failed = _failures(passes, bad)
    latencies = [x for p in passes for x in p.latencies]
    tail = tail_percentile(latencies)
    metrics = {
        "throughput_rps": (
            sum(p.requests for p in passes) / sum(p.wall_s for p in passes), "requests/s"
        ),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail[0], "s"),
        "failed_ratio": (failed / attempted, "ratio"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    units = {"wns_sum_ns": "ns", "tns_sum_ns": "ns", "area_sum_um2": "um2"}
    for name, value in _qor_sums(passes[0]).items():
        metrics[name] = (value, units[name])
    detail = {
        "ok": ok,
        "messages": messages,
        "attempted": attempted,
        "failed": failed,
        "tail": tail,
        "passes": [_pass_detail(p) for p in passes],
        "qor": passes[0].qor,
    }
    return metrics, detail


def run_traced(workload, runtime) -> tuple[dict, dict]:
    """Untraced and traced passes of the same inputs, interleaved.

    The order untraced, traced, untraced, traced spreads first-pass costs
    and drift over both kinds, so their wall-time difference is the
    tracing cost.
    Wrappers are installed for each traced pass and removed after it.
    """
    from layers import install, per_layer_metrics, per_layer_spec
    from tracer import Tracer

    untraced, traced = [], []
    for _ in range(2):
        untraced.append(workload.run_pass())
        tracer = Tracer()
        try:
            install(tracer, type(runtime.database.design_index))
            p = workload.run_pass()
        finally:
            tracer.uninstall()
        traced.append((p, tracer.take(), dict(tracer.counters), p.start, p.start + p.wall_s))
    passes = [p for pair in zip(untraced, traced) for p in (pair[0], pair[1][0])]
    bad, messages, ok = _common_checks(workload, passes)
    attempted, failed = _failures(passes, bad)

    per_pass = []
    for p, spans, counters, start, end in traced:
        values, unattributed = per_layer_metrics(
            spans, start, end, counters, p.cache_ratios, p.batch_fill
        )
        attributed = sum(v for k, v in values.items() if k.endswith(".self_s"))
        if abs(attributed + unattributed - (end - start)) > 1e-6 * (end - start):
            ok = False
            messages.append("layer self times plus remainder differ from wall time")
        values["trace.wall_s"] = end - start
        values["trace.unattributed_s"] = unattributed
        per_pass.append(values)
    counts = [
        {k: v for k, v in values.items() if k.endswith((".calls", ".scripts", ".failed", ".tasks"))}
        for values in per_pass
    ]
    if counts[0] != counts[1]:
        ok = False
        changed = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        messages.append(f"per-layer calls differ between traced passes: {changed}")

    metrics = {}
    for name, unit, _ in per_layer_spec():
        if name == "trace.untraced_wall_s":
            value = statistics.mean(p.wall_s for p in untraced)
        elif name == "trace.overhead_s":
            value = statistics.mean(v["trace.wall_s"] for v in per_pass) - statistics.mean(
                p.wall_s for p in untraced
            )
        else:
            value = statistics.mean(v[name] for v in per_pass)
        metrics[name] = (value, unit)
    detail = {
        "ok": ok,
        "messages": messages,
        "attempted": attempted,
        "failed": failed,
        "tail": None,
        "passes": [_pass_detail(p, traced=i % 2 == 1) for i, p in enumerate(passes)],
        "spans": sum(len(t[1]) for t in traced),
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    runtime = setup()
    print(READY_LINE, flush=True)
    if args.setup_only:
        return 0

    from repro.parallel import shutdown_pools
    from workloads import make_workload

    workload = make_workload(args.workload, runtime, args.seed)
    try:
        if args.trace:
            metrics, detail = run_traced(workload, runtime)
        else:
            metrics, detail = run_untraced(workload, args.seconds)
    finally:
        shutdown_pools()
    result = {
        "stamp": stamp(args, detail["tail"]),
        "ok": detail["ok"],
        "messages": detail["messages"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "passes": detail["passes"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if "spans" in detail:
        result["spans"] = detail["spans"]
    _record(args, result, detail.get("qor"))
    print(RESULT_PREFIX + json.dumps(result), flush=True)
    return 0


def _record(args, result: dict, qor: dict | None) -> None:
    """Write the run to the ledger when ``REPRO_RUN_LEDGER`` is set."""
    from repro import obs

    rows = None
    if qor:
        rows = {
            f"{args.workload}/{design}": {"wns": r[0], "tns": r[1], "area": r[2]}
            for design, r in qor.items()
        }
    obs.record_run(f"bench.{args.workload}", qor=rows, extra=result)


if __name__ == "__main__":
    sys.exit(main())
