"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Every workload is a closed loop with one client: the next request is
issued when the previous one has returned.  A *pass* empties the
program's content caches, runs every request of the workload once and
returns a :class:`PassResult`.  Passes of one run see identical inputs,
so their output digests must match.

* ``table3_cold`` — per OpenCores design, the Table IV baseline script
  through ``synthesize_cached``, then ``ChatLS.customize_pass_at_k(k=5,
  jobs=1)`` with that report.  A request is one design customized.
* ``serve_customize`` — one ``ServeEngine.run`` over a burst of 32
  ``evaluate=False`` sessions.  A request is one session; every session of
  a burst returns when ``run`` returns, so each one's latency is the burst's.
* ``explore_cold`` — per OpenCores design, the baseline script ending with
  ``explore_sizing`` through ``synthesize_cached``.  A request is one design
  compiled and explored.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from tracer import request_scope

__all__ = [
    "WORKLOADS",
    "PassResult",
    "Runtime",
    "make_workload",
    "explore_inputs",
    "serve_inputs",
    "table3_inputs",
]

WORKLOADS = ("table3_cold", "serve_customize", "explore_cold")

#: Clock-period scales other seeds draw from.  Kept narrow: near the
#: nominal Table III clocks, total negative slack is steep (ethmac's TNS
#: moves from -0.79 to -0.36 ns between scales 0.995 and 1.005), so wider
#: scales would make the QoR sums vary more across seeds than any bound.
CLOCK_SCALES = (0.9995, 1.0, 1.0005)

SERVE_SESSIONS = 32
#: ChipYard variants in the serve pool (two per family, none in the database).
SERVE_VARIANTS = (1, 2)
SERVE_CLOCK_NS = 1.2
SERVE_REQUIREMENTS = (
    "fix the negative slack and improve timing",
    "reduce area",
    "cut leakage power",
)

EXPLORE_BUDGET = 600
EXPLORE_CHAINS = 2
#: One explorer seed for every design and run.  The explorer minimizes
#: (timing violation, area), not TNS; across explorer seeds ethmac's TNS
#: jumps between about -458 and -276 ns, which would swamp any bound.
EXPLORE_SEED = 1


@dataclass
class Runtime:
    """What set-up builds once per process and every workload shares."""

    library: Any
    database: Any
    chatls: Any
    engine: Any


@dataclass
class PassResult:
    #: ``time.perf_counter()`` when the timed region began.
    start: float
    wall_s: float
    latencies: list[float]
    failed: set[int]
    #: ``{design: (wns, tns, area)}`` over the pass's distinct designs.
    qor: dict[str, tuple[float, float, float]]
    digest: str
    cache_ratios: dict[str, float]
    outputs: list[Any] = field(default_factory=list)
    batch_fill: dict[str, float] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return len(self.latencies)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# -- inputs -------------------------------------------------------------------


def table3_inputs(seed: int) -> list[tuple[str, float]]:
    """``[(design, clock period ns)]`` in request order.

    Seed 0 is Table III exactly: benchmark order, nominal clocks.
    """
    from repro.designs import get_benchmark
    from repro.designs.opencores import benchmark_names

    names = list(benchmark_names())
    scales = [1.0] * len(names)
    if seed != 0:
        rng = _rng("table3_cold", seed)
        rng.shuffle(names)
        scales = [rng.choice(CLOCK_SCALES) for _ in names]
    return [
        (name, round(get_benchmark(name).clock_period * scale, 4))
        for name, scale in zip(names, scales)
    ]


def explore_inputs(seed: int) -> list[tuple[str, int]]:
    """``[(design, explore seed)]`` in request order (seed 0: benchmark order)."""
    from repro.designs.opencores import benchmark_names

    names = list(benchmark_names())
    if seed != 0:
        _rng("explore_cold", seed).shuffle(names)
    return [(name, EXPLORE_SEED) for name in names]


def serve_inputs(seed: int) -> list[Any]:
    """32 ``ServeRequest(evaluate=False)`` sessions.

    Every pool design appears twice plus four seeded extras, so a burst
    always covers the whole pool and many sessions repeat a design.
    """
    from repro.designs.chipyard import FAMILIES, generate_family_variant
    from repro.serve import ServeRequest

    pool = [
        generate_family_variant(family, variant)
        for family in sorted(FAMILIES)
        for variant in SERVE_VARIANTS
    ]
    rng = _rng("serve_customize", seed)
    designs = pool * 2 + rng.sample(pool, SERVE_SESSIONS - 2 * len(pool))
    rng.shuffle(designs)
    requests = []
    for index, design in enumerate(designs):
        baseline = "\n".join([
            f"read_verilog {design.name}",
            f"current_design {design.name}",
            "link",
            f"create_clock -period {SERVE_CLOCK_NS} clk",
            "compile",
            "report_qor",
        ])
        requests.append(
            ServeRequest(
                verilog=design.verilog,
                design_name=design.name,
                baseline_script=baseline,
                requirement=rng.choice(SERVE_REQUIREMENTS),
                top=design.top,
                clock_period=SERVE_CLOCK_NS,
                seed=rng.randrange(10_000),
                evaluate=False,
                session_id=f"s{index:04d}",
            )
        )
    return requests


# -- shared helpers -------------------------------------------------------------


def _baseline_script(name: str, clock_period: float) -> str:
    from repro.designs import get_benchmark
    from repro.eval import baseline_script

    bench = dataclasses.replace(get_benchmark(name), clock_period=clock_period)
    return baseline_script(bench)


def _explore_script(name: str, explore_seed: int) -> str:
    from repro.designs import get_benchmark
    from repro.eval import baseline_script

    script = baseline_script(get_benchmark(name))
    head, tail = script.rsplit("\n", 1)
    return (
        f"{head}\nexplore_sizing -budget {EXPLORE_BUDGET} "
        f"-chains {EXPLORE_CHAINS} -seed {explore_seed}\n{tail}"
    )


def _qor_tuple(qor) -> tuple[float, float, float]:
    return (qor.wns, qor.tns, qor.area)


def _digest(parts: list[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _clear_caches() -> dict[str, int]:
    """Empty the content caches and collect garbage left by the last pass.

    Returns the GNN cache counters to diff (its ``clear`` keeps them).
    """
    from repro.gnn import embedding_cache
    from repro.synth.cache import clear_caches

    clear_caches()
    embedding_cache.clear()
    gc.collect()
    stats = embedding_cache.stats()
    return {"hits": stats["hits"], "misses": stats["misses"]}


def _cache_ratios(gnn_before: dict[str, int]) -> dict[str, float]:
    """Hit ratios of this pass (the caches were emptied at its start)."""
    from repro.gnn import embedding_cache
    from repro.synth.cache import default_cache, frontend_cache

    def ratio(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    synth = default_cache().stats()
    front = frontend_cache().stats()
    gnn = embedding_cache.stats()
    return {
        "synthesis": ratio(synth["hits"], synth["misses"]),
        "frontend": ratio(front["hits"], front["misses"]),
        "gnn_embed": ratio(
            gnn["hits"] - gnn_before["hits"], gnn["misses"] - gnn_before["misses"]
        ),
    }


def _report_failure(workload: str, request) -> None:
    print(f"perfbench: {workload} request {request} raised:", file=sys.stderr)
    traceback.print_exc()


def _finite(qor) -> bool:
    return qor is not None and all(
        math.isfinite(v) for v in (qor.wns, qor.tns, qor.area, qor.cps)
    )


# -- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    requests_per_pass = 1
    #: Wall time of one pass on the reference machine (2-core container).
    reference_pass_s = 1.0

    def __init__(self, runtime: Runtime) -> None:
        self.runtime = runtime

    def timed_passes(self, seconds: float) -> int:
        """Passes a run measures: about ``seconds`` on the reference machine.

        The count depends only on ``seconds``, never on how fast the passes
        run, so every commit is measured on the same number of samples and
        the latency percentiles compare the same ranks.  At least two
        passes, and enough requests that ten lie above the tail sample.
        """
        return max(
            2,
            math.ceil(11 / self.requests_per_pass),
            math.floor(seconds / self.reference_pass_s + 0.5),
        )

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self, passes: list[PassResult]) -> tuple[set[int], list[str]]:
        """Output checks outside the timed region.

        Returns ``(indices of failed requests, messages)``.
        """
        raise NotImplementedError


class Table3Cold(Workload):
    name = "table3_cold"
    reference_pass_s = 10.0

    def __init__(self, runtime: Runtime, seed: int) -> None:
        super().__init__(runtime)
        self.inputs = table3_inputs(seed)
        self.requests_per_pass = len(self.inputs)

    def run_pass(self) -> PassResult:
        from repro.designs import get_benchmark
        from repro.eval import TIMING_REQUIREMENT
        from repro.synth.cache import synthesize_cached

        rt = self.runtime
        gnn_before = _clear_caches()
        latencies, failed, results = [], set(), []
        start = time.perf_counter()
        for index, (name, period) in enumerate(self.inputs):
            bench = get_benchmark(name)
            script = _baseline_script(name, period)
            t0 = time.perf_counter()
            result = None
            try:
                with request_scope(index):
                    base = synthesize_cached(
                        rt.library, name, bench.verilog, script, top=bench.top
                    )
                    if base.success:
                        report = next(
                            out for line, out in base.transcript
                            if line == "report_qor"
                        )
                        result = rt.chatls.customize_pass_at_k(
                            bench.verilog, name, script, TIMING_REQUIREMENT,
                            k=5, tool_report=report, top=bench.top,
                            clock_period=period, jobs=1,
                        )
            except Exception:  # a failing request is counted, the loop goes on
                _report_failure(self.name, index)
                result = None
            latencies.append(time.perf_counter() - t0)
            if result is None or not result.executable:
                failed.add(index)
            results.append(result)
        wall = time.perf_counter() - start
        qor = {
            name: _qor_tuple(result.qor)
            for (name, _), result in zip(self.inputs, results)
            if result is not None and result.qor is not None
        }
        digest = _digest([
            f"{name}|{r.script}|{_qor_tuple(r.qor) if r.qor else None!r}"
            if r is not None else "None"
            for (name, _), r in zip(self.inputs, results)
        ])
        # Keep only what the checks read, not the analyses and netlists.
        outputs = [
            r is not None and r.executable and _finite(r.qor) for r in results
        ]
        return PassResult(
            start, wall, latencies, failed, qor, digest, _cache_ratios(gnn_before), outputs
        )

    def check(self, passes):
        bad: set[int] = set()
        messages = []
        for index, (name, _) in enumerate(self.inputs):
            for p in passes:
                if not p.outputs[index]:
                    bad.add(index)
                    messages.append(f"{name}: not executable or non-finite QoR")
                    break
        return bad, messages


class ExploreCold(Workload):
    name = "explore_cold"
    reference_pass_s = 5.0

    def __init__(self, runtime: Runtime, seed: int) -> None:
        super().__init__(runtime)
        self.inputs = explore_inputs(seed)
        self.requests_per_pass = len(self.inputs)

    def run_pass(self) -> PassResult:
        from repro.designs import get_benchmark
        from repro.synth.cache import synthesize_cached

        rt = self.runtime
        gnn_before = _clear_caches()
        latencies, failed, outputs = [], set(), []
        start = time.perf_counter()
        for index, (name, explore_seed) in enumerate(self.inputs):
            bench = get_benchmark(name)
            script = _explore_script(name, explore_seed)
            t0 = time.perf_counter()
            try:
                with request_scope(index):
                    run = synthesize_cached(
                        rt.library, name, bench.verilog, script, top=bench.top
                    )
            except Exception:  # a failing request is counted, the loop goes on
                _report_failure(self.name, index)
                run = None
            latencies.append(time.perf_counter() - t0)
            if run is None or not run.success or run.qor is None:
                failed.add(index)
            outputs.append(run.qor if run is not None and run.success else None)
        wall = time.perf_counter() - start
        qor = {
            name: _qor_tuple(snap)
            for (name, _), snap in zip(self.inputs, outputs)
            if snap is not None
        }
        digest = _digest([
            f"{name}|{_qor_tuple(snap)!r}" if snap is not None else "None"
            for (name, _), snap in zip(self.inputs, outputs)
        ])
        return PassResult(
            start, wall, latencies, failed, qor, digest, _cache_ratios(gnn_before), outputs
        )

    def check(self, passes):
        """Never-worse: explored QoR beats or ties the same script without it."""
        from repro.designs import get_benchmark
        from repro.eval import baseline_script
        from repro.synth.cache import synthesize_cached

        bad: set[int] = set()
        messages = []
        for index, (name, _) in enumerate(self.inputs):
            bench = get_benchmark(name)
            greedy = synthesize_cached(
                self.runtime.library, name, bench.verilog,
                baseline_script(bench), top=bench.top,
            ).qor
            for p in passes:
                explored = p.outputs[index]
                if not _finite(explored) or not _finite(greedy):
                    bad.add(index)
                    messages.append(f"{name}: explore run failed")
                    break
                if not never_worse(explored, greedy):
                    bad.add(index)
                    messages.append(
                        f"{name}: explored QoR (cps {explored.cps}, area "
                        f"{explored.area}) worse than greedy (cps {greedy.cps}, "
                        f"area {greedy.area})"
                    )
                    break
        return bad, messages


def never_worse(explored, greedy, tol: float = 1e-9) -> bool:
    """The explorer's lexicographic ``(timing violation, area)`` order."""
    v_new, v_old = max(0.0, -explored.cps), max(0.0, -greedy.cps)
    if v_new < v_old - tol:
        return True
    if v_new > v_old + tol:
        return False
    return explored.area <= greedy.area + tol * max(1.0, abs(greedy.area))


class ServeCustomize(Workload):
    name = "serve_customize"
    reference_pass_s = 2.0

    def __init__(self, runtime: Runtime, seed: int) -> None:
        super().__init__(runtime)
        self.requests = serve_inputs(seed)
        self.requests_per_pass = len(self.requests)

    def run_pass(self) -> PassResult:
        engine = self.runtime.engine
        gnn_before = _clear_caches()
        start = time.perf_counter()
        try:
            with request_scope("burst"):
                results = engine.run(self.requests)
        except Exception:  # the whole burst failed; every session counts
            _report_failure(self.name, "burst")
            results = [None] * len(self.requests)
        wall = time.perf_counter() - start
        failed = {
            index for index, result in enumerate(results)
            if result is None or not result.executable or not result.script
        }
        qor = {
            result.analysis.design_name: (
                result.analysis.timing.wns,
                result.analysis.timing.tns,
                result.analysis.area,
            )
            for result in results
            if result is not None
        }
        digest = _digest([
            f"{r.script}|{r.trace!r}" if r is not None else "None" for r in results
        ])
        batch_fill = {
            stage: batcher.item_count / batcher.batch_count
            for stage, batcher in engine.batchers.items()
            if batcher.batch_count
        }
        outputs = [(r.script, r.trace) if r is not None else None for r in results]
        return PassResult(
            start, wall, [wall] * len(self.requests), failed, qor, digest,
            _cache_ratios(gnn_before), outputs, batch_fill,
        )

    def check(self, passes):
        """Bit identity: each session equals a sequential ``ChatLS.customize``."""
        chatls = self.runtime.chatls
        bad: set[int] = set()
        messages = []
        for index, request in enumerate(self.requests):
            want = chatls.customize(
                request.verilog, request.design_name, request.baseline_script,
                request.requirement, tool_report=request.tool_report,
                top=request.top, clock_period=request.clock_period,
                seed=request.seed,
            )
            for p in passes:
                if p.outputs[index] != (want.script, want.trace):
                    bad.add(index)
                    messages.append(
                        f"session {request.session_id}: differs from sequential customize"
                    )
                    break
        return bad, messages


_CLASSES = {cls.name: cls for cls in (Table3Cold, ServeCustomize, ExploreCold)}


def make_workload(name: str, runtime: Runtime, seed: int) -> Workload:
    return _CLASSES[name](runtime, seed)
