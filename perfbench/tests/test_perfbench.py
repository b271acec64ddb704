"""Fast tests of the benchmark's own machinery.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from layers import _FUNCTIONS, _METHODS, install, per_layer_metrics, per_layer_spec
from tracer import Span, Tracer, attribute, layer_totals, request_scope
from worker import tail_percentile
from workloads import explore_inputs, never_worse, serve_inputs, table3_inputs


def _span(span_id, parent, name, start, end):
    return Span(span_id, parent, name, start, end)


# -- self time ------------------------------------------------------------------


def test_self_time_nested_spans():
    spans = [
        _span(1, None, "outer", 0.0, 10.0),
        _span(2, 1, "mid", 2.0, 5.0),
        _span(3, 2, "inner", 3.0, 4.0),
    ]
    self_time, unattributed = attribute(spans, -1.0, 11.0)
    assert self_time == pytest.approx({1: 7.0, 2: 2.0, 3: 1.0})
    assert unattributed == pytest.approx(2.0)
    assert sum(self_time.values()) + unattributed == pytest.approx(12.0)


def test_self_time_cross_thread_children_share_overlap():
    # Parent waits in one thread while two children overlap in others.
    spans = [
        _span(1, None, "parent", 0.0, 10.0),
        _span(2, 1, "child", 1.0, 6.0),
        _span(3, 1, "child", 3.0, 8.0),
    ]
    self_time, unattributed = attribute(spans, 0.0, 10.0)
    # Children cover [1, 8]: the parent keeps 3 s; [3, 6] is split.
    assert self_time[1] == pytest.approx(3.0)
    assert self_time[2] == pytest.approx(2.0 + 1.5)
    assert self_time[3] == pytest.approx(1.5 + 2.0)
    assert unattributed == pytest.approx(0.0)
    assert min(self_time.values()) >= 0.0
    totals = layer_totals(spans, self_time)
    assert totals["child"] == {"self_s": pytest.approx(7.0), "calls": 2}


def test_self_time_unrelated_concurrent_roots_and_clipping():
    spans = [
        _span(1, None, "a", 0.0, 4.0),
        _span(2, None, "b", 2.0, 6.0),
        _span(3, None, "c", 9.0, 12.0),  # ends after the window
    ]
    self_time, unattributed = attribute(spans, 0.0, 10.0)
    assert self_time == pytest.approx({1: 3.0, 2: 3.0, 3: 1.0})
    assert unattributed == pytest.approx(3.0)


def test_spans_in_pool_and_executor_threads_attach_to_submitter():
    tracer = Tracer()

    def leaf():
        return threading.get_ident()

    traced_leaf = tracer.wrap("leaf", leaf)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(traced_leaf) for _ in range(3)]]

    async def via_loop():
        loop = asyncio.get_running_loop()
        with ThreadPoolExecutor(max_workers=1) as pool:
            return await loop.run_in_executor(pool, traced_leaf)

    traced_fan_out = tracer.wrap("fan_out", fan_out)
    traced_via_loop = tracer.wrap("via_loop", via_loop)
    try:
        tracer.propagate_executor_context()
        with request_scope("r1"):
            threads = traced_fan_out()
            asyncio.run(traced_via_loop())
    finally:
        tracer.uninstall()
    assert threading.get_ident() not in threads
    spans = {s.span_id: s for s in tracer.take()}
    parents = {s.name: s.span_id for s in spans.values() if s.name != "leaf"}
    leaves = [s for s in spans.values() if s.name == "leaf"]
    assert len(leaves) == 4
    assert sorted(s.parent_id for s in leaves) == sorted(
        [parents["fan_out"]] * 3 + [parents["via_loop"]]
    )
    assert {s.request_id for s in spans.values()} == {"r1"}


# -- tail percentile ------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_above():
    samples = [float(x) for x in range(20, 0, -1)]  # 1..20, unsorted
    value, percentile, count = tail_percentile(samples)
    assert (value, percentile, count) == (10.0, 50.0, 20)
    assert sum(1 for s in samples if s > value) == 10
    value, percentile, count = tail_percentile([float(x) for x in range(1, 101)])
    assert (value, percentile, count) == (90.0, 90.0, 100)


def test_tail_percentile_small_samples():
    value, percentile, count = tail_percentile([3.0, 1.0, 2.0, 11.0] * 3 + [5.0])
    assert count == 13
    assert sum(1 for s in [3.0, 1.0, 2.0, 11.0] * 3 + [5.0] if s > value) >= 10
    assert tail_percentile([2.0, 1.0]) == (2.0, 100.0, 2)


# -- generators ------------------------------------------------------------------


def _serve_key(seed):
    return [
        (r.design_name, r.requirement, r.seed, r.session_id) for r in serve_inputs(seed)
    ]


@pytest.mark.parametrize(
    "make", [table3_inputs, explore_inputs, _serve_key],
    ids=["table3", "explore", "serve"],
)
def test_generators_are_deterministic_and_seed_dependent(make):
    assert make(1) == make(1)
    assert make(7) == make(7)
    assert make(1) != make(2)
    assert make(0) != make(3)


def test_seed_zero_is_table_three():
    from repro.designs import get_benchmark
    from repro.designs.opencores import benchmark_names

    assert table3_inputs(0) == [
        (name, get_benchmark(name).clock_period) for name in benchmark_names()
    ]
    assert [name for name, _ in explore_inputs(0)] == list(benchmark_names())


def test_serve_burst_covers_the_pool():
    requests = serve_inputs(5)
    names = [r.design_name for r in requests]
    assert len(requests) == 32
    assert len(set(names)) == 14
    assert all(names.count(n) >= 2 for n in set(names))
    assert all(not r.evaluate for r in requests)


def test_never_worse_order():
    from types import SimpleNamespace as Q

    assert never_worse(Q(cps=-0.1, area=200.0), Q(cps=-0.2, area=100.0))
    assert never_worse(Q(cps=0.3, area=99.0), Q(cps=0.1, area=100.0))
    assert never_worse(Q(cps=0.0, area=100.0), Q(cps=0.2, area=100.0))
    assert not never_worse(Q(cps=0.1, area=101.0), Q(cps=0.2, area=100.0))
    assert not never_worse(Q(cps=-0.3, area=50.0), Q(cps=-0.2, area=100.0))


# -- wrappers ---------------------------------------------------------------------


def _patched_attributes(index_class):
    import importlib
    import sys

    seen = {}
    for _, module_name, attr in _FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and module is not None:
                for key, value in vars(module).items():
                    if value is original:
                        seen[(name, key)] = value
    for _, target, attr in _METHODS:
        module_name, class_name = target.split(":")
        cls = getattr(importlib.import_module(module_name), class_name)
        seen[(target, attr)] = vars(cls)[attr]
    for attr in ("search", "search_batch"):
        seen[(index_class.__name__, attr)] = vars(index_class)[attr]
    seen[("ThreadPoolExecutor", "submit")] = vars(ThreadPoolExecutor)["submit"]
    return seen


def test_wrappers_are_restored_after_a_traced_run():
    import repro.synth.dcshell as dcshell
    from repro.synth.techmap import cleanup
    from repro.vectorstore import FlatIndex

    before = _patched_attributes(FlatIndex)
    tracer = Tracer()
    install(tracer, FlatIndex)
    try:
        assert dcshell.cleanup is not cleanup  # wrapped at the import site too
        assert tracer.installed
    finally:
        tracer.uninstall()
    assert not tracer.installed
    after = _patched_attributes(FlatIndex)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert dcshell.cleanup is cleanup


def test_call_counts_match_program_counters():
    """Wrapped counts agree with the caches' own miss counters."""
    from repro.designs import get_benchmark
    from repro.eval import baseline_script
    from repro.synth import nangate45
    from repro.synth.cache import (
        clear_caches, default_cache, frontend_cache, synthesize_cached,
    )
    from repro.vectorstore import FlatIndex

    bench = get_benchmark("riscv32i")
    script = baseline_script(bench)
    other = script.replace("compile", "compile\nreport_timing")
    library = nangate45()
    clear_caches()
    tracer = Tracer()
    install(tracer, FlatIndex)
    try:
        start = time.perf_counter()
        for text in (script, script, other):
            synthesize_cached(library, bench.name, bench.verilog, text, top=bench.top)
        end = time.perf_counter()
    finally:
        tracer.uninstall()
    spans = tracer.take()
    values, unattributed = per_layer_metrics(
        spans, start, end, dict(tracer.counters),
        {"synthesis": 0.0, "frontend": 0.0, "gnn_embed": 0.0}, {},
    )
    synth = default_cache().stats()
    front = frontend_cache().stats()
    assert values["synth.dcshell.scripts"] == synth["misses"] == 2
    assert synth["hits"] == 1
    assert values["hdl.elaborate.calls"] == front["misses"] == 1
    assert values["synth.timing.analyze.calls"] > 0
    assert values["synth.dcshell.self_s"] > 0
    attributed = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert attributed + unattributed == pytest.approx(end - start)
    names = {name for name, _, _ in per_layer_spec()}
    assert set(values) <= names
    clear_caches()


def test_benchmark_json_lists_the_reported_metrics():
    import json
    import os

    from run import END_TO_END

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in per_layer_spec()
    ]
