"""The program's layers, the public entry points timed for each, and the
per-layer metrics the traced run reports.

Span names are the metric prefixes: a span named ``synth.timing.analyze``
yields ``synth.timing.analyze.self_s`` and ``synth.timing.analyze.calls``.
Several entry points may share one name (``trial_cps_batch`` and
``trial_metrics_batch`` are both ``synth.timing.trial``).
"""

from __future__ import annotations

import importlib
from typing import Any

from tracer import Span, Tracer, attribute, layer_totals

__all__ = [
    "OPTIMIZER_PASSES",
    "SERVE_STAGES",
    "TIMED_LAYERS",
    "install",
    "per_layer_metrics",
    "per_layer_spec",
]

OPTIMIZER_PASSES = (
    "retime", "size_gates", "buffer_high_fanout", "recover_area", "balance_chains",
)
SERVE_STAGES = ("analyze", "retrieve", "draft", "revise", "synthesize")

#: ``(span name, "module" or "module:Class", attribute)`` for every
#: entry point timed by the traced run.
_FUNCTIONS = [
    ("hdl.elaborate", "repro.hdl.elaborator", "elaborate"),
    ("synth.techmap.map", "repro.synth.techmap", "map_to_library"),
    ("synth.techmap.cleanup", "repro.synth.techmap", "cleanup"),
    *[(f"synth.optimizer.{name}", "repro.synth.optimizer", name)
      for name in OPTIMIZER_PASSES],
    ("synth.explore", "repro.synth.explore", "explore_sizing"),
    ("mentor.analyze", "repro.mentor.analyzer", "analyze_design"),
    ("mentor.graph", "repro.mentor.circuit_graph", "build_circuit_graph"),
    ("parallel.map", "repro.parallel", "parallel_map"),
    ("parallel.map", "repro.parallel", "parallel_map_async"),
]
_METHODS = [
    ("hdl.netlist.clone", "repro.hdl.netlist:Netlist", "clone"),
    ("hdl.netlist.topo", "repro.hdl.netlist:Netlist", "topological_cells"),
    ("synth.timing.analyze", "repro.synth.timing:TimingEngine", "analyze"),
    ("synth.timing.trial", "repro.synth.timing:TimingEngine", "trial_cps_batch"),
    ("synth.timing.trial", "repro.synth.timing:TimingEngine", "trial_metrics_batch"),
    ("synth.power", "repro.synth.power:PowerAnalyzer", "analyze"),
    ("synth.power", "repro.synth.timing:TimingEngine", "dynamic_power"),
    ("synth.dcshell", "repro.synth.dcshell:DCShell", "run_script"),
    ("gnn.embed", "repro.mentor.embeddings:CircuitEncoder", "embed_design"),
    ("gnn.embed", "repro.mentor.embeddings:CircuitEncoder", "embed_designs"),
    ("rag.strategies", "repro.rag.synthrag:SynthRAG", "retrieve_strategies"),
    ("rag.strategies", "repro.rag.synthrag:SynthRAG", "retrieve_strategies_batch"),
    ("rag.manual", "repro.rag.synthrag:SynthRAG", "manual"),
    ("rag.manual", "repro.rag.synthrag:SynthRAG", "manual_batch"),
    ("rag.cypher", "repro.rag.synthrag:SynthRAG", "cypher"),
    ("llm.complete", "repro.llm.simulated:SimulatedLLM", "complete"),
    ("core.generator", "repro.core.generator:Generator", "draft"),
    ("core.generator", "repro.core.generator:Generator", "draft_from_retrieval"),
    ("core.synthexpert", "repro.core.synthexpert:SynthExpert", "refine"),
    ("core.synthexpert", "repro.core.synthexpert:SynthExpert", "plan"),
    ("core.synthexpert", "repro.core.synthexpert:SynthExpert", "apply"),
    ("serve.run", "repro.serve.engine:ServeEngine", "run"),
]

#: Layers reported with ``self_s`` and ``calls``.
TIMED_LAYERS = (
    "hdl.elaborate", "hdl.netlist.clone", "hdl.netlist.topo",
    "synth.techmap.map", "synth.techmap.cleanup",
    *[f"synth.optimizer.{name}" for name in OPTIMIZER_PASSES],
    "synth.timing.analyze", "synth.timing.trial", "synth.power",
    "synth.explore", "mentor.analyze", "mentor.graph", "gnn.embed",
    "rag.strategies", "rag.manual", "rag.cypher", "vectorstore.search",
    "llm.complete", "core.generator", "core.synthexpert",
)


def _observe_script(tracer: Tracer, result: Any) -> None:
    tracer.counters["synth.dcshell.scripts"] += 1
    if not result.success:
        tracer.counters["synth.dcshell.failed"] += 1


def _observe_refinement(tracer: Tracer, result: Any) -> None:
    tracer.counters["core.synthexpert.steps"] += len(result.trace.steps)
    tracer.counters["core.synthexpert.repaired"] += result.trace.num_repaired


def _observe_map(tracer: Tracer, result: Any) -> None:
    tracer.counters["parallel.map.tasks"] += len(result)


_OBSERVERS = {
    ("repro.synth.dcshell:DCShell", "run_script"): _observe_script,
    ("repro.core.synthexpert:SynthExpert", "apply"): _observe_refinement,
    ("repro.parallel", "parallel_map"): _observe_map,
}


def _resolve_class(target: str) -> type:
    module_name, class_name = target.split(":")
    return getattr(importlib.import_module(module_name), class_name)


def install(tracer: Tracer, index_class: type) -> None:
    """Wrap every timed entry point; ``index_class`` is the live vector index."""
    for name, module_name, attr in _FUNCTIONS:
        importlib.import_module(module_name)
        tracer.patch_function(
            module_name, attr, name, _OBSERVERS.get((module_name, attr))
        )
    for name, target, attr in _METHODS:
        tracer.patch_method(
            _resolve_class(target), attr, name, _OBSERVERS.get((target, attr))
        )
    tracer.patch_method(index_class, "search", "vectorstore.search")
    tracer.patch_method(index_class, "search_batch", "vectorstore.search")
    tracer.propagate_executor_context()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_spec() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    spec: list[tuple[str, str, str]] = []
    for layer in TIMED_LAYERS:
        spec.append((f"{layer}.self_s", "s", "lower"))
        spec.append((f"{layer}.calls", "count", "lower"))
    spec += [
        ("synth.dcshell.self_s", "s", "lower"),
        ("synth.dcshell.scripts", "count", "lower"),
        ("synth.dcshell.failed", "count", "lower"),
        ("synth.cache.hit_ratio", "ratio", "higher"),
        ("synth.frontend.hit_ratio", "ratio", "higher"),
        ("gnn.embed.hit_ratio", "ratio", "higher"),
        ("core.synthexpert.repair_ratio", "ratio", "lower"),
    ]
    spec += [(f"serve.{stage}.batch_fill", "sessions/batch", "higher")
             for stage in SERVE_STAGES]
    spec += [
        ("serve.run.self_s", "s", "lower"),
        ("parallel.map.self_s", "s", "lower"),
        ("parallel.map.tasks", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
    ]
    return spec


def per_layer_metrics(
    spans: list[Span],
    start: float,
    end: float,
    counters: dict[str, float],
    cache_ratios: dict[str, float],
    batch_fill: dict[str, float],
) -> tuple[dict[str, float], float]:
    """Per-layer values for one traced pass over ``[start, end]``.

    Returns ``(values, unattributed_s)``; ``values`` has every per-layer
    metric except the ``trace.*`` ones, which need the untraced pass.
    """
    self_time, unattributed = attribute(spans, start, end)
    totals = layer_totals(spans, self_time)
    values: dict[str, float] = {}
    for layer in (*TIMED_LAYERS, "synth.dcshell", "serve.run", "parallel.map"):
        entry = totals.get(layer, {"self_s": 0.0, "calls": 0})
        values[f"{layer}.self_s"] = entry["self_s"]
        if layer in TIMED_LAYERS:
            values[f"{layer}.calls"] = entry["calls"]
    values["synth.dcshell.scripts"] = counters.get("synth.dcshell.scripts", 0)
    values["synth.dcshell.failed"] = counters.get("synth.dcshell.failed", 0)
    values["parallel.map.tasks"] = counters.get("parallel.map.tasks", 0)
    values["core.synthexpert.repair_ratio"] = _ratio(
        counters.get("core.synthexpert.repaired", 0),
        counters.get("core.synthexpert.steps", 0),
    )
    values["synth.cache.hit_ratio"] = cache_ratios["synthesis"]
    values["synth.frontend.hit_ratio"] = cache_ratios["frontend"]
    values["gnn.embed.hit_ratio"] = cache_ratios["gnn_embed"]
    for stage in SERVE_STAGES:
        values[f"serve.{stage}.batch_fill"] = batch_fill.get(stage, 0.0)
    return values, unattributed
