"""Scalar reference implementations (test oracles).

Each production engine in ``repro`` has exactly one execution path — the
vectorized / batched one.  The straightforward per-cell, per-trial and
per-graph formulations those engines replaced live here instead, where
the parity suites compare production against them bit for bit and the
perf microbenchmarks time them as baselines.  Nothing under ``src``
imports this package.

* :mod:`.timing` — dict-walk STA: full rebuild, heap-ordered incremental
  update, recorded-predecessor path trace, apply/measure/revert trials.
* :mod:`.power` — per-cell probability/activity propagation.
* :mod:`.soa` — the per-cell SoA lowering (sink walk, topological-sort
  levels).
* :mod:`.passes` — apply/analyze/revert candidate loops of the sizing,
  area-recovery and fanout-buffering passes, and clone-snapshot retiming.
* :mod:`.gnn` — per-graph metric-learning epochs and the O(n^2) loop
  multi-similarity loss.
* :mod:`.techmap` — cleanup passes that rescan the whole netlist every
  round, journaling one event per edit.
"""
