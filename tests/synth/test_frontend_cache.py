"""Frontend (elaborated netlist) cache: memory layer, disk layer, env gates.

``elaborate_cached`` keys on hash(RTL source, top, params) and hands out
private clones of a pristine cached netlist, so repeated compiles of the
same design skip parsing/elaboration entirely while callers stay free to
mutate their copy.  ``REPRO_FRONTEND_CACHE`` switches the cache off
(``0``-family), keeps the in-memory LRU only (unset/``1``-family), or
names a directory enabling the cross-process pickle layer.
"""

import pickle

import pytest

from repro import perf
from repro.hdl import elaborate
from repro.synth.cache import (
    FrontendCache,
    clear_caches,
    elaborate_cached,
    frontend_cache,
    frontend_cache_mode,
    frontend_key,
    netlist_cache_stats,
)

COUNTER = """
module counter #(parameter WIDTH = 4) (
  input clk,
  input [WIDTH-1:0] d,
  output [WIDTH-1:0] q
);
  reg [WIDTH-1:0] state;
  always @(posedge clk) state <= d ^ state;
  assign q = state;
endmodule
"""

ADDER = """
module adder (input a, input b, output s, output c);
  assign s = a ^ b;
  assign c = a & b;
endmodule
"""


@pytest.fixture(autouse=True)
def _clean_caches(monkeypatch):
    # Pin both gates on so the suite is independent of the ambient
    # environment (CI also runs it with the caches forced off).
    monkeypatch.setenv("REPRO_FRONTEND_CACHE", "1")
    monkeypatch.setenv("REPRO_SYNTH_CACHE", "1")
    clear_caches()
    perf.reset()
    yield
    clear_caches()


class TestKey:
    def test_key_depends_on_source_top_params(self):
        base = frontend_key(COUNTER, "counter")
        assert frontend_key(COUNTER, "counter") == base
        assert frontend_key(ADDER, "adder") != base
        assert frontend_key(COUNTER, None) != base
        assert frontend_key(COUNTER, "counter", {"WIDTH": 8}) != base

    def test_param_order_is_canonical(self):
        a = frontend_key(COUNTER, "counter", {"A": 1, "B": 2})
        b = frontend_key(COUNTER, "counter", {"B": 2, "A": 1})
        assert a == b


class TestMemoryLayer:
    def test_warm_compile_hits_and_matches(self):
        cold = elaborate_cached(COUNTER, "counter")
        warm = elaborate_cached(COUNTER, "counter")
        assert perf.counter("netcache.miss") == 1
        assert perf.counter("netcache.hit") == 1
        assert perf.counter("frontend.hit") == 1
        assert warm.fingerprint() == cold.fingerprint()
        warm.validate()

    def test_hits_are_private_clones(self):
        first = elaborate_cached(ADDER, "adder")
        # Mutating one caller's copy must not leak into the next hit.
        victim = next(iter(first.cells))
        first.remove_cell(victim)
        second = elaborate_cached(ADDER, "adder")
        assert victim in second.cells
        second.validate()

    def test_clone_uid_counter_does_not_collide(self):
        elaborate_cached(ADDER, "adder")
        warm = elaborate_cached(ADDER, "adder")
        fresh_net = warm.add_net()
        assert fresh_net.name not in elaborate(ADDER, "adder").nets
        warm.validate()

    def test_params_are_part_of_the_key(self):
        four = elaborate_cached(COUNTER, "counter", params={"WIDTH": 4})
        eight = elaborate_cached(COUNTER, "counter", params={"WIDTH": 8})
        assert perf.counter("netcache.miss") == 2
        assert len(eight.nets) > len(four.nets)

    def test_lru_eviction_bounds_entries(self):
        cache = FrontendCache(max_entries=2)
        nl = elaborate(ADDER, "adder")
        for i in range(4):
            cache.put(f"k{i}", nl)
        assert len(cache) == 2
        assert cache.get("k0") is None
        assert cache.get("k3") is not None

    def test_stats_provider_shape(self):
        elaborate_cached(ADDER, "adder")
        elaborate_cached(ADDER, "adder")
        stats = netlist_cache_stats()
        assert stats == {"entries": 1, "hits": 1, "misses": 1}
        snapshot = perf.snapshot()
        assert snapshot["caches"]["frontend"]["hits"] == 1
        assert snapshot["caches"]["frontend"]["disk_hits"] == 0


class TestSingleFlight:
    def test_concurrent_callers_elaborate_one_key_once(self, monkeypatch):
        """Threads racing on one cold key: one elaborates, the rest wait
        and are served clones of its result."""
        import sys
        import threading
        import time

        from repro.synth import cache as cache_mod

        calls = []

        def slow_elaborate(source, top=None, params=None):
            calls.append(top)
            time.sleep(0.05)  # hold the miss open while the others arrive
            return elaborate(source, top, params)

        monkeypatch.setattr(cache_mod, "elaborate", slow_elaborate)
        workers = 8
        barrier = threading.Barrier(workers)
        results = [None] * workers

        def run(slot):
            barrier.wait(timeout=30)
            results[slot] = elaborate_cached(COUNTER, "counter")

        threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert calls == ["counter"]
        assert perf.counter("netcache.miss") == 1
        assert perf.counter("netcache.hit") == workers - 1
        fingerprints = {netlist.fingerprint() for netlist in results}
        assert len(fingerprints) == 1
        assert len({id(netlist) for netlist in results}) == workers
        assert not frontend_cache()._inflight  # per-key locks released

    def test_distinct_keys_do_not_block_each_other(self, monkeypatch):
        import threading

        from repro.synth import cache as cache_mod

        inside = threading.Event()
        release = threading.Event()

        def gated_elaborate(source, top=None, params=None):
            if top == "counter":
                inside.set()
                assert release.wait(timeout=10)
            return elaborate(source, top, params)

        monkeypatch.setattr(cache_mod, "elaborate", gated_elaborate)
        slow = threading.Thread(
            target=elaborate_cached, args=(COUNTER, "counter")
        )
        slow.start()
        assert inside.wait(timeout=10)
        # another key completes while "counter" is still elaborating
        assert elaborate_cached(ADDER, "adder").fingerprint()
        release.set()
        slow.join(timeout=30)
        assert not slow.is_alive()


class TestEnvGates:
    def test_mode_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_FRONTEND_CACHE", raising=False)
        assert frontend_cache_mode() == (True, None)
        for off in ("0", "false", "NO", "off"):
            monkeypatch.setenv("REPRO_FRONTEND_CACHE", off)
            assert frontend_cache_mode() == (False, None)
        for on in ("1", "true", "YES", "on", ""):
            monkeypatch.setenv("REPRO_FRONTEND_CACHE", on)
            assert frontend_cache_mode() == (True, None)
        monkeypatch.setenv("REPRO_FRONTEND_CACHE", "/tmp/fe-cache")
        assert frontend_cache_mode() == (True, "/tmp/fe-cache")

    def test_disabled_frontend_cache_always_elaborates(self, monkeypatch):
        monkeypatch.setenv("REPRO_FRONTEND_CACHE", "0")
        elaborate_cached(ADDER, "adder")
        elaborate_cached(ADDER, "adder")
        assert perf.counter("netcache.hit") == 0
        assert perf.counter("netcache.miss") == 0
        assert len(frontend_cache()) == 0

    def test_synth_cache_gate_also_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYNTH_CACHE", "0")
        elaborate_cached(ADDER, "adder")
        elaborate_cached(ADDER, "adder")
        assert len(frontend_cache()) == 0


class TestDiskLayer:
    def test_disk_round_trip_across_processes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FRONTEND_CACHE", str(tmp_path))
        cold = elaborate_cached(COUNTER, "counter")
        assert perf.counter("frontend.disk_write") == 1
        pickles = list(tmp_path.glob("*.netlist.pkl"))
        assert len(pickles) == 1
        # A fresh process has an empty memory layer but finds the pickle.
        frontend_cache().clear()
        warm = elaborate_cached(COUNTER, "counter")
        assert perf.counter("frontend.disk_hit") == 1
        assert warm.fingerprint() == cold.fingerprint()
        warm.validate()
        # ...and the disk hit re-populates the memory layer.
        elaborate_cached(COUNTER, "counter")
        assert perf.counter("frontend.disk_hit") == 1

    def test_unpickled_netlist_keeps_working(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FRONTEND_CACHE", str(tmp_path))
        elaborate_cached(COUNTER, "counter")
        frontend_cache().clear()
        warm = elaborate_cached(COUNTER, "counter")
        # Journal/uid state is rebuilt on unpickle: new nets and cells get
        # non-colliding names and structural edits still journal cleanly.
        before = warm.version
        net = warm.add_net()
        warm.add_cell("BUF", [next(iter(warm.primary_inputs))], net.name)
        assert warm.version > before
        warm.validate()

    def test_corrupt_pickle_falls_back_to_elaboration(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FRONTEND_CACHE", str(tmp_path))
        key = frontend_key(ADDER, "adder")
        (tmp_path / f"{key}.netlist.pkl").write_bytes(b"not a pickle")
        netlist = elaborate_cached(ADDER, "adder")
        netlist.validate()
        assert perf.counter("frontend.disk_hit") == 0
        assert perf.counter("netcache.miss") == 1

    def test_non_netlist_pickle_is_rejected(self, tmp_path):
        cache = FrontendCache()
        key = "deadbeef"
        with open(tmp_path / f"{key}.netlist.pkl", "wb") as fh:
            pickle.dump({"not": "a netlist"}, fh)
        assert cache.get(key, str(tmp_path)) is None
