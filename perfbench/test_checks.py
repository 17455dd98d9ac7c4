"""Each output check rejects a wrong output and passes a right one.

    python3 -m pytest perfbench/test_checks.py -q

The wrong outputs are built from the program's own result types, each
differing from a right output in the one property the check guards.
"""

from __future__ import annotations

import dataclasses
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

sys.path.insert(0, common.SRC)

import pytest  # noqa: E402

import checks  # noqa: E402
from repro.runtime.scheduler import RunResult  # noqa: E402
from repro.sim.fabric import FabricConfig, FabricReport, Flow  # noqa: E402
from repro.sim.timing import CostModel  # noqa: E402
from repro.verify.bitstate import BitstateResult  # noqa: E402
from repro.verify.explorer import ExploreResult  # noqa: E402
from repro.verify.properties import Violation  # noqa: E402
from repro.vmmc.retransmission import FaultyLinkReport  # noqa: E402
from repro.vmmc.workloads import BenchmarkResult  # noqa: E402


def _violation(kind="memory", message="use after free of object 3"):
    return Violation(kind, message, ["step"], 1)


def _result(states=10, violations=(), complete=True):
    return ExploreResult(states=states, transitions=2 * states,
                         violations=list(violations), complete=complete)


# -- verify ---------------------------------------------------------------------


def test_verdict():
    assert checks.verdict(_result(), expect_ok=True) == []
    assert checks.verdict(_result(violations=[_violation()]), True)
    assert checks.verdict(_result(complete=False), True)
    assert checks.verdict(_result(), expect_ok=False)
    assert checks.verdict(_result(violations=[_violation("deadlock")]),
                          expect_ok=False, kind="assertion")
    assert checks.verdict(_result(violations=[_violation("assertion")]),
                          expect_ok=False, kind="assertion") == []


def test_memory_bug():
    found = _result(violations=[_violation(message="use after free: x")])
    assert checks.memory_bug("use_after_free", found) == []
    assert checks.memory_bug("leak_chunk_buffer", found)
    assert checks.memory_bug("use_after_free", _result())
    wrong_kind = _result(violations=[_violation("assertion",
                                                "use after free")])
    assert checks.memory_bug("use_after_free", wrong_kind)


def test_same_verdict():
    ok, bad = _result(), _result(violations=[_violation()])
    assert checks.same_verdict(ok, _result(states=3)) == []
    assert checks.same_verdict(ok, bad)
    other_kind = _result(violations=[_violation("deadlock")])
    assert checks.same_verdict(bad, other_kind)


def test_same_states():
    plain = _result(states=100)
    assert checks.same_states(plain, _result(states=100), "bfs2") == []
    assert checks.same_states(plain, _result(states=99), "bfs2")
    bits = BitstateResult(states_stored=100, fill_factor=0.001)
    assert checks.same_states(plain, bits, "bitstate") == []
    assert checks.same_states(plain, dataclasses.replace(bits, states_stored=98),
                              "bitstate")
    assert checks.same_states(plain, dataclasses.replace(bits, fill_factor=0.2),
                              "bitstate")


# -- simulate -------------------------------------------------------------------


def _fabric(**changes) -> FabricReport:
    flows = [Flow(1, 0, 3), Flow(2, 0, 3)]
    report = FabricReport(
        converged=True, time_us=100.0, converged_at_us=90.0, events=50,
        config=FabricConfig(nodes=3, scenario="incast", messages=3),
        flows=flows,
        delivered={(0, 1): [0, 10, 20], (0, 2): [0, 10, 20]},
        node_stats=[{"node": 0, "endpoints": [
            {"peer": 1, "heap_live_objects": 2, "heap_live_baseline": 2}]}],
        network={"switch": {"buffer_used": 0}}, faults={}, plan="none")
    return dataclasses.replace(report, **changes)


def test_fabric():
    assert checks.fabric(_fabric()) == []
    assert checks.fabric(_fabric(converged=False))
    assert checks.fabric(_fabric(delivered={(0, 1): [0, 20, 10],
                                            (0, 2): [0, 10, 20]}))
    assert checks.fabric(_fabric(delivered={(0, 1): [0, 10],
                                            (0, 2): [0, 10, 20]}))
    assert checks.fabric(_fabric(network={"switch": {"buffer_used": 1040}}))
    leak = [{"node": 0, "endpoints": [
        {"peer": 1, "heap_live_objects": 3, "heap_live_baseline": 2}]}]
    assert checks.fabric(_fabric(node_stats=leak))


def _link(**changes) -> FaultyLinkReport:
    report = FaultyLinkReport(
        converged=True, time_us=10.0, events=5, messages=(2, 1),
        delivered=([0], [0, 10]),
        nics=[{"side": s, "heap_live_objects": 1, "heap_live_baseline": 1}
              for s in (0, 1)],
        wire={}, faults={}, plan="none")
    return dataclasses.replace(report, **changes)


def test_faulty_link():
    assert checks.faulty_link(_link()) == []
    assert checks.faulty_link(_link(converged=False))
    assert checks.faulty_link(_link(delivered=([0], [0, 10, 10])))
    assert checks.faulty_link(_link(delivered=([0], [10, 0])))
    leak = [{"side": 0, "heap_live_objects": 2, "heap_live_baseline": 1}]
    assert checks.faulty_link(_link(nics=leak))


def test_deterministic():
    assert checks.deterministic('{"a": 1}', '{"a": 1}') == []
    assert checks.deterministic('{"a": 1}', '{"a": 2}')


def test_fig5():
    cost = CostModel()
    base = BenchmarkResult("orig", 4, latency_us=19.0, messages=30)
    esp = BenchmarkResult("esp", 4, latency_us=43.0, messages=30)
    assert checks.fig5(esp, base, cost, "latency") == []
    assert checks.fig5(dataclasses.replace(esp, messages=29), base, cost,
                       "latency")
    assert checks.fig5(dataclasses.replace(esp, latency_us=1.0), base, cost,
                       "latency")
    base_bw = BenchmarkResult("orig", 1024, bandwidth_mb_s=50.0, messages=40)
    esp_bw = BenchmarkResult("esp", 1024, bandwidth_mb_s=29.0, messages=40)
    assert checks.fig5(esp_bw, base_bw, cost, "bandwidth") == []
    assert checks.fig5(dataclasses.replace(esp_bw, bandwidth_mb_s=200.0),
                       base_bw, cost, "bandwidth")
    assert checks.fig5(dataclasses.replace(esp_bw, size=512), base_bw, cost,
                       "bandwidth")


# -- build ----------------------------------------------------------------------


def test_native_run():
    assert checks.native_run(RunResult("done", 200, 9000), 200) == []
    assert checks.native_run(RunResult("idle", 200, 9000), 200)
    assert checks.native_run(RunResult("done", 198, 9000), 200)


def test_same_execution():
    run = ("done", 100, 2458, [("client", [46611])])
    assert checks.same_execution(run, run) == []
    assert checks.same_execution(run, ("done", 100, 2459, run[3]))
    assert checks.same_execution(run, ("done", 100, 2458, [("client", [1])]))


def test_warm_load():
    assert checks.warm_load(True) == []
    assert checks.warm_load(False)


# -- serve ----------------------------------------------------------------------

_REFERENCE = {"verdict": "ok", "states": 80, "transitions": 144}


def _reply(cached=True, **body):
    result = {"verdict": "ok", "states": 80, "transitions": 144, **body}
    return {"ok": True, "result": result, "cached": cached}


def test_reply():
    assert checks.reply(_reply(), _REFERENCE, expect_cached=True) == []
    assert checks.reply(_reply(cached=False), _REFERENCE, False) == []
    assert checks.reply(_reply(states=81), _REFERENCE, True)
    assert checks.reply(_reply(verdict="violations"), _REFERENCE, True)
    assert checks.reply(_reply(cached=False), _REFERENCE, True)
    assert checks.reply(_reply(cached=True), _REFERENCE, False)
    assert checks.reply({"ok": False, "kind": "internal", "error": "boom"},
                        _REFERENCE, None)


def test_books():
    stats = {"jobs": {"submitted": 10, "completed": 3, "coalesced": 1,
                      "failed": 0},
             "cache": {"hits": 6}}
    assert checks.books(stats) == []
    stats["cache"]["hits"] = 5
    assert checks.books(stats)
    stats["cache"]["hits"] = 6
    stats["jobs"]["failed"] = 1
    assert checks.books(stats)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
