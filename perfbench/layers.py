"""The per-layer ledger: which public calls get spans, and how spans and
the program's own counters become per-layer metrics.

Each metric names the end-to-end metric and workload it should move.
A layer a workload does not exercise reads 0 on that workload.  Times
from spans are per operation of the traced phase (``_s`` metrics:
seconds of self time per operation) or per call (``_ms`` metrics:
mean milliseconds per call); counts and rates taken from results
come from the untraced phase, so tracing does not distort them.
"""

from __future__ import annotations

import subprocess
import sys

import common
from tracing import Tracer

# name -> (unit, better, what it should move)
METRICS = {
    "cli.import_s": ("s", "lower", "setup_s on all"),
    "lang.frontend_ms": ("ms", "lower", "ops_per_cpu_s on build and serve; setup_s elsewhere"),
    "ir.compile_ms": ("ms", "lower", "ops_per_cpu_s on build and serve; setup_s elsewhere"),
    "ir.instrs": ("count", "lower", "sim.fw_latency_us, sim.fw_bandwidth_mb_s on simulate"),
    "fw.instrs_per_msg": ("count", "lower", "sim.fw_latency_us, sim.fw_bandwidth_mb_s on simulate"),
    "c.codegen_ms": ("ms", "lower", "ops_per_cpu_s on build"),
    "c.bytes": ("B", "lower", "ops_per_cpu_s on build"),
    "cc.build_ms": ("ms", "lower", "ops_per_cpu_s on build"),
    "native.load_cold_ms": ("ms", "lower", "ops_per_cpu_s on build"),
    "native.load_warm_ms": ("ms", "lower", "ops_per_cpu_s on build"),
    "native.run_s": ("s", "lower", "ops_per_cpu_s on build"),
    "native.msgs_per_s": ("1/s", "higher", "ops_per_cpu_s on build"),
    "build.cold_p50_ms": ("ms", "lower", "ops_per_cpu_s on build"),
    "engine.handlers_ms": ("ms", "lower", "setup_s on simulate; ops_per_cpu_s on verify"),
    "engine.exec_s": ("s", "lower", "ops_per_cpu_s on verify, simulate; nothing on build"),
    "machine.apply_s": ("s", "lower", "ops_per_cpu_s on verify, simulate"),
    "machine.moves_s": ("s", "lower", "ops_per_cpu_s on verify, simulate"),
    "machine.snapshot_s": ("s", "lower", "ops_per_cpu_s on verify"),
    "machine.restore_s": ("s", "lower", "ops_per_cpu_s on verify"),
    "machine.restores": ("count", "lower", "ops_per_cpu_s on verify"),
    "match.s": ("s", "lower", "ops_per_cpu_s on verify, simulate"),
    "explorer.states": ("count", "lower", "ops_per_cpu_s on verify"),
    "explorer.transitions": ("count", "lower", "ops_per_cpu_s on verify"),
    "explorer.self_s": ("s", "lower", "ops_per_cpu_s on verify"),
    "explorer.states_per_s.dfs": ("1/s", "higher", "ops_per_cpu_s on verify"),
    "explorer.states_per_s.por_sym": ("1/s", "higher", "ops_per_cpu_s on verify"),
    "explorer.states_per_s.bfs2": ("1/s", "higher", "ops_per_cpu_s on verify"),
    "explorer.states_per_s.bitstate": ("1/s", "higher", "ops_per_cpu_s on verify"),
    "collapse.add_s": ("s", "lower", "ops_per_cpu_s on verify"),
    "collapse.size_s": ("s", "lower", "ops_per_cpu_s on verify"),
    "collapse.bytes_per_state": ("B", "lower", "peak_rss_mb on verify"),
    "reduction.canon_s": ("s", "lower", "ops_per_cpu_s on verify"),
    "reduction.pruned_ratio": ("ratio", "higher", "ops_per_cpu_s on verify"),
    "memsafety.isolate_ms": ("ms", "lower", "ops_per_cpu_s on verify"),
    "events.dispatched": ("count", "lower", "ops_per_cpu_s on simulate"),
    "events.per_s": ("1/s", "higher", "ops_per_cpu_s on simulate"),
    "events.self_s": ("s", "lower", "ops_per_cpu_s on simulate"),
    "switch.send_s": ("s", "lower", "ops_per_cpu_s on simulate"),
    "switch.drops": ("count", "lower", "ops_per_cpu_s on simulate"),
    "firmware.step_s": ("s", "lower", "ops_per_cpu_s on simulate"),
    "packets.csum_s": ("s", "lower", "ops_per_cpu_s on simulate"),
    "faults.apply_s": ("s", "lower", "ops_per_cpu_s on simulate"),
    "sim.fw_latency_us": ("us", "lower", "exact; moves with fw.instrs_per_msg"),
    "sim.fw_bandwidth_mb_s": ("MB/s", "higher", "exact; moves with fw.instrs_per_msg"),
    "serve.hit_ratio": ("ratio", "higher", "ops_per_cpu_s on serve"),
    "serve.coalesced": ("count", "higher", "ops_per_cpu_s on serve"),
    "serve.rekey_ms": ("ms", "lower", "serve.hit_p50_ms on serve"),
    "serve.cache_get_ms": ("ms", "lower", "serve.hit_p50_ms, serve.miss_p50_ms on serve"),
    "serve.cache_put_ms": ("ms", "lower", "serve.miss_p50_ms on serve"),
    "serve.job_ms": ("ms", "lower", "serve.miss_p50_ms, serve.p99_ms on serve"),
    "serve.queue_ms": ("ms", "lower", "serve.miss_p50_ms, serve.p99_ms on serve"),
    "serve.hit_p50_ms": ("ms", "lower", "ops_per_cpu_s on serve"),
    "serve.miss_p50_ms": ("ms", "lower", "ops_per_cpu_s on serve"),
    "serve.p99_ms": ("ms", "lower", "ops_per_cpu_s on serve"),
    "ops.wall_per_s": ("1/s", "higher", "wall-clock twin of ops_per_cpu_s"),
    "ops.geomean_ms": ("ms", "lower", "geometric mean of operation wall times"),
    "trace.overhead": ("ratio", "lower", "1 - traced/untraced ops_per_cpu_s"),
    "trace.coverage": ("ratio", "higher", "share of traced wall time inside layer spans"),
}

# Per-operation self time: metric -> span name.
_PER_OP_SELF = {
    "native.run_s": "native.run",
    "engine.exec_s": "engine.exec",
    "machine.apply_s": "machine.apply",
    "machine.moves_s": "machine.moves",
    "machine.snapshot_s": "machine.snapshot",
    "machine.restore_s": "machine.restore",
    "match.s": "match",
    "explorer.self_s": "explorer",
    "collapse.add_s": "collapse.add",
    "collapse.size_s": "collapse.size",
    "reduction.canon_s": "reduction.canon",
    "events.self_s": "events",
    "switch.send_s": "switch.send",
    "firmware.step_s": "firmware.step",
    "packets.csum_s": "packets.csum",
    "faults.apply_s": "faults.apply",
}

# Mean per call: metric -> span name.
_PER_CALL = {
    "lang.frontend_ms": "lang.frontend",
    "ir.compile_ms": "ir.compile",
    "c.codegen_ms": "c.codegen",
    "memsafety.isolate_ms": "memsafety.isolate",
}


def install() -> Tracer:
    """Wrap every traced public call; the caller unpatches."""
    from repro.backends.c import build, codegen
    from repro.ir import pipeline
    from repro.lang import program
    from repro.runtime import compile as engine
    from repro.runtime import interp
    from repro.runtime.machine import Machine
    from repro.runtime.native import NativeScheduler
    from repro.serve.client import ServeClient
    from repro.sim.events import Simulator
    from repro.sim.fabric import FabricNodeFirmware
    from repro.sim.faults import WireFaultInjector
    from repro.sim.switch import Switch
    from repro.verify import collapse, memsafety, reduction
    from repro.verify.bitstate import BitstateExplorer
    from repro.verify.explorer import Explorer
    from repro.verify.parallel import ParallelExplorer
    from repro.vmmc import packets
    from repro.vmmc.baseline import VMMCBaselineFirmware
    from repro.vmmc.firmware_esp import EspMachineFirmware

    tracer = Tracer()
    tracer.patch(program, "frontend", "lang.frontend")
    tracer.patch(pipeline, "compile_ir", "ir.compile")
    tracer.patch(codegen, "generate_native", "c.codegen",
                 observe=lambda out: len(out[0]))
    tracer.patch(codegen, "generate_c", "c.codegen", observe=len)
    tracer.patch(build, "build_shared", "cc.build")
    tracer.patch(NativeScheduler, "run", "native.run")
    tracer.patch(engine, "handlers_for", "engine.handlers")
    tracer.patch(engine, "run_until_block_compiled", "engine.exec")
    for attr, name in (("apply", "machine.apply"),
                       ("enabled_moves", "machine.moves"),
                       ("snapshot", "machine.snapshot"),
                       ("restore", "machine.restore")):
        tracer.patch(Machine, attr, name)
    tracer.patch(interp, "try_match", "match", reentrant=False)
    for cls in (Explorer, ParallelExplorer, BitstateExplorer):
        tracer.patch(cls, "explore", "explorer")
    tracer.patch(collapse.MachineCollapseStore, "add_current", "collapse.add")
    tracer.patch(collapse, "deep_size", "collapse.size", reentrant=False)
    tracer.patch(reduction, "canonical_reduced", "reduction.canon")
    tracer.patch(memsafety, "build_isolated_machine", "memsafety.isolate")
    tracer.patch(Simulator, "run_until", "events")
    tracer.patch(Switch, "send", "switch.send")
    for cls in (EspMachineFirmware, FabricNodeFirmware, VMMCBaselineFirmware):
        tracer.patch(cls, "step", "firmware.step")
    tracer.patch(packets, "packet_csum", "packets.csum")
    tracer.patch(WireFaultInjector, "apply", "faults.apply")
    tracer.patch(ServeClient, "request", "serve.request")
    # The build workload's own cold and warm loads, so native machine
    # construction splits into codegen, cc and the rest (dlopen and
    # symbol setup) per cache state.
    wl_build = sys.modules.get("wl_build")
    if wl_build is not None:
        tracer.patch(wl_build, "load_cold", "native.load_cold")
        tracer.patch(wl_build, "load_warm", "native.load_warm")
    return tracer


def cli_import_s(samples: int = 3) -> float:
    """``import repro.tools.cli`` in a fresh interpreter (median)."""
    code = ("import time; t = time.perf_counter(); import repro.tools.cli; "
            "print(time.perf_counter() - t)")
    values = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=common.child_env(),
                             cwd=common.ROOT, timeout=60, check=True)
        values.append(float(out.stdout.strip()))
    return common.median(values)


def vmmc_ir_instrs() -> int:
    """IR instructions of the VMMC firmware after optimisation."""
    from repro.api import compile_source_with_stats
    from repro.vmmc.firmware_esp import VMMC_ESP_SOURCE

    _program, stats, _front = compile_source_with_stats(VMMC_ESP_SOURCE)
    return sum(after for _before, after in stats.per_process_instrs.values())


def compute(module, state, phase, traced, tracer: Tracer) -> dict:
    values = {name: 0.0 for name in METRICS}
    ops = max(len(traced.done), 1)
    for metric, span in _PER_OP_SELF.items():
        values[metric] = tracer.self_s(span) / ops
    for metric, span in _PER_CALL.items():
        values[metric] = tracer.mean_ms(span)
    values["machine.restores"] = tracer.calls("machine.restore") / ops
    values["engine.handlers_ms"] = tracer.total_s("engine.handlers") * 1000 / ops
    if tracer.calls("c.codegen"):
        values["c.bytes"] = tracer.observed["c.codegen"] / tracer.calls("c.codegen")
    values["cc.build_ms"] = tracer.mean_ms("cc.build", parent="native.load_cold")
    values["native.load_cold_ms"] = tracer.mean_ms("native.load_cold",
                                                   self_time=True)
    values["native.load_warm_ms"] = tracer.mean_ms("native.load_warm",
                                                   self_time=True)
    values["ir.instrs"] = vmmc_ir_instrs()
    values.update(module.layer_counts(state, phase.done))
    values["cli.import_s"] = cli_import_s()
    values["ops.wall_per_s"] = phase.ops_per_s()
    values["ops.geomean_ms"] = phase.geomean_ms()
    values["trace.overhead"] = 1.0 - traced.ops_per_cpu_s() / phase.ops_per_cpu_s()
    values["trace.coverage"] = tracer.covered / traced.elapsed
    return {name: (values[name], METRICS[name][0]) for name in METRICS}


def print_table(workload: str, ledger: dict) -> None:
    print(f"per-layer ledger, workload {workload}")
    print(f"{'metric':34} {'value':>16} {'unit':8} should move")
    for name, (value, unit) in ledger.items():
        print(f"{name:34} {value:16.6g} {unit:8} {METRICS[name][2]}")
