"""The benchmark command.

    python3 perfbench/run.py --workload {verify,simulate,build,serve}
                             --seed N --seconds S --trace {0,1}

Runs one workload from the root of a checkout and prints, as the last
line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (see
``perfbench/README.md``), measured untraced.  With ``--trace 1`` the
run first repeats the untraced timed phase, then runs a second timed
phase with span wrappers installed around the program's public
functions, and reports the per-layer ledger instead: per-layer
metrics, tracing overhead and span coverage; it also writes the spans
as JSON lines and as Chrome trace-event JSON under ``.perfbench/``.

Every run writes a run record (seed, environment, counts, every metric
with its unit) to ``.perfbench/record-<workload>-<seed>-<trace>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import subprocess
import sys
import tempfile

import common

WORKLOADS = ("verify", "simulate", "build", "serve")
SETUP_PROBES = 5
# Calibration kernel runs before and after each set-up probe.
SETUP_KERNELS = 10


def _load(workload: str):
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        raise SystemExit(f"no program sources under {common.SRC}")
    if common.SRC not in sys.path:
        sys.path.insert(0, common.SRC)
    return importlib.import_module(f"wl_{workload}")


def _prepare_dirs() -> None:
    tmp = os.path.join(common.WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    # Native artifacts stay in the checkout too (the build workload
    # points this at a fresh directory per operation).
    os.environ["ESP_NATIVE_CACHE"] = os.path.join(common.WORK, "native")


def setup_probe(workload: str, seed: int) -> tuple[float, float, float]:
    """One set-up in this fresh interpreter: imports, fixed inputs,
    daemons.  Returns its CPU seconds — this process's, plus the
    processes set-up started (the daemon and its workers) — at the
    reference speed and as measured, and its wall seconds.  The
    calibration kernel runs before and after set-up."""
    calibration = common.Calibration()
    for _ in range(SETUP_KERNELS):
        calibration.run()
    start, cpu_start = common.clock(), common.cpu_seconds()
    module = _load(workload)
    state = module.setup(seed)
    cpu = common.cpu_seconds(module.pids(state)) - cpu_start
    elapsed = common.clock() - start
    module.teardown(state)
    for _ in range(SETUP_KERNELS):
        calibration.run()
    return calibration.to_reference(cpu), cpu, elapsed


def measure_setup(workload: str,
                  seed: int) -> list[tuple[float, float, float]]:
    """(reference CPU, CPU, wall) seconds of set-up in ``SETUP_PROBES``
    fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             workload, "--seed", str(seed)],
            capture_output=True, text=True, env=common.child_env(),
            cwd=common.ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        samples.append(tuple(float(v) for v in proc.stdout.split()[-3:]))
    return samples


def _phase(module, state, seconds: float, tracer=None):
    def run_one(op):
        if tracer is None:
            return module.run_op(state, op)
        with tracer.span("op"):
            return module.run_op(state, op)

    return common.timed_rounds(seconds, lambda: module.make_round(state),
                               run_one, lambda: module.cpu_seconds(state))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_dirs()

    if args.setup_probe:
        print(" ".join(f"{v:.9f}" for v in setup_probe(args.setup_probe,
                                                        args.seed)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    module = _load(args.workload)
    # Byte-compile the program once so every set-up below (and in the
    # probes) measures warm imports, not a first run's compilation.
    compileall.compile_dir(common.SRC, quiet=1)

    import layers

    state = module.setup(args.seed)
    try:
        phase = _phase(module, state, args.seconds)
        traced, tracer = None, None
        if args.trace:
            tracer = layers.install()
            try:
                traced = _phase(module, state, args.seconds, tracer)
            finally:
                tracer.unpatch()
        peak = module.peak_rss_mb(state)
        every = phase.done + (traced.done if traced else [])
        problems = module.check(state, every)
        ledger = (layers.compute(module, state, phase, traced, tracer)
                  if args.trace else None)
    finally:
        module.teardown(state)
    setup_samples = measure_setup(args.workload, args.seed)

    for index, found in problems.items():
        every[index].problems.extend(found)
    failed = [d for d in every if d.error or d.problems]
    for item in failed[:5]:
        common.log(f"FAILED {item.op}: {item.error or item.problems}")

    e2e = {
        "setup_s": (common.median([ref for ref, _, _ in setup_samples]),
                    "s"),
        "peak_rss_mb": (peak, "MB"),
        "ops_per_cpu_s": (phase.ops_per_cpu_s(), "1/s"),
    }
    metrics = ledger if ledger is not None else e2e
    result = {
        "correct": not any(d.problems for d in every),
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": common.environment(),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": [{"op": repr(d.op), "error": d.error,
                      "problems": d.problems} for d in failed],
        "setup_reference_cpu_s": [ref for ref, _, _ in setup_samples],
        "setup_cpu_s": [cpu for _, cpu, _ in setup_samples],
        "setup_wall_s": [wall for _, _, wall in setup_samples],
        "timed_seconds": phase.elapsed,
        "round_seconds": phase.rounds,
        "cpu_seconds": phase.cpu,
        "reference_cpu_seconds": phase.cpu_reference,
        "kernel_cpu_s": phase.kernel_cpu,
        "ops": [[repr(d.op)[:48], round(d.seconds, 6), d.round]
                for d in phase.done],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "ops_per_s": phase.ops_per_s(),
        "per_layer": result["metrics"] if ledger is not None else None,
    }
    if tracer is not None:
        stem = os.path.join(common.WORK,
                            f"trace-{args.workload}-{args.seed}")
        tracer.write(stem + ".jsonl", stem + ".chrome.json")
        layers.print_table(args.workload, ledger)
    common.write_record(
        f"record-{args.workload}-{args.seed}-{args.trace}.json", record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
