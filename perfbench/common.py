"""Shared plumbing for the benchmark: the timed loop, statistics, peak
memory, the environment record and the result line.

Every workload module exposes the same small surface, which
``run.py`` drives:

* ``setup(seed) -> state`` — imports, fixed inputs, daemons;
  everything before the first timed operation;
* ``make_round(state)`` — returns one round: a list of operations, the
  same multiset of operations in every round of a run;
* ``run_op(state, op) -> output`` — one operation;
* ``check(state, done) -> dict[int, list[str]]`` — every output check,
  made after the timed phases, keyed by the index of the operation in
  ``done`` (an operation with problems counts as failed);
* ``layer_counts(state, done) -> dict`` — per-layer metrics read from
  the outputs and the program's own counters;
* ``peak_rss_mb(state)`` — the largest resident set among the
  processes that run the workload;
* ``cpu_seconds(state)`` — CPU seconds those processes used so far;
* ``pids(state)`` — the live processes ``setup`` started;
* ``teardown(state)`` — stop what ``setup`` started.

One operation is in flight at a time.

CPU times are reported at a reference speed (``Calibration``): the
virtual machine's CPUs do a fixed amount of work in CPU time that moves
by up to a factor of 1.6 within minutes, for every process alike, so a
fixed pure-Python kernel is timed between operations and every CPU time
is scaled by the kernel's reference time over its measured time.
"""

from __future__ import annotations

import ast
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

clock = time.perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Scratch space for everything a run writes (artifact caches, sockets,
# temp files, the run record and the traces); ignored by git.
WORK = os.path.join(ROOT, ".perfbench")


def child_env() -> dict:
    """The environment for processes the benchmark starts: the program
    from this checkout's ``src`` and temp files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    env["ESP_NATIVE_CACHE"] = os.path.join(WORK, "native")
    return env


@dataclass
class Done:
    """One finished operation of the timed phase."""

    op: object
    seconds: float
    output: object = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    round: int = 0


# The calibration kernel: parsing, JSON and integer arithmetic in plain
# Python, independent of the program under test.
_KERNEL_TEXT = "\n".join(
    f"def f{i}(a, b=({i}, 'v{i}')):\n    return [a + {i}, b, {{'k{i}': a * {i}}}]"
    for i in range(40))
_KERNEL_DATA = {f"k{i}": [i, str(i) * 3, {"x": i / 3, "y": [i] * 4}]
                for i in range(200)}
# The kernel's CPU seconds on the reference machine (the 2-vCPU virtual
# machine of perfbench/README.md); it only sets the unit.
KERNEL_REFERENCE_S = 0.004
# Seconds between kernel runs in a timed phase: often enough to follow
# the host's changes of speed, at ~4% of the phase's time.
KERNEL_INTERVAL_S = 0.1
# CPU seconds this process spent in the kernel; ``cpu_seconds`` leaves
# them out.
_kernel_cpu = 0.0


def _kernel() -> int:
    ast.parse(_KERNEL_TEXT)
    json.loads(json.dumps(_KERNEL_DATA, sort_keys=True))
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class Calibration:
    """The host's speed over a stretch of time, read from the CPU time of
    the calibration kernel run between operations.  ``to_reference`` scales CPU seconds measured in that
    stretch to the reference machine's speed."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall = 0.0
        self.run()  # first-call effects stay out of the samples
        self.samples.clear()
        self.wall = 0.0

    def run(self) -> None:
        global _kernel_cpu
        # With the collector off, the kernel's time does not depend on
        # the workload's heap.
        collecting = gc.isenabled()
        gc.disable()
        began, cpu = clock(), time.process_time()
        _kernel()
        cpu = time.process_time() - cpu
        if collecting:
            gc.enable()
        _kernel_cpu += cpu
        self.samples.append(cpu)
        self._last = clock()
        self.wall += self._last - began

    def maybe_run(self) -> None:
        if clock() - self._last >= KERNEL_INTERVAL_S:
            self.run()

    def to_reference(self, cpu_s: float) -> float:
        return cpu_s * KERNEL_REFERENCE_S / statistics.fmean(self.samples)


def timed_rounds(seconds: float, make_round, run_one, cpu_clock) -> "Phase":
    """Run whole rounds until ``seconds`` have elapsed; a round that has
    started always finishes, so every run attempts whole rounds and the
    failed share of attempted operations is the same in every run.
    Operations run one at a time, each started when the previous one
    has finished (a closed loop), with the calibration kernel between
    them.  ``cpu_clock`` reads the CPU seconds the workload's processes
    have used so far."""
    done: list[Done] = []
    rounds: list[float] = []
    calibration = Calibration()
    calibration.run()
    kernel_start = calibration.wall
    start, cpu_start = clock(), cpu_clock()
    while True:
        ops = make_round()
        began, kernel_wall = clock(), calibration.wall
        for op in ops:
            t0 = clock()
            try:
                output, error = run_one(op), None
            except Exception as err:  # a failed operation, counted as such
                output, error = None, f"{type(err).__name__}: {err}"
            done.append(Done(op, clock() - t0, output, error,
                             round=len(rounds)))
            calibration.maybe_run()
        rounds.append(clock() - began - (calibration.wall - kernel_wall))
        if clock() - start >= seconds:
            break
    cpu = cpu_clock() - cpu_start
    elapsed = clock() - start - (calibration.wall - kernel_start)
    return Phase(done, elapsed, rounds, cpu,
                 calibration.to_reference(cpu), calibration.samples)


@dataclass
class Phase:
    """The operations of one timed phase, the wall time of each round
    and the CPU time the workload used, as measured and at the
    reference speed.  Wall times leave the calibration kernel out."""

    done: list[Done]
    elapsed: float
    rounds: list[float]
    cpu: float
    cpu_reference: float
    kernel_cpu: list[float]

    def ops_per_cpu_s(self) -> float:
        """Operations per CPU-second the workload's processes used, at
        the reference speed."""
        return len(self.done) / self.cpu_reference

    def ops_per_s(self) -> float:
        """Operations per second of the median round: robust to a
        transient slowdown of the machine during one round."""
        counts = [0] * len(self.rounds)
        for item in self.done:
            counts[item.round] += 1
        return median([n / t for n, t in zip(counts, self.rounds)])

    def geomean_ms(self) -> float:
        """The geometric mean of the operations' wall times."""
        return geomean([item.seconds for item in self.done]) * 1000.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values) -> float:
    """Geometric mean: a typical operation's time on a mix of unequal
    operations, where each operation of a round weighs the same."""
    return statistics.geometric_mean(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), -(-len(ordered) * q // 100)))
    return ordered[int(rank) - 1]


def _proc_cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_seconds(pids=(), own: bool = True) -> float:
    """CPU seconds used so far by the live processes ``pids`` and, with
    ``own``, by this process (leaving out the calibration kernel) and
    its waited-for children.  Unlike wall time it leaves out time the
    virtual machine's CPUs were stolen by the host."""
    total = sum(_proc_cpu_s(pid) for pid in pids)
    if own:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        total += (time.process_time() - _kernel_cpu + children.ru_utime
                  + children.ru_stime)
    return total


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pids=(), own: bool = True) -> float:
    """Largest resident set among the live processes ``pids`` and, with
    ``own``, this process and its waited-for children, in MB."""
    kb = [_vm_hwm_kb(pid) for pid in pids]
    if own:
        kb += [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    return max(kb) / 1024.0


def _first_line(cmd) -> str | None:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=10, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = proc.stdout.strip().splitlines()
    return out[0] if proc.returncode == 0 and out else None


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = _first_line(["git", "rev-parse", "HEAD"])
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cc": _first_line(["cc", "--version"]),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def write_record(name: str, record: dict) -> str:
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, name)
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
