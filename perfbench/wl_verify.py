"""The ``verify`` workload: model-checking jobs, each run to its verdict.

The mix (every round holds each job once, in a seeded order):

* the §5.3 per-process memory-safety checks of the VMMC firmware, with
  the environment plans below, plain and with ``reduce="por,sym"``;
* the three seeded VMMC memory bugs (leak, double free, use after free);
* two whole-program retransmission protocols ``protocol_source(w, m)``,
  one from each size class below, under plain depth-first search,
  ``por,sym``, sharded breadth-first search with ``jobs=2`` and
  bit-state search, plus the three ``BUGGY_VARIANTS`` at the same sizes
  under plain search and ``por,sym``.

The seed picks the protocol sizes (once per run) and the job order
(per round).  Each size class holds sizes whose state spaces are within
about 10% of each other, so the seed varies the inputs, not the amount
of work in a round.  Frontend and IR of every whole program run once in
set-up; the memory-safety jobs isolate and compile their process per job
(``build_isolated_machine``), as the verifier's public entry point does.
"""

from __future__ import annotations

import random

from repro.lang.program import frontend
from repro.api import compile_source
from repro.runtime.machine import Machine
from repro.verify.bitstate import BitstateExplorer
from repro.verify.counterexample import ReplayError, replay_violation
from repro.verify.environment import ChoiceWriter, SinkReader
from repro.verify.explorer import Explorer
from repro.verify.memsafety import build_isolated_machine
from repro.verify.parallel import ParallelExplorer
from repro.vmmc.firmware_esp import VMMC_ESP_SOURCE
from repro.vmmc.retransmission import (
    BUGGY_VARIANTS,
    buggy_source,
    protocol_source,
)

import checks
import common

# §5.3 environment plans per process (bounded environments for the
# processes whose counters grow without bound).
PLANS = {
    "sm1": dict(int_domain=(0, 40, 5000), env_budget=3),
    "receiver": dict(int_domain=(0, 1), env_budget=3),
    "pageTable": dict(int_domain=(0, 1), env_budget=4),
    "completer": dict(int_domain=(0, 1)),
    "acker": dict(int_domain=(0, 1)),
    "sender": dict(int_domain=(0, 1), env_budget=2),
}
MAX_OBJECTS = 24
MAX_STATES = 100_000

# Seeded memory bugs of §5.3: (fragment, replacement, object-table
# size).  A leak trips the bounded objectId table only once garbage
# accumulates, so its table is sized to hold a clean run and not a
# leaking one.
SEEDED_BUGS = {
    "leak_chunk_buffer": (
        "out( chunkC, { dest, chunk, msgid, last, buf });\n                unlink( buf);",
        "out( chunkC, { dest, chunk, msgid, last, buf });",
        4,
    ),
    "double_free": (
        "out( chunkC, { dest, size, msgid, 1, ibuf });\n            unlink( ibuf);",
        "out( chunkC, { dest, size, msgid, 1, ibuf });\n            unlink( ibuf);\n            unlink( ibuf);",
        12,
    ),
    "use_after_free": (
        "out( chunkC, { dest, size, msgid, 1, ibuf });\n            unlink( ibuf);",
        "unlink( ibuf);\n            out( chunkC, { dest, size, msgid, 1, ibuf });",
        12,
    ),
}
BUG_PROCESS = "sm1"

# Protocol size classes: (window, messages) pairs whose plain searches
# expand near-equal numbers of transitions (4370 vs 4414, and 2153 vs
# 2048).  Every size sends more messages than its window holds, so
# each of the BUGGY_VARIANTS is reachable (a window overrun needs
# messages > window).
SIZE_CLASSES = ([(2, 5), (1, 16)], [(2, 3), (1, 9)])
SEARCHES = ("dfs", "por_sym", "bfs2", "bitstate")
BITMAP_BITS = 1 << 22


def _protocol_externals():
    # The lossy-wire harness's environment (as in
    # repro.vmmc.retransmission.build_machine): timer kicks on demand,
    # completion and drop reports absorbed.
    return {
        "timeoutC": ChoiceWriter(["Timeout"], [("Timeout", (0,))]),
        "allDoneC": SinkReader(["Done"]),
        "dropC": SinkReader(["Drop"]),
    }


class State:
    def __init__(self, seed: int):
        rng = random.Random(f"perfbench/verify/{seed}")
        self.vmmc = frontend(VMMC_ESP_SOURCE, "vmmc.esp")
        self.bug_fronts = {}
        for bug, (old, new, _) in SEEDED_BUGS.items():
            if old not in VMMC_ESP_SOURCE:
                raise RuntimeError(f"seeded bug {bug!r} no longer applies")
            self.bug_fronts[bug] = frontend(
                VMMC_ESP_SOURCE.replace(old, new), "vmmc.esp")
        self.sizes = [rng.choice(cls) for cls in SIZE_CLASSES]
        self.programs = {}
        for w, m in self.sizes:
            self.programs[("correct", w, m)] = compile_source(
                protocol_source(w, m), "retransmission.esp")
            for variant in BUGGY_VARIANTS:
                self.programs[(variant, w, m)] = compile_source(
                    buggy_source(variant, w, m), "retransmission.esp")
        self.jobs = []
        for process in PLANS:
            for reduce in (None, "por,sym"):
                self.jobs.append(("memsafety", process, reduce))
        for bug in SEEDED_BUGS:
            self.jobs.append(("bug", bug, None))
        for w, m in self.sizes:
            for search in SEARCHES:
                self.jobs.append(("protocol", ("correct", w, m), search))
            for variant in BUGGY_VARIANTS:
                for search in ("dfs", "por_sym"):
                    self.jobs.append(("protocol", (variant, w, m), search))
        self.rng = random.Random(f"perfbench/verify/{seed}/order")


def setup(seed: int) -> State:
    return State(seed)


def make_round(state: State) -> list:
    jobs = list(state.jobs)
    state.rng.shuffle(jobs)
    return jobs


def _memsafety_machine(front, process: str, max_objects: int):
    machine, _report = build_isolated_machine(
        front, process, max_objects=max_objects, **PLANS[process])
    return machine


def run_op(state: State, job):
    kind, what, mode = job
    if kind == "memsafety":
        machine = _memsafety_machine(state.vmmc, what, MAX_OBJECTS)
        return Explorer(machine, max_states=MAX_STATES, reduce=mode).explore()
    if kind == "bug":
        machine = _memsafety_machine(state.bug_fronts[what], BUG_PROCESS,
                                     SEEDED_BUGS[what][2])
        return Explorer(machine, max_states=MAX_STATES).explore()
    machine = Machine(state.programs[what], externals=_protocol_externals())
    # The correct protocol is searched exhaustively so the four search
    # modes can be compared state for state; buggy ones stop at the
    # first violation.
    exhaustive = what[0] == "correct"
    if mode == "dfs":
        return Explorer(machine, stop_at_first=not exhaustive).explore()
    if mode == "por_sym":
        return Explorer(machine, stop_at_first=not exhaustive,
                        reduce="por,sym").explore()
    if mode == "bfs2":
        return ParallelExplorer(machine, jobs=2,
                                stop_at_first=not exhaustive).explore()
    return BitstateExplorer(machine, bitmap_bits=BITMAP_BITS,
                            stop_at_first=not exhaustive).explore()


def states_of(result) -> int:
    return getattr(result, "states", None) or getattr(result, "states_stored", 0)


def check(state: State, done) -> dict[int, list[str]]:
    """Every check of the workload over the timed phases' operations;
    returns problems keyed by operation index."""
    problems: dict[int, list[str]] = {}
    by_job: dict[tuple, list[int]] = {}
    for index, item in enumerate(done):
        if item.error is None:
            by_job.setdefault(item.op, []).append(index)

    def add(index, found):
        if found:
            problems.setdefault(index, []).extend(found)

    for job, indices in by_job.items():
        kind, what, mode = job
        for index in indices:
            result = done[index].output
            if kind == "memsafety":
                add(index, checks.verdict(result, expect_ok=True))
            elif kind == "bug":
                add(index, checks.memory_bug(what, result))
            else:
                add(index, checks.verdict(
                    result, expect_ok=what[0] == "correct",
                    kind="assertion"))
        # Reduced and plain search agree on every model.
        if kind == "memsafety" and mode == "por,sym":
            plain = by_job.get(("memsafety", what, None), [])
            for index in indices:
                for other in plain[:1]:
                    add(index, checks.same_verdict(
                        done[other].output, done[index].output))
        if kind == "protocol" and mode != "dfs":
            plain = by_job.get(("protocol", what, "dfs"), [])
            for index in indices:
                for other in plain[:1]:
                    add(index, checks.same_verdict(
                        done[other].output, done[index].output))
                    if what[0] == "correct" and mode in ("bfs2", "bitstate"):
                        add(index, checks.same_states(
                            done[other].output, done[index].output,
                            mode))
    # Every counterexample replays on the AST reference walker (each
    # distinct one once: repeats of a job usually find the same trace).
    replayed: dict[tuple, list[str]] = {}
    for job, indices in by_job.items():
        if job[0] == "memsafety":
            continue
        for index in indices:
            result = done[index].output
            if result is None or result.ok:
                continue
            key = (job, tuple(result.violations[0].trace))
            if key not in replayed:
                replayed[key] = _replay(state, job, result)
            add(index, replayed[key])
    return problems


def _replay(state: State, job, result) -> list[str]:
    kind, what, _mode = job
    if kind == "bug":
        fresh = _memsafety_machine(state.bug_fronts[what], BUG_PROCESS,
                                   SEEDED_BUGS[what][2])
        reference = Machine(fresh.program, externals=fresh.externals,
                            max_objects=SEEDED_BUGS[what][2], engine="ast")
    else:
        reference = Machine(state.programs[what],
                            externals=_protocol_externals(), engine="ast")
    violation = result.violations[0]
    try:
        replayed = replay_violation(reference, violation)
    except ReplayError as err:
        return [f"{job}: counterexample does not replay on the AST "
                f"walker: {err}"]
    if replayed.kind != violation.kind:
        return [f"{job}: replay gives {replayed.kind}, search gave "
                f"{violation.kind}"]
    return []


def _search_mode(job) -> str:
    kind, _what, mode = job
    if kind == "bug" or mode is None:
        return "dfs"
    return "por_sym" if mode == "por,sym" else mode


def layer_counts(state: State, done) -> dict:
    results = [(d.op, d.output) for d in done if d.output is not None]
    ops = max(len(results), 1)
    values = {
        "explorer.states": sum(states_of(r) for _, r in results) / ops,
        "explorer.transitions": sum(r.transitions for _, r in results) / ops,
    }
    for mode in SEARCHES:
        mine = [r for job, r in results if _search_mode(job) == mode]
        seconds = sum(r.elapsed_seconds for r in mine)
        values[f"explorer.states_per_s.{mode}"] = (
            sum(states_of(r) for r in mine) / seconds if seconds else 0.0)
    plain = [r for job, r in results if _search_mode(job) == "dfs"]
    values["collapse.bytes_per_state"] = (
        sum(r.memory_bytes for r in plain)
        / max(sum(r.states for r in plain), 1))
    reduced = [r for job, r in results if _search_mode(job) == "por_sym"]
    pruned = sum(r.transitions_pruned for r in reduced)
    expanded = sum(r.transitions for r in reduced)
    values["reduction.pruned_ratio"] = pruned / max(pruned + expanded, 1)
    return values


def peak_rss_mb(state: State) -> float:
    return common.peak_rss_mb()


def cpu_seconds(state: State) -> float:
    return common.cpu_seconds()


def pids(state: State) -> list[int]:
    return []


def teardown(state: State) -> None:
    pass
