"""The ``build`` workload: ESP source to a running native machine.

An operation takes one program never built before from source text to
a loaded native machine with an empty artifact cache (frontend, IR,
C codegen, ``cc``, ``dlopen``), runs it to completion on the native
engine, then loads it a second time from the now-warm cache.  Each
round builds the three Figure 5 shapes (ping-pong, one-way windowed
bandwidth, bidirectional), in a seeded order; the seed draws each
program's message count (distinct within a run, so every build is
cold) from a range where every run moves 6-8 x 10^5 messages.  The
closure engine and the verifier do not run in the timed phase.
"""

from __future__ import annotations

import os
import random
import shutil

from repro.api import compile_source
from repro.backends.c.build import require_cc
from repro.runtime.machine import create_machine
from repro.runtime.scheduler import create_scheduler

import checks
import common
from programs import BUILD_SHAPES

WORDS = 32
MESSAGES = (300_000, 400_000)
SMALL = (40, 4)  # (messages, words) of the cross-engine instances


class State:
    def __init__(self, seed: int):
        require_cc()
        self.rng = random.Random(f"perfbench/build/{seed}")
        self.used: set[int] = set()
        self.cache_root = os.path.join(common.WORK, "native")
        shutil.rmtree(self.cache_root, ignore_errors=True)
        os.makedirs(self.cache_root)
        self.builds = 0


def setup(seed: int) -> State:
    return State(seed)


def make_round(state: State) -> list:
    ops = []
    for shape in BUILD_SHAPES:
        messages = state.rng.randrange(*MESSAGES)
        while messages in state.used:
            messages = state.rng.randrange(*MESSAGES)
        state.used.add(messages)
        ops.append((shape, messages))
    state.rng.shuffle(ops)
    return ops


def load_cold(program):
    return create_machine(program, engine="native")


def load_warm(program):
    return create_machine(program, engine="native")


def _fresh_cache(state: State) -> str:
    state.builds += 1
    path = os.path.join(state.cache_root, str(state.builds))
    os.environ["ESP_NATIVE_CACHE"] = path
    return path


def run_op(state: State, op) -> dict:
    shape, messages = op
    make, _per_message = BUILD_SHAPES[shape]
    cache = _fresh_cache(state)
    try:
        start = common.clock()
        program = compile_source(make(messages, WORDS), f"{shape}.esp")
        machine = load_cold(program)
        cold = common.clock() - start
        start = common.clock()
        result = create_scheduler(machine).run()
        run = common.clock() - start
        warm = load_warm(program)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return {"result": result, "cold_s": cold, "run_s": run,
            "warm_hit": warm.cache_hit}


def execution(program, engine: str) -> tuple:
    machine = create_machine(program, engine=engine)
    result = create_scheduler(machine).run()
    return (result.reason, result.transfers, result.instructions,
            [(name, list(values)) for name, values in machine.prints])


def check(state: State, done) -> dict[int, list[str]]:
    problems: dict[int, list[str]] = {}
    for index, item in enumerate(done):
        if item.error is not None:
            continue
        shape, messages = item.op
        found = checks.native_run(item.output["result"],
                                  BUILD_SHAPES[shape][1] * messages)
        found += checks.warm_load(item.output["warm_hit"])
        if found:
            problems[index] = found
    # A small instance of every shape executes identically on the native
    # engine and on the AST reference walker.
    for shape, (make, _per) in BUILD_SHAPES.items():
        program = compile_source(make(*SMALL), f"{shape}.esp")
        _fresh_cache(state)
        found = checks.same_execution(execution(program, "ast"),
                                      execution(program, "native"))
        if found:
            for index, item in enumerate(done):
                if item.op[0] == shape:
                    problems.setdefault(index, []).extend(found)
    return problems


def layer_counts(state: State, done) -> dict:
    outs = [d.output for d in done if d.output is not None]
    seconds = sum(o["run_s"] for o in outs)
    return {
        "native.msgs_per_s": (sum(o["result"].transfers for o in outs)
                              / seconds if seconds else 0.0),
        "build.cold_p50_ms": common.median([o["cold_s"] for o in outs]) * 1000,
    }


def peak_rss_mb(state: State) -> float:
    return common.peak_rss_mb()


def cpu_seconds(state: State) -> float:
    return common.cpu_seconds()


def pids(state: State) -> list[int]:
    return []


def teardown(state: State) -> None:
    shutil.rmtree(state.cache_root, ignore_errors=True)
