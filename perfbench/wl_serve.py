"""The ``serve`` workload: a closed loop against one ``espc serve`` daemon.

One client process keeps one connection to a daemon with two workers
and sends its next request only after the reply to the previous one.  Requests are verification jobs over relay pipelines
(``programs.relay``), in rounds of fixed make-up:

* 60 exact repeats of pool programs — cache hits;
* 12 alpha-renamed and reformatted resubmissions of pool programs —
  hits after the daemon re-keys them through frontend and IR;
* 2 programs never seen before (a fresh payload constant on a fixed
  pipeline) — misses, which run a verification in a worker and write
  the cache.

Pool programs are drawn with skewed popularity (weight 1/rank over ten
programs of 5 to ~3300 transitions, two of them failing an
assertion); the seed draws those choices, the payloads and the order.
Set-up starts the daemon and verifies every pool program once, so the
pool is in the cache before the timed phase.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

from repro.api import compile_source, verify_source
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, wait_for_server
from repro.serve.keys import canonical_ir_hash

import checks
import common
from programs import relay

WORKERS = 2
# (stages, messages, assertion holds) of the pool programs, most
# popular first.
POOL = [(4, 2, True), (4, 3, True), (6, 3, True), (5, 3, False),
        (6, 4, True), (8, 4, True), (6, 6, True), (8, 5, True),
        (5, 4, False), (12, 4, True)]
MISS_SHAPE = (4, 3)
# Misses are a trickle: the checks verify every miss again in-process,
# so their share of the daemon's work bounds how long a run's checks
# take.
ROUND = {"repeat": 60, "renamed": 12, "miss": 2}
# Replies whose key and result body feed the result-cache measurement.
SAMPLED_BODIES = 200


def _pool_source(index: int, names: str = "", layout: int = 0) -> str:
    stages, messages, holds = POOL[index]
    return relay(stages, messages, payload=1, expect=1 if holds else 2,
                 names=names, layout=layout)


class State:
    def __init__(self, seed: int):
        self.rng = random.Random(f"perfbench/serve/{seed}")
        self.socket = os.path.relpath(os.path.join(common.WORK, "serve.sock"))
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        self.log = open(os.path.join(common.WORK, "serve.log"), "w")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cli", "serve",
             "--socket", self.socket, "--workers", str(WORKERS)],
            stdout=subprocess.DEVNULL, stderr=self.log,
            env=common.child_env())
        self.client: ServeClient | None = None
        self.serial = 0
        self.bodies: list[tuple[str, dict]] = []
        self.weights = [1.0 / (rank + 1) for rank in range(len(POOL))]
        try:
            wait_for_server(self.socket, timeout=60)
            with ServeClient(self.socket) as client:
                for index in range(len(POOL)):
                    reply = client.submit({"source": _pool_source(index)})
                    if not reply.get("ok"):
                        raise RuntimeError(f"pool program {index}: {reply}")
                self.stats_before = client.stats()
            self.client = ServeClient(self.socket, timeout=120)
            self.pids = [self.daemon.pid,
                         *self.stats_before["workers"]["pids"]]
        except BaseException:
            self.stop()
            raise

    def stats(self) -> dict:
        with ServeClient(self.socket) as client:
            return client.stats()

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.daemon.poll() is None:
            try:
                with ServeClient(self.socket, timeout=30) as client:
                    client.shutdown()
            except OSError:
                self.daemon.terminate()
            try:
                self.daemon.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait(timeout=30)
        self.log.close()


def setup(seed: int) -> State:
    return State(seed)


def make_round(state: State) -> list:
    ops = []
    for kind, count in ROUND.items():
        for _ in range(count):
            state.serial += 1
            if kind == "miss":
                payload = 1000 + state.serial
                ops.append(("miss", None, relay(*MISS_SHAPE, payload=payload)))
                continue
            index = state.rng.choices(range(len(POOL)), state.weights)[0]
            if kind == "repeat":
                ops.append(("repeat", index, _pool_source(index)))
            else:
                ops.append(("renamed", index, _pool_source(
                    index, names=f"_{state.serial}",
                    layout=1 + state.serial % 3)))
    state.rng.shuffle(ops)
    return ops


def run_op(state: State, op) -> dict:
    reply = state.client.submit({"source": op[2]})
    if len(state.bodies) < SAMPLED_BODIES and reply.get("ok"):
        state.bodies.append((reply["key"], reply["result"]))
    # Keep what the checks read, so kept replies stay small.
    body = reply.get("result") or {}
    return {"ok": reply.get("ok"), "kind": reply.get("kind"),
            "error": reply.get("error"), "cached": reply.get("cached"),
            "coalesced": reply.get("coalesced"),
            "result": {k: body.get(k)
                       for k in ("verdict", "states", "transitions")}}


def _reference(source: str) -> dict:
    start = common.clock()
    result = verify_source(source)
    return {"verdict": "ok" if result.ok else "violations",
            "states": result.states, "transitions": result.transitions,
            "seconds": common.clock() - start}


def check(state: State, done) -> dict[int, list[str]]:
    """Every reply against an in-process ``verify`` of the same job (one
    per distinct program), and the daemon's books."""
    problems: dict[int, list[str]] = {}
    state.references = {("pool", i): _reference(_pool_source(i))
                        for i in range(len(POOL))}
    for index, item in enumerate(done):
        if item.error is not None:
            continue
        kind, pool_index, source = item.op
        if kind == "miss":
            reference = state.references[("miss", index)] = _reference(source)
        else:
            reference = state.references[("pool", pool_index)]
        found = checks.reply(item.output, reference, kind != "miss")
        if found:
            problems[index] = found
    state.stats_after = state.stats()
    found = checks.books(state.stats_after)
    if found and done:
        problems.setdefault(len(done) - 1, []).extend(found)
    return problems


def layer_counts(state: State, done) -> dict:
    replies = [d for d in done if d.output is not None and d.output.get("ok")]
    hits = [d.seconds for d in replies if d.output.get("cached")]
    misses = [d.seconds for d in replies if not d.output.get("cached")]
    every = [d.seconds for d in done]
    # Layers inside the daemon, measured here on the same inputs: the
    # re-keying of resubmitted text, and the result cache's get and put
    # on the keys and bodies the daemon returned.
    renamed = [d.op[2] for d in done if d.op[0] == "renamed"][:50]
    start = common.clock()
    for source in renamed:
        canonical_ir_hash(compile_source(source))
    rekey = (common.clock() - start) / max(len(renamed), 1)
    cache = ResultCache(None, max_entries=4096)
    bodies = state.bodies
    start = common.clock()
    for key, body in bodies:
        cache.put(key, body)
    put = (common.clock() - start) / max(len(bodies), 1)
    start = common.clock()
    for key, _body in bodies:
        cache.get(key)
    get = (common.clock() - start) / max(len(bodies), 1)
    job = common.median([r["seconds"] for key, r in state.references.items()
                         if key[0] == "miss"])
    before, after = state.stats_before, state.stats_after
    p99 = common.percentile(every, 99) if len(every) >= 1000 else 0.0
    return {
        "serve.hit_ratio": len(hits) / max(len(replies), 1),
        "serve.coalesced": (after["jobs"]["coalesced"]
                            - before["jobs"]["coalesced"]),
        "serve.rekey_ms": rekey * 1000,
        "serve.cache_get_ms": get * 1000,
        "serve.cache_put_ms": put * 1000,
        "serve.job_ms": job * 1000,
        "serve.queue_ms": (common.median(misses) - job) * 1000,
        "serve.hit_p50_ms": common.median(hits) * 1000,
        "serve.miss_p50_ms": common.median(misses) * 1000,
        "serve.p99_ms": p99 * 1000,
    }


def pids(state: State) -> list[int]:
    """The daemon and its workers."""
    return state.pids


def peak_rss_mb(state: State) -> float:
    """The daemon's and its workers' peak; the client is the load
    generator, not the system under test."""
    return common.peak_rss_mb(state.pids, own=False)


def cpu_seconds(state: State) -> float:
    return common.cpu_seconds(state.pids, own=False)


def teardown(state: State) -> None:
    state.stop()
