"""The ``simulate`` workload: simulations, each run to convergence.

One round runs, each once:

* four N-node fabric scenarios of verified retransmission endpoints
  around a shared-buffer switch (64-node ``incast``, 32-node
  ``all_to_all``, 64-node ``hot_receiver``, 16-node ``churn``), each
  under a fault plan dropping, duplicating and reordering packets;
* the 2-node bidirectional soak over a faulty link
  (``run_over_faulty_link``);
* the Fig. 5 vmmcESP ping-pong at 4 B and one-way stream at 1 KB.

The seed draws every fault plan's dice seed (fresh per round and
scenario) and, through the fabric config, the churn scenario's extra
flows; the rates, node counts and message counts are fixed, so the
seed varies which packets fail, not how many fail on average.  The
verifier, the C compiler and the daemon do not run.
"""

from __future__ import annotations

import dataclasses
import random

from repro.sim.fabric import FabricConfig, run_fabric
from repro.sim.faults import FaultPlan
from repro.sim.timing import CostModel
from repro.vmmc import workloads
from repro.vmmc.retransmission import RetransFirmware, run_over_faulty_link

import checks
import common

# scenario -> (nodes, messages per flow)
FABRICS = {
    "incast": (64, 8),
    "all_to_all": (32, 2),
    "hot_receiver": (64, 6),
    "churn": (16, 20),
}
FABRIC_RATES = dict(drop=0.02, dup=0.01, reorder=0.01)
LINK_MESSAGES = 300
LINK_RATES = dict(drop=0.05, dup=0.02, reorder=0.02)
PINGPONG_BYTES = 4
STREAM_BYTES = 1024


class State:
    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"perfbench/simulate/{seed}")
        self.cost = CostModel()
        # Compile every firmware program the rounds use (the VMMC ESP
        # firmware and one retransmission program per message count)
        # and fill the engine's handler tables, outside the timed phase.
        for messages in {0, LINK_MESSAGES, *(m for _, m in FABRICS.values())}:
            RetransFirmware(self.cost, 0, messages=messages)
        workloads.pingpong_latency("esp", PINGPONG_BYTES, rounds=1, warmup=0)
        workloads.one_way_bandwidth("esp", STREAM_BYTES, messages=1)
        self.rounds = 0


def setup(seed: int) -> State:
    return State(seed)


def make_round(state: State) -> list:
    state.rounds += 1
    ops = []
    for scenario, (nodes, messages) in FABRICS.items():
        ops.append(("fabric", scenario, nodes, messages,
                    state.rng.randrange(1 << 30)))
    ops.append(("link", state.rng.randrange(1 << 30)))
    ops.append(("pingpong",))
    ops.append(("stream",))
    state.rng.shuffle(ops)
    return ops


def fabric_config(op) -> tuple[FabricConfig, FaultPlan]:
    _, scenario, nodes, messages, dice = op
    config = FabricConfig(nodes=nodes, scenario=scenario, messages=messages,
                          seed=dice)
    return config, FaultPlan(seed=dice, **FABRIC_RATES)


def _slim(report):
    """The report without the per-link and per-endpoint counters the
    checks do not read, so outputs kept for the checks do not grow the
    process with the number of rounds run."""
    nodes = [{"node": node["node"],
              "endpoints": [{k: ep[k] for k in ("peer", "heap_live_objects",
                                                "heap_live_baseline")}
                            for ep in node["endpoints"]]}
             for node in report.node_stats]
    switch = report.network.get("switch")
    return dataclasses.replace(
        report, node_stats=nodes, faults={},
        network={"switch": dict(switch)} if switch is not None else {})


def run_op(state: State, op):
    kind = op[0]
    if kind == "fabric":
        report = run_fabric(*fabric_config(op))
        if op[1] == "churn":
            return report, report.stats_json()
        return _slim(report), None
    if kind == "link":
        return run_over_faulty_link(
            messages=LINK_MESSAGES, messages_back=LINK_MESSAGES,
            plan=FaultPlan(seed=op[1], **LINK_RATES))
    if kind == "pingpong":
        return workloads.pingpong_latency("esp", PINGPONG_BYTES)
    return workloads.one_way_bandwidth("esp", STREAM_BYTES)


def check(state: State, done) -> dict[int, list[str]]:
    problems: dict[int, list[str]] = {}
    baseline = {
        "pingpong": workloads.pingpong_latency("orig", PINGPONG_BYTES),
        "stream": workloads.one_way_bandwidth("orig", STREAM_BYTES),
    }
    for index, item in enumerate(done):
        if item.error is not None:
            continue
        kind = item.op[0]
        if kind == "fabric":
            found = checks.fabric(item.output[0])
        elif kind == "link":
            found = checks.faulty_link(item.output)
        else:
            found = checks.fig5(item.output, baseline[kind], state.cost,
                                "latency" if kind == "pingpong"
                                else "bandwidth")
        if found:
            problems[index] = found
    # The same (config, plan) run again gives byte-identical stats; the
    # churn scenario is the cheapest fabric run to repeat.
    churn = next((i for i, d in enumerate(done) if d.error is None
                  and d.op[:2] == ("fabric", "churn")), None)
    if churn is not None:
        again = run_fabric(*fabric_config(done[churn].op))
        found = checks.deterministic(done[churn].output[1],
                                     again.stats_json())
        if found:
            problems.setdefault(churn, []).extend(found)
    return problems


def _fig5_instructions(run, *args) -> tuple:
    """Run one Fig. 5 benchmark, capturing its platform to read the ESP
    instruction counters of both NICs."""
    pairs = []
    build_pair = workloads.build_pair

    def capture(*a, **k):
        pairs.append(build_pair(*a, **k))
        return pairs[-1]

    workloads.build_pair = capture
    try:
        result = run("esp", *args)
    finally:
        workloads.build_pair = build_pair
    instructions = sum(nic.firmware.machine.counters.instructions
                       for nic in pairs[0].nics)
    return result, instructions


def layer_counts(state: State, done) -> dict:
    fabrics = [d.output[0] for d in done
               if d.output is not None and d.op[0] == "fabric"]
    links = [d.output for d in done
             if d.output is not None and d.op[0] == "link"]
    events = sum(r.events for r in fabrics + links)
    seconds = sum(d.seconds for d in done
                  if d.output is not None and d.op[0] in ("fabric", "link"))
    sims = fabrics + links
    latency, lat_instrs = _fig5_instructions(workloads.pingpong_latency,
                                             PINGPONG_BYTES)
    stream, bw_instrs = _fig5_instructions(workloads.one_way_bandwidth,
                                           STREAM_BYTES)
    return {
        "events.dispatched": events / max(len(sims), 1),
        "events.per_s": events / seconds if seconds else 0.0,
        "switch.drops": (sum(r.network.get("switch", {})
                             .get("congestion_drops", 0) for r in fabrics)
                         / max(len(fabrics), 1)),
        "sim.fw_latency_us": latency.latency_us,
        "sim.fw_bandwidth_mb_s": stream.bandwidth_mb_s,
        "fw.instrs_per_msg": ((lat_instrs + bw_instrs)
                              / (latency.messages + stream.messages)),
    }


def peak_rss_mb(state: State) -> float:
    return common.peak_rss_mb()


def cpu_seconds(state: State) -> float:
    return common.cpu_seconds()


def pids(state: State) -> list[int]:
    return []


def teardown(state: State) -> None:
    pass
