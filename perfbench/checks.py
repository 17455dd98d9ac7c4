"""Output checks, built apart from the program.

Every check states a known answer (paper §5.3 verdicts, message counts
implied by a program's shape), an agreement between two independent
paths (search modes, engines, a second run, an in-process reference),
or a physical or conservation property (delivery exactly once and in
order, buffers draining to zero, latency no lower than the fixed costs
on the path, bandwidth no higher than the slowest link).  None compares
against a copy of an earlier run's output.

Each function returns a list of problems; an empty list means the
output passed.  ``test_checks.py`` shows that each one rejects a wrong
output.
"""

from __future__ import annotations

# -- verify -----------------------------------------------------------------------

# §5.3: the verifier finds every seeded memory bug, as a memory-safety
# violation whose message names what went wrong.
BUG_MESSAGES = {
    "leak_chunk_buffer": ("object table exhausted",),
    "double_free": ("double free", "use after free"),
    "use_after_free": ("use after free",),
}


def verdict(result, expect_ok: bool, kind: str | None = None) -> list[str]:
    """A clean model is ``ok`` after a complete search; a buggy one has
    a violation (of ``kind``, when given)."""
    if result is None:
        return ["no result"]
    if expect_ok:
        if not result.ok:
            return [f"clean model reported {result.violations[0].kind}: "
                    f"{result.violations[0].message[:80]}"]
        if getattr(result, "complete", True) is False:
            return ["clean model's search did not complete"]
        return []
    if result.ok:
        return ["seeded bug not found"]
    if kind is not None and result.violations[0].kind != kind:
        return [f"expected a {kind} violation, got "
                f"{result.violations[0].kind}"]
    return []


def memory_bug(bug: str, result) -> list[str]:
    found = verdict(result, expect_ok=False, kind="memory")
    if found:
        return [f"{bug}: {p}" for p in found]
    message = result.violations[0].message
    if not any(text in message for text in BUG_MESSAGES[bug]):
        return [f"{bug}: violation message {message[:80]!r} names none of "
                f"{BUG_MESSAGES[bug]}"]
    return []


def same_verdict(plain, other) -> list[str]:
    """A reduced or differently-searched run agrees with plain search
    on the verdict and the violation kind."""
    if plain.ok != other.ok:
        return [f"verdict differs from plain search ({plain.ok} vs "
                f"{other.ok})"]
    if not plain.ok and plain.violations[0].kind != other.violations[0].kind:
        return [f"violation kind differs from plain search "
                f"({plain.violations[0].kind} vs "
                f"{other.violations[0].kind})"]
    return []


def same_states(plain, other, mode: str) -> list[str]:
    """Exhaustive searches store the same states whatever the search
    order.  Bit-state search may lose states to hash collisions; the
    claim holds only while its bitmap is nearly empty, so a fill above
    1% is itself a failure of the set-up."""
    stored = getattr(other, "states", None)
    if stored is None:
        stored = other.states_stored
        if other.fill_factor > 0.01:
            return [f"{mode}: bitmap {other.fill_factor:.2%} full, too "
                    "full to compare state counts"]
    if stored != plain.states:
        return [f"{mode} stored {stored} states, plain search "
                f"{plain.states}"]
    return []


# -- simulate -----------------------------------------------------------------------


def stream(messages: int) -> list[int]:
    """What a receiver must deliver: the protocol's sender process sends
    payload ``i * 10`` as message ``i``."""
    return [i * 10 for i in range(messages)]


def fabric(report) -> list[str]:
    """Every flow converges and is delivered exactly once and in order;
    the payloads delivered add up to flows x messages; the switch's
    buffer accounting returns to zero; no endpoint leaks heap objects."""
    problems = []
    if not report.converged:
        problems.append("did not converge")
    if any(report.delivered[(f.dst, f.src)] != stream(f.messages)
           for f in report.flows):
        problems.append("a flow was not delivered exactly once in order")
    delivered = sum(len(report.delivered[(f.dst, f.src)])
                    for f in report.flows)
    expected = sum(f.messages for f in report.flows)
    if delivered != expected:
        problems.append(f"delivered {delivered} payloads, flows carry "
                        f"{expected}")
    switch = report.network.get("switch")
    if switch is not None and switch.get("buffer_used", 0) != 0:
        problems.append(f"switch buffer holds {switch['buffer_used']} B "
                        "after the run")
    for node in report.node_stats:
        for ep in node["endpoints"]:
            if ep["heap_live_objects"] != ep["heap_live_baseline"]:
                problems.append(f"node {node['node']} peer {ep['peer']} "
                                "leaked heap objects")
    return problems


def faulty_link(report) -> list[str]:
    problems = []
    if not report.converged:
        problems.append("did not converge")
    if (report.delivered[1] != stream(report.messages[0])
            or report.delivered[0] != stream(report.messages[1])):
        problems.append("not delivered exactly once in order")
    delivered = len(report.delivered[0]) + len(report.delivered[1])
    if delivered != sum(report.messages):
        problems.append(f"delivered {delivered} payloads, sent "
                        f"{sum(report.messages)}")
    for nic in report.nics:
        if nic["heap_live_objects"] != nic["heap_live_baseline"]:
            problems.append(f"side {nic['side']} leaked heap objects")
    return problems


def deterministic(first: str, second: str) -> list[str]:
    if first != second:
        return ["the same (config, plan) gave different stats_json"]
    return []


def fig5(esp, baseline, cost, kind: str) -> list[str]:
    """The vmmcESP run moves the same bytes as the hand-written
    firmware; its latency is no lower than the fixed costs on the path
    (wire, network DMA, notification) and its bandwidth no higher than
    the slower of the PCI and wire rates."""
    problems = []
    if (esp.messages, esp.size) != (baseline.messages, baseline.size):
        problems.append(f"vmmcESP moved {esp.messages} x {esp.size} B, "
                        f"baseline {baseline.messages} x {baseline.size} B")
    if kind == "latency":
        floor = (cost.wire_time_us(esp.size) + cost.net_dma_us(esp.size)
                 + cost.host_notify_us)
        if not esp.latency_us >= floor:
            problems.append(f"latency {esp.latency_us:.3f} us below the "
                            f"fixed per-hop cost {floor:.3f} us")
    else:
        ceiling = min(cost.host_dma_mb_s, cost.wire_mb_s)
        if not 0 < esp.bandwidth_mb_s <= ceiling:
            problems.append(f"bandwidth {esp.bandwidth_mb_s:.3f} MB/s "
                            f"outside (0, {ceiling}] MB/s")
    return problems


# -- build --------------------------------------------------------------------------


def native_run(result, expected_transfers: int) -> list[str]:
    problems = []
    if result.reason != "done":
        problems.append(f"native run ended with {result.reason!r}")
    if result.transfers != expected_transfers:
        problems.append(f"{result.transfers} transfers, the shape implies "
                        f"{expected_transfers}")
    return problems


def same_execution(reference, native) -> list[str]:
    """``(transfers, instructions, prints)`` of the AST walker and the
    native engine on one program."""
    if reference != native:
        return [f"native engine {native} differs from the AST walker "
                f"{reference}"]
    return []


def warm_load(cache_hit: bool) -> list[str]:
    return [] if cache_hit else ["warm load missed the artifact cache"]


# -- serve --------------------------------------------------------------------------


def reply(reply: dict, reference: dict, expect_cached: bool | None) -> list[str]:
    """A daemon reply equals the in-process verification of the same
    job on verdict, states and transitions, and is a cache hit exactly
    when the job's canonical program was verified before."""
    if not reply.get("ok"):
        return [f"daemon error: {reply.get('kind')}: "
                f"{str(reply.get('error'))[:80]}"]
    body = reply["result"]
    problems = []
    for field in ("verdict", "states", "transitions"):
        if body.get(field) != reference[field]:
            problems.append(f"{field} {body.get(field)!r}, in-process "
                            f"verify gives {reference[field]!r}")
    cached = bool(reply.get("cached"))
    if expect_cached is not None and cached != expect_cached \
            and not reply.get("coalesced"):
        problems.append("expected a cache " + ("hit" if expect_cached
                                                else "miss"))
    return problems


def books(stats: dict) -> list[str]:
    """The daemon's books balance: every submission completed, hit the
    cache, or coalesced onto one in flight."""
    jobs, cache = stats["jobs"], stats["cache"]
    if jobs["submitted"] != jobs["completed"] + cache["hits"] + jobs["coalesced"]:
        return [f"books do not balance: submitted {jobs['submitted']} != "
                f"completed {jobs['completed']} + hits {cache['hits']} + "
                f"coalesced {jobs['coalesced']}"]
    if jobs["failed"]:
        return [f"{jobs['failed']} job(s) failed in the daemon"]
    return []
