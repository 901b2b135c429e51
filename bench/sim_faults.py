"""sim-faults: a fixed batch of simulations with faults, each run through
run_simulation and metrics.analyze.

Every scenario has latency 1-3 ticks and 5% message drop, and transactions
arrive on a schedule of logical ticks (an open loop) before, during and after
its faults. The batch:

- one n=4 and two n=7 scenarios, each with a healing partition that isolates
  one validator and, after it heals, one crash;
- two n=4 scenarios with a healing 2|2 split, which leaves neither side a
  quorum. On them the network stalls for good at the split-vote fault (a
  validator votes once per height and never releases the vote), so their
  stranded transactions count as failed in every run.

The network seeds (latency and drop draws, validator and account keys) are
fixed; the workload seed chooses the transactions' content (fees, texts,
digests). The simulator's schedule does not depend on content, so each
scenario has the same liveness outcome on every seed. Network seeds are not
varied because the split-vote fault also stalls the crash-and-partition
shapes on a few percent of them, which would make the share of failed
transactions differ between seeds.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import gen
from machine import reference_ms
from checks import CheckError, check_sim_trace
from testingplus.metrics import analyze
from testingplus.sim import SimScenario, run_simulation

LATENCY = [1, 3]
DROP = 0.05
# no empty blocks, so that once every transaction is committed the live
# nodes stop at the same height and their chain digests can be compared
EMPTY_BLOCK_INTERVAL = 10**6
NETWORK_SEED = 0
SPLIT_SEEDS = (0, 1)

# name -> (validators, partition sides, partition ticks, crash (node, tick))
FAULTED = {
    "n4-isolate1-crash3": (4, [[1], [0, 2, 3]], (80, 160), (3, 220)),
    "n7-isolate1-crash6": (7, [[1], [0, 2, 3, 4, 5, 6]], (80, 160), (6, 220)),
    "n7-isolate4-crash2": (7, [[4], [0, 1, 2, 3, 5, 6]], (40, 120), (2, 160)),
}
SPLIT = (4, [[0, 1], [2, 3]], (60, 160))

# size -> (engagements per faulted scenario, engagements per split scenario,
#          last submission tick, max ticks)
SIZES = {"full": (2, 4, 300, 500), "tiny": (1, 2, 300, 500)}


def scenario(network_seed: int, n: int, entries: list[dict], last_tick: int, max_ticks: int,
             partition, crash=None) -> dict:
    step = (last_tick - 5) / max(1, len(entries) - 1)
    sides, (lo, hi) = partition
    return {
        "seed": network_seed,
        "n_validators": n,
        "latency": LATENCY,
        "drop_probability": DROP,
        "partitions": [{"from_tick": lo, "to_tick": hi, "sides": sides}],
        "crash_faults": [] if crash is None else [{"node": crash[0], "tick": crash[1]}],
        "accounts": [10**6] * gen.N_ACCOUNTS,
        "workload": [dict(e, tick=5 + round(i * step)) for i, e in enumerate(entries)],
        "max_ticks": max_ticks,
        "empty_block_interval": EMPTY_BLOCK_INTERVAL,
    }


def batch(seed: int, size: str) -> list[tuple[str, dict, bool]]:
    """(name, scenario dict, healthy) for each scenario of one round."""
    per_faulted, per_split, last_tick, max_ticks = SIZES[size]
    out = []
    for name, (n, sides, ticks, crash) in FAULTED.items():
        entries = gen.engagements(seed, per_faulted, name.encode())
        out.append((name, scenario(NETWORK_SEED, n, entries, last_tick, max_ticks,
                                   (sides, ticks), crash), True))
    n, sides, ticks = SPLIT
    for s in SPLIT_SEEDS:
        name = f"n4-split-{s}"
        entries = gen.engagements(seed, per_split, name.encode())
        out.append((name, scenario(s, n, entries, last_tick, max_ticks, (sides, ticks)), False))
    return out


def setup(seed: int, size: str, workdir) -> list:
    return [(name, SimScenario.from_dict(raw), healthy, len(raw["workload"]))
            for name, raw, healthy in batch(seed, size)]


def commit_latencies(events: list[dict]) -> list[int]:
    submitted = {e["tx"]: e["t"] for e in events if e["type"] == "submit"}
    first: dict[str, int] = {}
    for e in events:
        if e["type"] == "commit":
            for tx in e["txs"]:
                first.setdefault(tx, e["t"])
    return [first[tx] - t for tx, t in submitted.items() if tx in first]


def run(scenarios: list, seconds: float, tracer) -> dict:
    round_ms: list[list[float]] = []
    ref_ms: list[float] = []
    digests: dict[str, str] = {}
    outcome: dict[str, int] = {}
    attempted = failed = rounds = 0
    msgs = events = blocks = ticks = dropped = 0
    latencies: list[int] = []
    began = time.monotonic()
    while rounds == 0 or time.monotonic() - began < seconds:
        times_ms = []
        for name, sc, healthy, submitted in scenarios:
            if tracer:
                tracer.active = True
            ref_ms.append(reference_ms())
            t0 = time.perf_counter()
            trace = run_simulation(sc)
            report = analyze(trace)
            times_ms.append((time.perf_counter() - t0) * 1000)
            if tracer:
                tracer.active = False
            lost = check_sim_trace(trace.events, submitted, healthy)
            if report.submitted != submitted:
                raise CheckError(f"{name}: analyze counts {report.submitted} submissions")
            digest = hashlib.sha256(trace.to_text().encode()).hexdigest()
            if digests.setdefault(name, digest) != digest or outcome.setdefault(name, lost) != lost:
                raise CheckError(f"{name}: a repeated run produced a different trace")
            attempted += submitted
            failed += lost
            if rounds == 0:
                msgs += sum(1 for e in trace.events if e["type"] == "msg")
                events += len(trace.events)
                blocks += sum(1 for e in trace.events if e["type"] == "commit")
                dropped += sum(n["invalid_dropped"] for n in trace.summary["nodes"])
                latencies += commit_latencies(trace.events)
            ticks += sc.max_ticks + 1
        round_ms.append(times_ms)
        rounds += 1
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "round_ms": round_ms,
        "ref_ms": ref_ms,
        "op_positions": range(len(scenarios)),
        "committed_per_round": (attempted - failed) // rounds,
        "extra_metrics": {"scenario_outcomes": outcome},
        "denom": {"txs": attempted, "blocks": blocks * rounds, "cmds": 0, "submits": 0,
                  "scenarios": rounds * len(scenarios), "ticks": ticks},
        # from the first round; every round repeats it exactly
        "extra": {"messages": msgs * rounds, "events": events * rounds,
                  "invalid_dropped_per_round": dropped,
                  "commit_ticks_p50": statistics.median(latencies)},
    }
