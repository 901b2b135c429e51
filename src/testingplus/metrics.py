"""Trace analysis and configuration sweeps.

All units are logical ticks, never wall seconds, so every number here is
reproducible from a stored trace. Resource usage is proxied by message count
and serialized state size.
"""

from __future__ import annotations

import copy
import json

from .codec import (InputError, csv_table, enc_u64, hash256, list_of, obj, positive,
                    record, record_json, text, uint)
from .sim import CRASH_FAULTS, SimScenario, SimTrace, run_simulation


@record("min", "median", "p95", "max", "count")
class LatencyStats:
    min, median, p95, max, count = 0, 0.0, 0, 0, 0


def _latency_stats(samples: list[int]) -> LatencyStats:
    if not samples:
        return LatencyStats()
    xs = sorted(samples)
    k = len(xs)
    median = xs[k // 2] if k % 2 == 1 else (xs[k // 2 - 1] + xs[k // 2]) / 2
    p95_idx = max(0, -(-95 * k // 100) - 1)  # ceil(0.95k) - 1
    return LatencyStats(xs[0], median, xs[p95_idx], xs[-1], k)


@record("scenario_digest", "total_ticks", "submitted", "committed", "uncommitted",
        "throughput_per_1000_ticks", "latency", "block_interval_mean", "messages_sent",
        "state_bytes", "truncated", "per_node")
class MetricsReport:
    """`latency` is a LatencyStats; `per_node` a list of dicts."""

    def to_dict(self) -> dict:
        out = record_json(self)
        latency = out.pop("latency")
        out.update((f"latency_{k}", getattr(latency, k)) for k in ("min", "median", "p95", "max"))
        return out


def analyze(trace: SimTrace) -> MetricsReport:
    """Pure function of a trace. Uncommitted submissions are reported as
    losses, never silently dropped."""
    scenario = None
    summary = None
    submits: dict[str, int] = {}
    first_commit: dict[str, int] = {}
    height_first_commit: dict[int, int] = {}
    per_node_msgs: dict[int, int] = {}
    per_node_commits: dict[int, int] = {}
    msgs_of = per_node_msgs.get
    # event types by how often they occur: most events are messages
    for e in trace.events:
        kind = e.get("type")
        if kind == "msg":
            src = e["src"]
            per_node_msgs[src] = msgs_of(src, 0) + 1
        elif kind == "commit":
            per_node_commits[e["node"]] = per_node_commits.get(e["node"], 0) + 1
            h = e["h"]
            if h not in height_first_commit or e["t"] < height_first_commit[h]:
                height_first_commit[h] = e["t"]
            for tx in e["txs"]:
                if tx not in first_commit or e["t"] < first_commit[tx]:
                    first_commit[tx] = e["t"]
        elif kind == "submit":
            submits[e["tx"]] = e["t"]
        elif kind == "scenario":
            scenario = e
        elif kind == "summary":
            summary = e
    if scenario is None or summary is None:
        raise InputError("trace", "an event log with a scenario and a summary event")

    committed_submitted = [tx for tx in submits if tx in first_commit]
    latencies = [first_commit[tx] - submits[tx] for tx in committed_submitted]
    total_ticks = summary["max_ticks"]
    heights = sorted(height_first_commit)
    intervals = [
        height_first_commit[b] - height_first_commit[a]
        for a, b in zip(heights, heights[1:])
    ]
    per_node = [
        {
            "node": ns["node"],
            "height": ns["height"],
            "state_bytes": ns["state_bytes"],
            "mempool": ns["mempool"],
            "messages_sent": per_node_msgs.get(ns["node"], 0),
            "commits_observed": per_node_commits.get(ns["node"], 0),
            "crashed": ns["crashed"],
        }
        for ns in summary["nodes"]
    ]
    return MetricsReport(
        scenario_digest=scenario["digest"],
        total_ticks=total_ticks,
        submitted=len(submits),
        committed=len(committed_submitted),
        uncommitted=len(submits) - len(committed_submitted),
        throughput_per_1000_ticks=len(committed_submitted) * 1000 / total_ticks,
        latency=_latency_stats(latencies),
        block_interval_mean=(sum(intervals) / len(intervals)) if intervals else 0.0,
        messages_sent=sum(per_node_msgs.values()),
        state_bytes=max((ns["state_bytes"] for ns in summary["nodes"]), default=0),
        truncated=summary["truncated"],
        per_node=per_node,
    )


SWEEP_AXES = ("n_validators", "drop_probability", "workload_interval")

CSV_HEADER = [
    "axis", "axis_value", "repetition", "seed", "status",
    "submitted", "committed", "uncommitted", "throughput_per_1000_ticks",
    "latency_min", "latency_median", "latency_p95", "latency_max",
    "block_interval_mean", "messages_sent", "state_bytes", "total_ticks", "truncated",
]


_SWEEP = obj(
    base=obj(seed=uint),  # every cell's seed derives from it
    axis=text,
    values=list_of(lambda value, path: value),  # each cell's scenario judges its value
    repetitions=(positive, 1),
)


@record("base", "axis", "values", "repetitions")
class SweepSpec:
    """`base` is the base scenario dict."""

    repetitions = 1

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepSpec":
        """Axis values are taken as given, for SimScenario.from_dict to judge."""
        v = _SWEEP(raw, "")
        if v["axis"] not in SWEEP_AXES:
            raise InputError("axis", f"one of {', '.join(SWEEP_AXES)}", v["axis"])
        if not v["values"]:
            raise InputError("values", "a non-empty list", v["values"])
        return cls(v["base"], v["axis"], v["values"], v["repetitions"])

    def derived_seed(self, value, repetition: int) -> int:
        material = (
            enc_u64(self.base["seed"])
            + json.dumps(value, sort_keys=True).encode()
            + enc_u64(repetition)
        )
        return int.from_bytes(hash256(material)[:8], "big")

    def scenario_for(self, value, repetition: int) -> SimScenario:
        raw = copy.deepcopy(self.base)
        raw["seed"] = self.derived_seed(value, repetition)
        if self.axis == "n_validators":
            raw["n_validators"] = value
            if type(value) is int:  # else from_dict refuses the value itself
                # drop the crash faults of nodes beyond the new node count
                faults = CRASH_FAULTS(raw.get("crash_faults", []), "crash_faults")
                raw["crash_faults"] = [c for c in faults if c["node"] < value]
            raw["partitions"] = []
        elif self.axis == "drop_probability":
            raw["drop_probability"] = value
        else:  # workload_interval: resequence submissions at a fixed spacing
            interval = positive(value, "workload_interval")
            entries = list_of(obj())(raw.get("workload", []), "workload")
            raw["workload"] = [{**e, "tick": 1 + i * interval} for i, e in enumerate(entries)]
        return SimScenario.from_dict(raw)


def run_sweep(spec: SweepSpec) -> str:
    """Run every (axis value, repetition) cell and return an RFC-4180 CSV
    table, rows in spec order. A failing cell becomes a row with its error
    in the status column; the sweep continues."""
    rows = []
    for value in spec.values:
        for rep in range(spec.repetitions):
            seed = spec.derived_seed(value, rep)
            try:
                scenario = spec.scenario_for(value, rep)
                report = analyze(run_simulation(scenario)).to_dict()
                rows.append([spec.axis, value, rep, seed, "ok"] + [report[k] for k in CSV_HEADER[5:]])
            except Exception as exc:  # a broken cell must not kill the sweep
                rows.append([spec.axis, value, rep, seed, f"error: {exc}"]
                            + [""] * (len(CSV_HEADER) - 5))
    return csv_table(CSV_HEADER, rows)
