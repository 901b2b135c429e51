"""Run one workload in this fresh interpreter and print one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --t0 MONOTONIC --out DIR [--setup-only] [--size tiny]

`--t0` is the parent's `time.monotonic()` taken just before it started this
process, so `setup_s` covers interpreter start, imports, keys, signed inputs
and the starting chain or store. With `--setup-only` the worker stops there.
`bench/run.py` is the entry point; this file is its child.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from checks import CheckError

# machine.reference_ms() on this machine at its usual speed; the *_scaled
# metrics are what a run would read if its reference took exactly this long
REF_MS = 1.25
WORKLOADS = {"ledger-growth": "ledger_growth", "sim-faults": "sim_faults",
             "cli-store": "cli_store"}


def run_workload(args) -> dict:
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    # imported after install, so that its own imports of program functions
    # are the wrapped ones
    module = __import__(WORKLOADS[args.workload])
    workdir = Path(args.out) / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ctx = module.setup(args.seed, args.size, workdir)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            return {"setup_s": setup_s}
        try:
            res = module.run(ctx, args.seconds, tracer)
        except CheckError as exc:
            return {"correct": False, "error": str(exc)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rounds = res["round_ms"]
    tx_per_s = res["committed_per_round"] / (statistics.median(map(sum, rounds)) / 1000)
    op_ms = statistics.median(r[i] for r in rounds for i in res["op_positions"])
    ref_ms = statistics.median(res["ref_ms"])
    scale = REF_MS / ref_ms
    out = {
        "correct": True,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "rounds": res["rounds"],
        "samples": sum(len(r) for r in rounds),
        "setup_s": setup_s,
        "end_to_end": {
            "tx_per_s_scaled": (tx_per_s / scale, "1/s"),
            "op_ms_p50_scaled": (op_ms * scale, "ms"),
            "peak_rss_mb": (res.get("peak_rss_mb",
                                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
                            "MB"),
        },
        "reported": dict(res["extra_metrics"], tx_per_s=tx_per_s, op_ms_p50=op_ms,
                         ref_ms=ref_ms),
    }
    if tracer is not None:
        from tracing import layer_metrics, merge, write_spans

        stats = tracer.dump()
        merge(stats, res.get("stats", {}))
        out["per_layer"] = layer_metrics(stats, res["denom"], res["extra"])
        write_spans(Path(args.out) / f"spans-{args.workload}-{args.seed}.jsonl",
                    [("worker", tracer.spans)] + res.get("spans", []))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
