"""Benchmark entry point; run it from the repository root:

    python3 bench/run.py --workload ledger-growth --seed 1 --seconds 30 --trace 0

Workloads: ledger-growth, sim-faults, cli-store (see bench/README.md). The
program is used from `src/` by path; nothing is installed. Each workload
runs in fresh interpreters (`bench/worker.py`) with a fixed PYTHONHASHSEED.

With `--trace 0` the run prints the end-to-end metrics: `setup_s` is the
median of SETUPS set-ups, each in its own interpreter, and the rest come
from the last of them, which goes on to the timed phase. With `--trace 1`
the timed phase runs with per-layer spans and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Results and spans are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("ledger-growth", "sim-faults", "cli-store")
SETUPS = 3
WORKER_TIMEOUT_S = 150
# what op_ms_p50 is on each workload
OP_NAME = {"ledger-growth": "block_ms_p50", "sim-faults": "scenario_ms_p50",
           "cli-store": "submit_ms_p50"}
REPORTED_UNITS = {"tx_per_s": "1/s", "op_ms_p50": "ms", "ref_ms": "ms",
                  "block_ms_tail": "[percentile, ms]", "query_ms_p50": "ms",
                  "store_bytes_per_tx": "B", "scenario_outcomes": "lost transactions"}


class WorkerError(Exception):
    pass


def worker(args, env: dict, out_dir: Path, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir), *extra]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              env=env, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "testingplus" / "__init__.py").is_file():
        print(f"error: no program at {src / 'testingplus'}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)

    try:
        setups = []
        if not args.trace:
            setups = [worker(args, env, out_dir, "--setup-only")["setup_s"]
                      for _ in range(SETUPS - 1)]
        res = worker(args, env, out_dir)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not res["correct"]:
        print(f"check failed: {res['error']}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 0

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        setups.append(res["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        metrics.update({k: {"value": v, "unit": u} for k, (v, u) in res["end_to_end"].items()})
    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds, {res['samples']} "
          f"timed operations, {res['attempted']} attempted, {res['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for name, value in res["reported"].items():
        alias = f" ({OP_NAME[args.workload]})" if name.startswith("op_ms_p50") else ""
        print(f"  {name}{alias} {value} {REPORTED_UNITS[name]}  (reported, not gated)")
    if not args.trace:
        print(f"  setup_s samples {[round(s, 4) for s in setups]}")
    result = {"correct": True, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, rounds=res["rounds"], setups=setups,
                        reported=res["reported"]), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
