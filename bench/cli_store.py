"""cli-store: the operator's path, one fresh `python -m testingplus.cli`
process per command, run one at a time (a closed loop).

Set-up builds a store at a stated height through the public API: one
transaction per block, as `testingplus submit` makes them, then one
ChainStore.save, and writes the key files. Each round restores that store
and runs the same interleaving of submits (register, execute, feedback) and
queries (state, case, audit, compensation, proof).
"""

from __future__ import annotations

import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from machine import reference_ms
import ledger_growth
from checks import CheckError, check_proof, merkle, tx_bytes
from testingplus.chain import ChainStore, GenesisConfig
from testingplus.keys import address_from_pubkey, generate_keypair
from testingplus.tx import Transaction, sign_transaction
from tracing import merge

BENCH_DIR = Path(__file__).resolve().parent
# size -> store height before each round
SIZES = {"full": 200, "tiny": 20}
BALANCE = 10**9
BASE_RATE, BONUS_RATE = 7, 3


def _key_json(secret: bytes, public: bytes) -> str:
    return json.dumps({"address": address_from_pubkey(public).hex(),
                       "public_key": public.hex(), "secret_key": secret.hex()})


class Store:
    def __init__(self, seed: int, size: str, workdir: Path):
        self.height = height = SIZES[size]
        self.workdir = workdir
        self.pristine = workdir / "pristine"
        self.live = workdir / "store"
        validator = generate_keypair(gen.key_seed(b"cli-validator", seed, 0))
        vaddr = address_from_pubkey(validator[1])
        keys = [generate_keypair(gen.key_seed(b"cli", seed, i)) for i in range(gen.N_ACCOUNTS)]
        addrs = [address_from_pubkey(pk) for _, pk in keys]
        genesis = GenesisConfig(
            chain_id=gen.sha(b"cli-store" + gen.u64(seed)),
            validator_pubkeys=[validator[1]],
            accounts=[(pk, BALANCE) for _, pk in keys],
        )

        # history: whole engagements, cut so that one funded engagement is
        # left open at the head for the cases each round registers
        history = gen.engagements(seed, -(-height // gen.TXS_PER_ENGAGEMENT), b"cli")
        history = history[:height - 6]
        k_open = len(history) // gen.TXS_PER_ENGAGEMENT + 1
        rng = random.Random(gen.sha(b"cli-open" + gen.u64(seed)))
        history += gen.engagement(rng, k_open, len(history), open_only=True)
        nonces, created = [0] * len(keys), {}
        resolved = gen.resolve(history, addrs, nonces, created)

        store = ChainStore(self.pristine)
        chain = store.init(genesis)
        (self.pristine / "validator_key.json").write_text(_key_json(*validator))
        proof_height = height // 2
        for h, r in enumerate(resolved, start=1):
            tx = sign_transaction(
                Transaction(r["sender"], r["nonce"], ledger_growth.payload_of(r["fields"]),
                            r["fields"].get("value", 0)),
                *keys[r["sender_index"]])
            block, _, _ = chain.stage([tx], vaddr, h)
            chain.append(chain.seal(block, [(vaddr, validator[0])]))
            if h == proof_height:
                leaf = gen.sha(tx_bytes(tx))
        store.save(chain)
        keydir = workdir / "keys"
        keydir.mkdir()
        for i, (sk, pk) in enumerate(keys):
            (keydir / f"{i}.json").write_text(_key_json(sk, pk))

        # one round: register a case, query, pass it, query, feedback, queries
        c, d, t = k_open % 2, 2 + k_open % 2, 4 + k_open % 2
        contract = created[len(history) - 2]  # the open acceptance test
        step = gen.case_entries(rng, len(history), len(history) - 2, t, c, d)
        register, passing, feedback = step[0], step[2], step[3]
        tester_nonce = nonces[t]
        case_id = gen.created_id(register, addrs[t], tester_nonce)
        payloads = workdir / "payloads"
        payloads.mkdir()

        def payload(name: str, entry: dict, **refs) -> str:
            body = {k: v for k, v in entry.items() if k != "sender" and not isinstance(v, dict)}
            body.update({k: v.hex() for k, v in refs.items()})
            path = payloads / f"{name}.json"
            path.write_text(json.dumps(body))
            return str(path)

        t_exec = sum(1 for e in history if e["op"] == "record_execution" and e["sender"] == t)
        t_pass = sum(1 for e in history
                     if e["op"] == "record_execution" and e["sender"] == t
                     and e["actual_output"] == history[e["case"]["ref"]]["expected_output"])
        tl = gen.tally(history)

        def key(i: int) -> str:
            return str(keydir / f"{i}.json")

        self.plan = [
            ("submit", ["submit", payload("register", register, contract=contract), "--key", key(t)],
             {"height": height + 1, "created": case_id}),
            ("query", ["query", "state"],
             {"height": height + 1, "test_cases": tl["cases"] + 1,
              "executions": tl["executions"], "feedbacks": tl["feedbacks"]}),
            ("submit", ["submit", payload("execute", passing, case=case_id), "--key", key(t)],
             {"height": height + 2}),
            ("query", ["query", "case", case_id.hex()], {"executions": 1, "passes": 1}),
            ("submit", ["submit", payload("feedback", feedback, subject=case_id), "--key", key(c)],
             {"height": height + 3}),
            ("query", ["query", "audit", case_id.hex()],
             {"kinds": ["register", "execute", "feedback"]}),
            ("query", ["query", "compensation", addrs[t].hex(), "0", str(height + 3),
                       str(BASE_RATE), str(BONUS_RATE)],
             {"amount": BASE_RATE * (t_exec + 1) + BONUS_RATE * (t_pass + 1)}),
            ("query", ["query", "proof", str(proof_height), "0"],
             {"leaf": leaf, "root": merkle([leaf])}),
        ]
        self.submits = sum(1 for kind, _, _ in self.plan if kind == "submit")

    def command(self, args: list[str], stats_path: Path | None) -> list[str]:
        store_args = args[:1] + ["--store", str(self.live)] + args[1:]
        if stats_path is None:
            return [sys.executable, "-m", "testingplus.cli"] + store_args
        return [sys.executable, str(BENCH_DIR / "cli_launcher.py"), str(stats_path)] + store_args


def check_output(kind: str, out: dict, want: dict) -> None:
    if kind == "submit":
        if out["status"] != "Success" or out["block_height"] != want["height"]:
            raise CheckError(f"submit: {out['status']} at height {out['block_height']}, "
                             f"expected Success at {want['height']}")
        if "created" in want and out.get("created_id") != want["created"].hex():
            raise CheckError("submit: created_id is not SHA-256(sender | nonce | digest)")
    elif "test_cases" in want:
        got = {k: out[k] for k in ("height", "test_cases", "executions", "feedbacks")}
        if got != want:
            raise CheckError(f"query state: {got}, expected {want}")
    elif "passes" in want:
        if len(out["executions"]) != want["executions"] or out["passes"] != want["passes"]:
            raise CheckError("query case: execution or pass count differs")
    elif "kinds" in want:
        if [e["kind"] for e in out] != want["kinds"]:
            raise CheckError(f"query audit: {[e['kind'] for e in out]}")
    elif "amount" in want:
        if out["amount"] != want["amount"]:
            raise CheckError(f"query compensation: {out['amount']}, expected {want['amount']}")
    else:
        check_proof(out, want["leaf"], want["root"])


def setup(seed: int, size: str, workdir: Path) -> Store:
    return Store(seed, size, workdir)


def run(store: Store, seconds: float, tracer) -> dict:
    round_ms: list[list[float]] = []
    ref_ms: list[float] = []
    import_ms: list[float] = []
    stats: dict = {}
    spans: list = []  # (command label, spans) of the first round
    rounds = 0
    began = time.monotonic()
    while rounds == 0 or time.monotonic() - began < seconds:
        shutil.rmtree(store.live, ignore_errors=True)
        shutil.copytree(store.pristine, store.live)
        times_ms = []
        for i, (kind, args, want) in enumerate(store.plan):
            stats_path = store.workdir / f"stats-{i}.json" if tracer else None
            argv = store.command(args, stats_path)
            ref_ms.append(reference_ms())
            t0 = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
            elapsed = (time.perf_counter() - t0) * 1000
            times_ms.append(elapsed)
            if proc.returncode != 0:
                raise CheckError(f"{' '.join(args[:2])} exited {proc.returncode}: {proc.stderr}")
            check_output(kind, json.loads(proc.stdout.strip().splitlines()[-1]), want)
            if stats_path is not None:
                traced = json.loads(stats_path.read_text())
                import_ms.append(traced["import_ms"])
                merge(stats, traced["stats"])
                if rounds == 0:
                    spans.append((f"{kind}-{i}", traced["spans"]))
        round_ms.append(times_ms)
        rounds += 1
    store_bytes = sum(p.stat().st_size for p in store.live.rglob("*") if p.is_file())
    submits = rounds * store.submits
    cmds = rounds * len(store.plan)
    return {
        "attempted": cmds,
        "failed": 0,
        "rounds": rounds,
        "round_ms": round_ms,
        "ref_ms": ref_ms,
        "op_positions": [i for i, (kind, _, _) in enumerate(store.plan) if kind == "submit"],
        "committed_per_round": store.submits,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "extra_metrics": {"query_ms_p50": statistics.median(
                              t for r in round_ms for i, t in enumerate(r)
                              if store.plan[i][0] == "query"),
                          "store_bytes_per_tx": store_bytes / (store.height + store.submits)},
        "denom": {"txs": submits, "blocks": submits, "cmds": cmds, "submits": submits,
                  "scenarios": 0, "ticks": 0},
        "extra": {"cli_import_ms": statistics.median(import_ms) if import_ms else 0},
        "stats": stats,
        "spans": spans,
    }
