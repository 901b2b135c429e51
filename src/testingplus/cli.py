"""Operator command line: key management, store setup, transaction
submission, chain queries, scenario runs, and benchmark sweeps.

All machine output goes to stdout as JSON or CSV; diagnostics go to stderr.
Exit codes: 0 command ran (a Reverted receipt is a valid outcome), 2 usage
or input error, 3 chain store corruption.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .block import Block, merkle_proof
from .chain import Chain, ChainStore, CorruptChainError, GenesisConfig, ValidatorSet
from .codec import hash256, record_json
from .keys import address_from_pubkey, generate_keypair
from .state import VERDICT_PASS
from .tx import Transaction, hex_bytes, parse_u64, payload_from_json, sign_transaction
from .vm import created_id
from .workflow import (
    ArtifactStore,
    UnknownCaseError,
    WindowBeyondHeadError,
    audit_trail,
    audit_trail_csv,
    audit_trail_json,
    compute_compensation,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CORRUPT = 3


class UsageError(Exception):
    pass


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _print_json(value) -> None:
    print(json.dumps(value, sort_keys=True))


def _load_key(path: str) -> dict:
    try:
        key = json.loads(Path(path).read_text())
        return {
            "address": bytes.fromhex(key["address"]),
            "public_key": bytes.fromhex(key["public_key"]),
            "secret_key": bytes.fromhex(key["secret_key"]),
        }
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read key file {path}: {exc}") from exc


def cmd_keygen(args) -> int:
    out = Path(args.out)
    if out.exists() and not args.force:
        raise UsageError(f"{out} exists (use --force to overwrite)")
    secret, public = generate_keypair()
    out.write_text(
        json.dumps(
            {
                "address": address_from_pubkey(public).hex(),
                "public_key": public.hex(),
                "secret_key": secret.hex(),
            },
            indent=2,
            sort_keys=True,
        )
    )
    _log(f"wrote key file {out}")
    print(json.dumps({"address": address_from_pubkey(public).hex()}))
    return EXIT_OK


def cmd_init(args) -> int:
    try:
        genesis = GenesisConfig.from_json(Path(args.genesis).read_text())
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad genesis file: {exc}") from exc
    sealer = _load_key(args.validator_key)
    validators = ValidatorSet.from_pubkeys(genesis.validator_pubkeys)
    if validators.pubkey_of(address_from_pubkey(sealer["public_key"])) is None:
        raise UsageError("validator key is not in the genesis validator set")
    if validators.quorum > 1:  # the store seals every block with its one validator key
        raise UsageError(f"the store's one validator key cannot reach the genesis quorum of "
                         f"{validators.quorum} votes; a store needs a genesis with one validator")
    store = ChainStore(Path(args.store))
    store.init(genesis)
    (store.root / "validator_key.json").write_text(Path(args.validator_key).read_text())
    _log(f"initialized store {store.root}")
    print(json.dumps({"store": str(store.root), "chain_id": genesis.chain_id.hex()}))
    return EXIT_OK


def _load_store(args) -> tuple[ChainStore, Chain]:
    store = ChainStore(Path(args.store))
    if not store.exists():
        raise UsageError("no chain")
    return store, store.load()


def cmd_submit(args) -> int:
    try:
        raw = json.loads(Path(args.payload).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read payload: {exc}") from exc
    if not isinstance(raw, dict) or "op" not in raw:
        raise UsageError("payload must be a JSON object with an 'op' field")

    if args.queue:
        queue_path = Path(args.queue)
        entries = json.loads(queue_path.read_text()) if queue_path.exists() else []
        for field in ("tick", "sender"):
            if field not in raw:
                raise UsageError(f"queue mode payloads need a {field!r} field")
        entries.append(raw)
        queue_path.write_text(json.dumps(entries, indent=2))
        print(json.dumps({"queued": len(entries), "file": str(queue_path)}))
        return EXIT_OK

    store, chain = _load_store(args)
    key = _load_key(args.key)
    sender = key["address"]
    acct = chain.state.account(sender)
    if acct is None:
        raise UsageError("sender has no account on this chain")
    artifacts = ArtifactStore(store.artifacts_dir)
    try:
        payload = payload_from_json(raw, hex_bytes, hex_bytes, artifacts.put)
        value = parse_u64(raw.get("value", 0))
    except ValueError as exc:
        raise UsageError(f"bad payload: {exc}") from exc
    tx = Transaction(sender, acct.nonce, payload, value)
    tx = sign_transaction(tx, key["secret_key"], key["public_key"])
    created = created_id(payload, sender, acct.nonce)

    sealer = _load_key(store.root / "validator_key.json")
    tick = chain.head.header.timestamp + 1
    parent_root = chain.head.header.state_root
    block, root, receipts = chain.stage([tx], sealer["address"], tick)
    block = chain.seal(block, [(sealer["address"], sealer["secret_key"])])
    chain.append(block)
    store.save(chain)
    receipt = receipts[0]
    out = {
        "tx_hash": receipt.tx_hash.hex(),
        "status": receipt.status,
        "reason": receipt.reason.decode("utf-8", "replace"),
        # the block holds this transaction alone: its pre- and post-state
        # roots are the parent's and the block's
        "state_delta_digest": hash256(parent_root + root).hex(),
        "block_height": block.header.height,
    }
    if created is not None and receipt.ok:
        out["created_id"] = created.hex()
    _print_json(out)
    return EXIT_OK


def _block_json(block: Block) -> dict:
    return {
        "header": record_json(block.header),
        "hash": block.header.hash().hex(),
        "transactions": [
            {
                "hash": tx.hash().hex(),
                "sender": tx.sender.hex(),
                "nonce": tx.nonce,
                "value": tx.value,
                "payload": type(tx.payload).__name__,
            }
            for tx in block.transactions
        ],
        "votes": [{"validator": a.hex(), "signature": s.hex()} for a, s in block.votes],
    }


def _contracts_json(section, *names) -> list[dict]:
    """The contracts of a state section in id order: the id and the named
    fields of each, as record_json writes them."""
    views = [record_json(section[k]) for k in sorted(section)]
    return [{"id": v["contract_id"], **{name: v[name] for name in names}} for v in views]


def cmd_query(args) -> int:
    _, chain = _load_store(args)
    sel = args.selector
    rest = args.args
    try:
        if sel == "block":
            h = parse_u64(rest[0])
            if h >= len(chain.blocks):
                raise UsageError(f"no block at height {h}")
            _print_json(_block_json(chain.blocks[h]))
        elif sel == "state":
            state = chain.state
            _print_json({
                "height": chain.height,
                "state_root": state.root().hex(),
                "accounts": [record_json(state.accounts[k]) for k in sorted(state.accounts)],
                "customer_agreements": _contracts_json(
                    state.customer_agreements, "customer", "testing_fee"),
                "developer_agreements": _contracts_json(
                    state.developer_agreements, "developer", "reward"),
                "acceptance_tests": _contracts_json(
                    state.acceptance_tests, "customer", "developer", "testing_fee",
                    "is_test_completed", "escrow"),
                "test_cases": len(state.test_cases),
                "executions": len(state.executions),
                "feedbacks": len(state.feedbacks),
            })
        elif sel == "case":
            cid = bytes.fromhex(rest[0])
            case = chain.state.test_cases.get(cid)
            if case is None:
                raise UsageError(f"unknown test case {rest[0]}")
            execs = [e for e in chain.state.executions if e.case_id == cid]
            _print_json({
                "case_id": case.case_id.hex(),
                "acceptance_contract": case.acceptance_contract.hex(),
                "author": case.author.hex(),
                "description": case.description.decode("utf-8", "replace"),
                "input_digest": case.input_digest.hex(),
                "expected_output_digest": case.expected_output_digest.hex(),
                "executions": [
                    {"exec_id": e.exec_id.hex(), "tester": e.tester.hex(),
                     "verdict": e.verdict, "block_height": e.block_height}
                    for e in execs
                ],
                "passes": sum(1 for e in execs if e.verdict == VERDICT_PASS),
            })
        elif sel == "audit":
            cid = bytes.fromhex(rest[0])
            try:
                events = audit_trail(chain.state, cid)
            except UnknownCaseError as exc:
                raise UsageError(f"unknown test case {exc}") from exc
            if args.csv:
                sys.stdout.write(audit_trail_csv(events))
            else:
                print(audit_trail_json(events))
        elif sel == "compensation":
            tester, *numbers = rest[:5]
            lo, hi, base, bonus = map(parse_u64, numbers)
            try:
                stmt = compute_compensation(chain.state, bytes.fromhex(tester), lo, hi, base, bonus)
            except (WindowBeyondHeadError, OverflowError) as exc:
                raise UsageError(str(exc)) from exc
            print(stmt.to_csv() if args.csv else stmt.to_json())
        elif sel == "proof":
            h, idx = parse_u64(rest[0]), parse_u64(rest[1])
            if h >= len(chain.blocks):
                raise UsageError(f"no block at height {h}")
            block = chain.blocks[h]
            try:
                proof = merkle_proof(block, idx)
            except IndexError as exc:
                raise UsageError(str(exc)) from exc
            _print_json({
                "block_height": h,
                "leaf": block.transactions[idx].hash().hex(),
                "leaf_index": proof.leaf_index,
                "siblings": [{"hash": s.hex(), "sibling_on_right": r} for s, r in proof.siblings],
                "merkle_root": block.header.merkle_root.hex(),
            })
        else:
            raise UsageError(f"unknown selector {sel!r}")
    except (IndexError, ValueError) as exc:
        raise UsageError(f"bad query arguments: {exc}") from exc
    return EXIT_OK


def cmd_scenario(args) -> int:
    from .sim import ScenarioError, SimScenario, run_simulation

    try:
        scenario = SimScenario.from_file(args.scenario)
        trace = run_simulation(scenario)  # resolving the workload can fail too
    except (OSError, json.JSONDecodeError, ScenarioError) as exc:
        raise UsageError(f"bad scenario: {exc}") from exc
    trace.write(args.out)
    summary = trace.summary
    _log(f"simulated {scenario.max_ticks} ticks, trace -> {args.out}")
    _print_json({"trace": str(args.out), "truncated": summary["truncated"],
                 "heights": [n["height"] for n in summary["nodes"]]})
    return EXIT_OK


def cmd_bench(args) -> int:
    from .metrics import SweepSpec, run_sweep
    from .sim import ScenarioError

    try:
        spec = SweepSpec.from_file(args.sweep)
    except (OSError, json.JSONDecodeError, ScenarioError) as exc:
        raise UsageError(f"bad sweep spec: {exc}") from exc
    csv_text = run_sweep(spec)
    Path(args.out).write_text(csv_text)
    _log(f"sweep -> {args.out}")
    print(json.dumps({"csv": str(args.out), "rows": csv_text.count("\n") - 1}))
    return EXIT_OK


def cmd_artifact(args) -> int:
    store = ChainStore(Path(args.store))
    artifacts = ArtifactStore(store.artifacts_dir)
    if args.action == "put":
        try:
            data = Path(args.file).read_bytes()
        except OSError as exc:
            raise UsageError(str(exc)) from exc
        digest = artifacts.put(data)
        print(json.dumps({"digest": digest.hex()}))
    else:
        try:
            data = artifacts.get(bytes.fromhex(args.file))
        except (FileNotFoundError, ValueError) as exc:
            raise UsageError(f"artifact not available: {exc}") from exc
        sys.stdout.buffer.write(data)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="testingplus")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate an Ed25519 key file")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("init", help="create a chain store from a genesis file")
    p.add_argument("--store", required=True)
    p.add_argument("--genesis", required=True)
    p.add_argument("--validator-key", required=True)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("submit", help="sign and apply a transaction")
    p.add_argument("payload", help="payload JSON file")
    p.add_argument("--store")
    p.add_argument("--key")
    p.add_argument("--queue", help="append to a scenario workload file instead")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("query", help="read-only chain queries")
    p.add_argument("--store", required=True)
    p.add_argument("--csv", action="store_true")
    p.add_argument("selector", choices=["block", "state", "case", "audit", "compensation", "proof"])
    p.add_argument("args", nargs="*")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("scenario", help="run a simulation scenario")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("bench", help="run a sweep and write CSV")
    p.add_argument("sweep")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("artifact", help="content-addressed artifact store")
    p.add_argument("--store", required=True)
    p.add_argument("action", choices=["put", "get"])
    p.add_argument("file", help="file path (put) or hex digest (get)")
    p.set_defaults(func=cmd_artifact)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "submit" and not args.queue:
            if not args.store or not args.key:
                raise UsageError("submit needs --store and --key (or --queue)")
        return args.func(args)
    except UsageError as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE
    except CorruptChainError as exc:
        _log(f"store corruption: {exc}")
        return EXIT_CORRUPT
    except OSError as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
