"""Operator command line: key management, store setup, transaction
submission, chain queries, scenario runs, and benchmark sweeps.

All machine output goes to stdout as JSON or CSV; diagnostics go to stderr.
Exit codes: 0 command ran (a Reverted receipt is a valid outcome), 2 usage
or input error, 3 chain store corruption.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

from .block import Block, merkle_proof
from .chain import Chain, ChainStore, CorruptChainError, GenesisConfig, locked, replace_file
from .codec import (ADDRESS_LEN, HASH_HEX, DecodeError, InputError, csv_table, hash256, hexbytes,
                    list_of, obj, record_json, uint)
from .keys import address_from_pubkey, generate_keypair
from .state import VERDICT_PASS
from .tx import OP_ENTRY, WORKLOAD_ENTRY, Transaction, payload_from_json, sign_transaction
from .vm import created_id
from .workflow import (
    ArtifactStore,
    AuditEvent,
    CompensationStatement,
    QueryError,
    audit_trail,
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


def _write_csv(cls, records) -> None:
    """Records of one record class as a CSV table, a header row of its field names."""
    sys.stdout.write(csv_table(cls._fields,
                               [record_json(r).values() for r in records]))


def _read_json(path, what: str, read, with_bytes: bool = False):
    """`read` of the JSON file at `path`, and with `with_bytes` the file's
    bytes, read once; a file that cannot be read or parsed, or that `read`
    refuses, is a usage error led by `what`."""
    try:
        data = Path(path).read_bytes()
        value = read(json.loads(io.TextIOWrapper(io.BytesIO(data)).read()))  # as read_text decodes
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, InputError) as exc:
        raise UsageError(f"{what}: {exc}") from exc
    return (value, data) if with_bytes else value


_KEY_FILE = obj(secret_key=HASH_HEX, public_key=HASH_HEX, address=hexbytes(ADDRESS_LEN))


def _key_file(value) -> dict:
    """A key file whose public key and address both derive from its secret."""
    key = _KEY_FILE(value, "")
    public = generate_keypair(key["secret_key"])[1]
    for name, derived in (("public_key", public), ("address", address_from_pubkey(public))):
        if key[name] != derived:
            raise InputError(name, "the one secret_key derives", key[name].hex())
    return key


def _load_key(path, with_bytes: bool = False):
    return _read_json(path, f"cannot read key file {path}", _key_file, with_bytes)


def cmd_keygen(args) -> int:
    out = Path(args.out)
    if out.exists() and not args.force:
        raise UsageError(f"{out} exists (use --force to overwrite)")
    secret, public = generate_keypair()
    key = {"address": address_from_pubkey(public).hex(), "public_key": public.hex(),
           "secret_key": secret.hex()}  # the key file that _key_file reads back
    replace_file(out, json.dumps(key, indent=2, sort_keys=True).encode(), 0o600)  # owner only
    _log(f"wrote key file {out}")
    print(json.dumps({"address": key["address"]}))
    return EXIT_OK


def cmd_init(args) -> int:
    store = ChainStore(Path(args.store))
    if store.chain_path.exists():  # the store's commit point: what a crashed init left is redone
        raise UsageError(f"store {args.store} exists")
    genesis = _read_json(args.genesis, "bad genesis file", GenesisConfig.from_dict)
    sealer, sealer_bytes = _load_key(args.validator_key, with_bytes=True)
    validators = genesis.validators
    if validators.pubkey_of(sealer["address"]) is None:
        raise UsageError("validator key is not in the genesis validator set")
    if validators.quorum > 1:  # the store seals every block with its one validator key
        raise UsageError(f"the store's one validator key cannot reach the genesis quorum of "
                         f"{validators.quorum} votes; a store needs a genesis with one validator")
    store.root.mkdir(parents=True, exist_ok=True)
    replace_file(store.key_path, sealer_bytes, 0o600)
    store.init(genesis)  # writes chain.bin last
    _log(f"initialized store {store.root}")
    print(json.dumps({"store": str(store.root), "chain_id": genesis.chain_id.hex()}))
    return EXIT_OK


def _open_store(args) -> ChainStore:
    store = ChainStore(Path(args.store))
    if not store.exists():
        raise UsageError("no chain")
    return store


def _load(store: ChainStore) -> Chain:
    """The store's chain; a checkpoint.bin the load did not use is noted on stderr."""
    try:
        return store.load()
    finally:
        if store.checkpoint_note is not None:
            _log(f"note: checkpoint ignored: {store.checkpoint_note}")


_JSON_LIST = list_of(lambda value, path: value)


def cmd_submit(args) -> int:
    entry = WORKLOAD_ENTRY if args.queue else OP_ENTRY
    raw, value = _read_json(args.payload, "bad payload", lambda doc: (doc, entry(doc, "")["value"]))

    if args.queue:
        queue_path = Path(args.queue)
        # on its directory, which the replace keeps, so that no concurrent entry is lost
        with locked(queue_path.parent):
            entries = _read_json(queue_path, f"cannot read queue file {queue_path}",
                                 lambda doc: _JSON_LIST(doc, "")) if queue_path.exists() else []
            entries.append(raw)
            replace_file(queue_path, json.dumps(entries, indent=2).encode())
        print(json.dumps({"queued": len(entries), "file": str(queue_path)}))
        return EXIT_OK

    store = _open_store(args)
    with locked(store.root):  # from load to save, so that no concurrent submit is lost
        chain = _load(store)
        key = _load_key(args.key)
        sender = key["address"]
        acct = chain.state.account(sender)
        if acct is None:
            raise UsageError("sender has no account on this chain")
        artifacts = ArtifactStore(store.artifacts_dir)
        try:
            payload = payload_from_json(raw, artifacts.put)
        except InputError as exc:
            raise UsageError(f"bad payload: {exc}") from exc
        tx = Transaction(sender, acct.nonce, payload, value)
        tx = sign_transaction(tx, key["secret_key"], key["public_key"])
        created = created_id(payload, sender, acct.nonce)

        sealer = _load_key(store.key_path)
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


def _arg(name: str, kind):
    """An argparse type reading an argument with a kind; argparse says `invalid <name> value`."""

    def read(arg: str):
        return kind(arg, "")

    read.__name__ = name
    return read


# on the command line a u64 is ASCII decimal digits
_U64 = _arg("u64", lambda a, path: uint(int(a) if a.isascii() and a.isdigit() else a, path))
_ID = _arg("32-byte hex", HASH_HEX)
# the typed arguments of each query selector, parsed before the store loads
_QUERY_ARGS = {
    "block": [("height", _U64)],
    "state": [],
    "case": [("case_id", _ID)],
    "audit": [("case_id", _ID)],
    "compensation": [("tester", _arg("20-byte hex", hexbytes(ADDRESS_LEN))), ("from_height", _U64),
                     ("to_height", _U64), ("base_rate", _U64), ("bonus_rate", _U64)],
    "proof": [("height", _U64), ("index", _U64)],
}
_CSV_QUERIES = ("audit", "compensation")


def cmd_query(args) -> int:
    sel = args.selector
    if args.csv and sel not in _CSV_QUERIES:
        raise UsageError(f"query {sel} has no CSV form")
    chain = _load(_open_store(args))
    state = chain.state
    if sel in ("block", "proof"):
        if args.height >= len(chain.blocks):
            raise UsageError(f"no block at height {args.height}")
        block = chain.blocks[args.height]
    if sel == "block":
        _print_json(_block_json(block))
    elif sel == "state":
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
        case = state.test_cases.get(args.case_id)
        if case is None:
            raise UsageError(f"unknown test case {args.case_id.hex()}")
        execs = [e for e in state.executions if e.case_id == args.case_id]
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
        events = audit_trail(state, args.case_id)
        if args.csv:
            _write_csv(AuditEvent, events)
        else:
            _print_json([record_json(e) for e in events])
    elif sel == "compensation":
        stmt = compute_compensation(state, args.tester, args.from_height, args.to_height,
                                    args.base_rate, args.bonus_rate)
        if args.csv:
            _write_csv(CompensationStatement, [stmt])
        else:
            _print_json(record_json(stmt))
    else:  # proof
        try:
            proof = merkle_proof(block, args.index)
        except IndexError as exc:
            raise UsageError(str(exc)) from exc
        _print_json({
            "block_height": args.height,
            "leaf": block.transactions[args.index].hash().hex(),
            "leaf_index": proof.leaf_index,
            "siblings": [{"hash": s.hex(), "sibling_on_right": r} for s, r in proof.siblings],
            "merkle_root": block.header.merkle_root.hex(),
        })
    return EXIT_OK


def cmd_scenario(args) -> int:
    from .sim import SimScenario, run_simulation

    # resolving the workload can fail too
    trace = _read_json(args.scenario, "bad scenario",
                       lambda raw: run_simulation(SimScenario.from_dict(raw)))
    trace.write(args.out)
    summary = trace.summary
    _log(f"simulated {summary['max_ticks']} ticks, trace -> {args.out}")
    _print_json({"trace": str(args.out), "truncated": summary["truncated"],
                 "heights": [n["height"] for n in summary["nodes"]]})
    return EXIT_OK


def cmd_bench(args) -> int:
    from .metrics import SweepSpec, run_sweep

    csv_text = run_sweep(_read_json(args.sweep, "bad sweep spec", SweepSpec.from_dict))
    replace_file(Path(args.out), csv_text.encode())
    _log(f"sweep -> {args.out}")
    print(json.dumps({"csv": str(args.out), "rows": csv_text.count("\n") - 1}))
    return EXIT_OK


def cmd_artifact(args) -> int:
    store = ChainStore(Path(args.store))
    artifacts = ArtifactStore(store.artifacts_dir)
    if args.action == "put":
        digest = artifacts.put(Path(args.file).read_bytes())
        print(json.dumps({"digest": digest.hex()}))
    else:
        try:
            data = artifacts.get(HASH_HEX(args.file, "digest"))
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
    p.add_argument("--csv", action="store_true", help="CSV output (audit and compensation)")
    p.set_defaults(func=cmd_query)
    selectors = p.add_subparsers(dest="selector", required=True)
    for name, arguments in _QUERY_ARGS.items():
        q = selectors.add_parser(name)
        for arg, kind in arguments:
            q.add_argument(arg, type=kind)
        if name in _CSV_QUERIES:  # SUPPRESS keeps a --csv given before the selector
            q.add_argument("--csv", action="store_true", default=argparse.SUPPRESS)

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
    except (UsageError, QueryError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE
    except (CorruptChainError, DecodeError) as exc:  # DecodeError: see block.scan_chain
        _log(f"store corruption: {exc}")
        return EXIT_CORRUPT


if __name__ == "__main__":
    sys.exit(main())
