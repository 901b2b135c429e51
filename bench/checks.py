"""Output checks computed apart from the program.

Encodings follow the layout documented in the program (u64 big-endian,
4-byte length-prefixed byte strings) but are rebuilt here with `struct` and
`hashlib`; signatures are checked with `cryptography` directly. Every check
raises `CheckError` with the first violation it finds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey


class CheckError(Exception):
    """A workload's output violates a property it must have."""


def _sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _lp(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _u64(value: int) -> bytes:
    return struct.pack(">Q", value)


def header_bytes(h) -> bytes:
    return (_u64(h.height) + _lp(h.prev_hash) + _lp(h.merkle_root) + _lp(h.state_root)
            + _u64(h.timestamp) + _lp(h.proposer))


def tx_bytes(tx) -> bytes:
    """Signed transaction encoding: sender, nonce, tag + payload fields in
    declaration order, value, signature."""
    body = b""
    for f in dataclasses.fields(tx.payload):
        v = getattr(tx.payload, f.name)
        body += _lp(v) if isinstance(v, bytes) else _u64(v)
    return (_lp(tx.sender) + _u64(tx.nonce) + bytes([tx.payload.TAG]) + body
            + _u64(tx.value) + _lp(tx.signature))


def merkle(leaves: list[bytes]) -> bytes:
    if not leaves:
        return b"\x00" * 32
    level = list(leaves)
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [_sha(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def _signed(pubkey: bytes, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(pubkey).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def check_blocks(blocks, validators: dict[bytes, bytes], quorum: int, start: int = 1) -> None:
    """Header links, Merkle roots and quorum votes of blocks[start:]."""
    for i in range(start, len(blocks)):
        h = blocks[i].header
        if h.height != i:
            raise CheckError(f"block {i}: height {h.height}")
        if h.prev_hash != _sha(header_bytes(blocks[i - 1].header)):
            raise CheckError(f"block {i}: prev_hash does not link to block {i - 1}")
        if h.merkle_root != merkle([_sha(tx_bytes(tx)) for tx in blocks[i].transactions]):
            raise CheckError(f"block {i}: merkle root does not match its transactions")
        header_hash = _sha(header_bytes(h))
        signers = set()
        for addr, sig in blocks[i].votes:
            pk = validators.get(addr)
            if pk is None or addr in signers or not _signed(pk, sig, header_hash):
                raise CheckError(f"block {i}: bad vote from {addr.hex()}")
            signers.add(addr)
        if len(signers) < quorum:
            raise CheckError(f"block {i}: {len(signers)} votes, quorum {quorum}")


def check_receipts(receipts) -> None:
    for rc in receipts:
        if rc.status != "Success":
            raise CheckError(f"receipt {rc.tx_hash.hex()}: {rc.status} {rc.reason!r}")


def check_ledger_state(state, head_header, tally: dict, issued: int,
                       developer_start: dict[bytes, int]) -> None:
    """Registry counts against the generator's tally, conservation of
    balances plus escrow, developer income, and the head's state root."""
    passes = sum(1 for e in state.executions if e.verdict == "Pass")
    completed = sum(1 for t in state.acceptance_tests.values() if t.is_test_completed)
    got = {"cases": len(state.test_cases), "executions": len(state.executions),
           "passes": passes, "feedbacks": len(state.feedbacks), "completed": completed}
    for key, value in got.items():
        if value != tally[key]:
            raise CheckError(f"{key}: state has {value}, generator made {tally[key]}")
    escrow = sum(t.escrow for t in state.acceptance_tests.values())
    total = sum(a.balance for a in state.accounts.values()) + escrow
    if total != issued:
        raise CheckError(f"balances plus escrow are {total}, issued {issued}")
    if escrow != tally["escrowed"]:
        raise CheckError(f"escrow is {escrow}, expected {tally['escrowed']}")
    for addr, start in developer_start.items():
        want = start + tally["settled_by_addr"].get(addr, 0)
        if state.accounts[addr].balance != want:
            raise CheckError(f"developer {addr.hex()} holds {state.accounts[addr].balance}, "
                             f"expected {want}")
    if _sha(state.serialize()) != head_header.state_root:
        raise CheckError("final state does not hash to the head's state_root")


def check_sim_trace(events: list[dict], submitted: int, healthy: bool) -> int:
    """Safety and accounting of one simulated run; returns the number of
    submitted transactions not committed on every live node."""
    by_height: dict[int, str] = {}
    seen: dict[int, set] = {}
    submits = [e["tx"] for e in events if e["type"] == "submit"]
    if len(submits) != submitted or len(set(submits)) != submitted:
        raise CheckError(f"{len(submits)} submissions traced, workload has {submitted}")
    for e in events:
        if e["type"] != "commit":
            continue
        if by_height.setdefault(e["h"], e["hash"]) != e["hash"]:
            raise CheckError(f"two different blocks committed at height {e['h']}")
        txs = seen.setdefault(e["node"], set())
        for tx in e["txs"]:
            if tx in txs:
                raise CheckError(f"node {e['node']} committed {tx} twice")
            txs.add(tx)
    summary = events[-1]
    if summary.get("type") != "summary":
        raise CheckError("trace does not end with its summary")
    live = [n for n in summary["nodes"] if not n["crashed"]]
    committed_everywhere = set(submits)
    for node in live:
        committed_everywhere &= seen.get(node["node"], set())
    failed = submitted - len(committed_everywhere)
    if healthy:
        if summary["truncated"] or failed:
            raise CheckError(f"{failed} transactions not committed on every live node")
        if len({n["chain_digest"] for n in live}) != 1 or len({n["state_root"] for n in live}) != 1:
            raise CheckError("live nodes ended with different chains or states")
    elif summary["truncated"] != bool(failed):
        raise CheckError("summary's truncated flag disagrees with the commits traced")
    return failed


def check_proof(proof: dict, leaf: bytes, root: bytes) -> None:
    """Replay a `query proof` answer by hand against a known Merkle root."""
    if bytes.fromhex(proof["leaf"]) != leaf:
        raise CheckError("proof leaf is not the transaction's hash")
    if bytes.fromhex(proof["merkle_root"]) != root:
        raise CheckError("proof names another Merkle root")
    cur, idx = leaf, proof["leaf_index"]
    for step in proof["siblings"]:
        sib = bytes.fromhex(step["hash"])
        if step["sibling_on_right"] != (idx % 2 == 0):
            raise CheckError("proof sibling on the wrong side")
        cur = _sha(cur + sib) if step["sibling_on_right"] else _sha(sib + cur)
        idx //= 2
    if idx != 0 or cur != root:
        raise CheckError("proof does not lead to the block's Merkle root")
