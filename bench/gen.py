"""Seeded inputs shared by the workloads.

The unit of work is an *engagement*: one customer, one developer and one
tester run a full acceptance-test life cycle, 17 transactions in all. Its
entries use the simulator's workload format (`op`, `sender`, fields, and
`{"ref": k}` for an id created by entry k of the same stream), so the
sim-faults workload hands them to the program unchanged, while ledger-growth
and cli-store resolve them here, with ids derived from `hashlib` alone.

The seed chooses fees, rewards, text and digests; it never changes how many
transactions there are or which succeed.
"""

from __future__ import annotations

import hashlib
import random
import struct

# account indices: customers 0-1, developers 2-3, testers 4-5
N_ACCOUNTS = 6
CASES_PER_ENGAGEMENT = 2
TXS_PER_ENGAGEMENT = 6 + 5 * CASES_PER_ENGAGEMENT + 1

TAG_CUSTOMER_AGREEMENT = 0x01
TAG_DEVELOPER_AGREEMENT = 0x03
TAG_ACCEPTANCE_TEST = 0x05


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def u64(value: int) -> bytes:
    return struct.pack(">Q", value)


def key_seed(label: bytes, seed: int, index: int) -> bytes:
    """32-byte Ed25519 seed for account `index` of a workload."""
    return sha(b"testingplus-bench/" + label + b"/" + u64(seed) + u64(index))


def engagement(rng: random.Random, k: int, base: int, open_only: bool = False) -> list[dict]:
    """Entries of engagement k, whose first entry has stream index `base`.

    With open_only the engagement stops once the acceptance test is funded,
    leaving it open for cases registered later.
    """
    c, d, t = k % 2, 2 + k % 2, 4 + k % 2
    fee = rng.randrange(50, 150)
    out = [
        {"op": "deploy_customer_agreement", "sender": c},
        {"op": "set_testing_fee", "sender": c, "contract": {"ref": base}, "fee": fee},
        {"op": "deploy_developer_agreement", "sender": d},
        {"op": "set_reward", "sender": d, "contract": {"ref": base + 2},
         "amount": rng.randrange(10, 100)},
        {"op": "deploy_acceptance_test", "sender": c, "customer": c, "developer": d,
         "fee": fee},
        {"op": "initiate_test", "sender": c, "contract": {"ref": base + 4}, "value": fee},
    ]
    if open_only:
        return out
    for _ in range(CASES_PER_ENGAGEMENT):
        out.extend(case_entries(rng, base + len(out), base + 4, t, c, d))
    out.append({"op": "complete_test", "sender": d, "contract": {"ref": base + 4}})
    return out


def case_entries(rng: random.Random, base: int, contract_ref: int, t: int, c: int,
                 d: int) -> list[dict]:
    """Register a case, fail it, pass it, and leave feedback on the case and
    on the passing run: five entries starting at stream index `base`."""
    tag = rng.getrandbits(64)
    expected = f"expected-{tag:016x}"
    return [
        {"op": "register_test_case", "sender": t, "contract": {"ref": contract_ref},
         "description": f"case {tag:016x}", "input": f"input-{tag:016x}",
         "expected_output": expected},
        {"op": "record_execution", "sender": t, "case": {"ref": base},
         "actual_output": f"wrong-{tag:016x}"},
        {"op": "record_execution", "sender": t, "case": {"ref": base},
         "actual_output": expected},
        {"op": "post_feedback", "sender": c, "subject": {"ref": base},
         "body": f"case note {tag:016x}"},
        {"op": "post_feedback", "sender": d, "subject": {"ref": base + 2},
         "body": f"run note {tag:016x}"},
    ]


def engagements(seed: int, count: int, label: bytes) -> list[dict]:
    rng = random.Random(sha(b"engagements/" + label + u64(seed)))
    out: list[dict] = []
    for k in range(count):
        out.extend(engagement(rng, k, len(out)))
    return out


def digest_field(entry: dict, raw_key: str) -> bytes:
    return sha(str(entry.get(raw_key, "")).encode())


def created_id(entry: dict, sender: bytes, nonce: int) -> bytes | None:
    """Id a successful entry creates, derived as the contracts specify."""
    op = entry["op"]
    if op == "deploy_customer_agreement":
        return sha(sender + u64(nonce) + bytes([TAG_CUSTOMER_AGREEMENT]))
    if op == "deploy_developer_agreement":
        return sha(sender + u64(nonce) + bytes([TAG_DEVELOPER_AGREEMENT]))
    if op == "deploy_acceptance_test":
        return sha(sender + u64(nonce) + bytes([TAG_ACCEPTANCE_TEST]))
    if op == "register_test_case":
        return sha(sender + u64(nonce) + digest_field(entry, "expected_output"))
    if op == "record_execution":
        return sha(sender + u64(nonce) + digest_field(entry, "actual_output") + b"\x11")
    return None


def resolve(entries: list[dict], addrs: list[bytes], nonces: list[int],
            created: dict[int, bytes]) -> list[dict]:
    """Resolve refs to hex ids and assign nonces in stream order.

    Returns one dict per entry with `sender_index`, `sender`, `nonce` and its
    fields with every ref replaced by a hex id. `nonces` and `created` (entry
    index -> id it creates) are updated in place.
    """
    out = []
    for k, entry in enumerate(entries):
        s = entry["sender"]
        sender, nonce = addrs[s], nonces[s]
        fields = {}
        for key, value in entry.items():
            if isinstance(value, dict) and "ref" in value:
                fields[key] = created[value["ref"]].hex()
            elif key in ("customer", "developer"):
                fields[key] = addrs[value].hex()
            else:
                fields[key] = value
        cid = created_id(entry, sender, nonce)
        if cid is not None:
            created[k] = cid
        nonces[s] += 1
        out.append({"sender_index": s, "sender": sender, "nonce": nonce, "fields": fields})
    return out


def tally(entries: list[dict]) -> dict:
    """What a stream does to the registry and to balances, counted from the
    entries alone (every entry succeeds by construction)."""
    t = {"cases": 0, "executions": 0, "passes": 0, "feedbacks": 0, "completed": 0,
         "escrowed": 0, "settled": {}}
    fees: dict[int, tuple[int, int]] = {}  # acceptance-test entry -> (developer, fee)
    expected: dict[int, str] = {}
    for k, e in enumerate(entries):
        op = e["op"]
        if op == "deploy_acceptance_test":
            fees[k] = (e["developer"], e["fee"])
        elif op == "initiate_test":
            t["escrowed"] += e["value"]
        elif op == "register_test_case":
            t["cases"] += 1
            expected[k] = e["expected_output"]
        elif op == "record_execution":
            t["executions"] += 1
            t["passes"] += e["actual_output"] == expected[e["case"]["ref"]]
        elif op == "post_feedback":
            t["feedbacks"] += 1
        elif op == "complete_test":
            t["completed"] += 1
            dev, fee = fees[e["contract"]["ref"]]
            t["settled"][dev] = t["settled"].get(dev, 0) + fee
            t["escrowed"] -= fee
    return t
