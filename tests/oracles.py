"""Independent oracles for the byte layouts and workflow rules.

These deliberately avoid the library's encoder classes: everything is
assembled with struct/hashlib by hand so a layout bug in the package cannot
hide in its own tests.
"""

import hashlib
import struct


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def u64(v: int) -> bytes:
    return struct.pack(">Q", v)


def lp(b: bytes) -> bytes:
    return struct.pack(">I", len(b)) + b


def manual_unsigned_tx(sender, nonce, tag, body, value):
    return lp(sender) + u64(nonce) + bytes([tag]) + body + u64(value)


def manual_signed_tx(sender, nonce, tag, body, value, signature):
    return manual_unsigned_tx(sender, nonce, tag, body, value) + lp(signature)


def manual_header(height, prev, merkle, state, timestamp, proposer):
    return u64(height) + lp(prev) + lp(merkle) + lp(state) + u64(timestamp) + lp(proposer)


def manual_merkle(leaves):
    if not leaves:
        return b"\x00" * 32
    level = list(leaves)
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [sha(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def manual_created_id(payload, sender, nonce):
    """Id of the record `payload` creates, or None: SHA-256 of sender, the
    nonce as a big-endian u64 and a salt fixed by the payload's tag byte."""
    tag = payload.TAG
    if tag in (0x01, 0x03, 0x05):  # the three deploy ops
        salt = bytes([tag])
    elif tag == 0x10:  # register_test_case
        salt = payload.expected_output_digest
    elif tag == 0x11:  # record_execution
        salt = payload.actual_output_digest + b"\x11"
    elif tag == 0x12:  # post_feedback
        salt = payload.subject + b"\x12"
    else:
        return None
    return sha(sender + u64(nonce) + salt)


def rescan_compensation(blocks_payloads, tester, from_h, to_h, base, bonus):
    """Brute-force Workflow-E oracle over decoded chain payload tuples.

    blocks_payloads: list per height of (height, sender, kind, fields) where
    kind is 'register' (case_id, expected) or 'execute' (case_id, actual).
    Recomputes verdicts from scratch and counts the tester's records.
    """
    expected_by_case = {}
    executed = matched = total = 0
    for height, sender, kind, fields in blocks_payloads:
        if kind == "register":
            case_id, expected = fields
            expected_by_case[case_id] = expected
        elif kind == "execute":
            case_id, actual = fields
            if case_id not in expected_by_case:
                continue  # reverted on-chain; not a record
            if from_h <= height <= to_h:
                total += 1
                if sender == tester:
                    executed += 1
                    if actual == expected_by_case[case_id]:
                        matched += 1
    amount = base * executed + bonus * matched
    ppm = (1_000_000 * executed) // total if total else 0
    return executed, matched, amount, ppm


def total_currency(state) -> int:
    """Circulating balances plus funds held in acceptance-test escrow."""
    return sum(a.balance for a in state.accounts.values()) + sum(
        t.escrow for t in state.acceptance_tests.values()
    )
