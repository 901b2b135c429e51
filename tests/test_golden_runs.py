"""Byte-identity guards for whole runs.

A fixed ledger run (receipts with revert reasons and state-delta digests,
plus every header's state root) and fixed simulator traces are reduced to
one SHA-256 each and compared with digests pinned in `tests/fixtures/`. A
change to execution, state encoding, hashing or message scheduling that
alters any byte of any run fails here.

Each run is also pinned with its state roots left out: the ledger run's
receipts alone, and each trace with `conftest.masked` over it. A change to
the state root's definition re-pins the full digests, and must leave these
as they were: roots change no receipt, timing, message or event.
"""

import hashlib
import random

import pytest

from testingplus.chain import Chain
from testingplus.codec import enc_bytes, enc_u64, hash256
from testingplus.sim import SimScenario, run_simulation
from testingplus.tx import (
    CompleteTest,
    DeployAcceptanceTest,
    DeployCustomerAgreement,
    InitiateTest,
    PostFeedback,
    RecordExecution,
    RegisterTestCase,
    SetTestingFee,
    Transaction,
)
from testingplus.vm import apply_transaction

from conftest import Actor, fixture_hex, make_genesis, masked_digest
from oracles import manual_created_id

VALIDATOR = Actor(b"\x11" * 32)
ACTORS = [Actor(bytes([0x50 + i]) * 32) for i in range(4)]


def _ledger_ops(rng, n_ops):
    """Random engagement traffic; about a third of it reverts, for eight
    different reasons (bad nonces among them)."""
    nonces = {a.address: 0 for a in ACTORS}
    contracts, cases, execs = [], [], []
    ops = []
    for _ in range(n_ops):
        actor, other = rng.choice(ACTORS), rng.choice(ACTORS)
        nonce = nonces[actor.address]
        kind = rng.choice(["deploy", "initiate", "complete", "register", "execute",
                           "execute", "feedback", "fee"])
        value = 0
        if kind == "deploy" or not contracts:
            payload = DeployAcceptanceTest(actor.address, other.address, rng.randrange(0, 50))
            contracts.append((manual_created_id(payload, actor.address, nonce), payload.fee))
        elif kind == "initiate":
            cid, fee = rng.choice(contracts)
            payload, value = InitiateTest(cid), fee if rng.random() < 0.8 else fee + 1
        elif kind == "complete":
            payload = CompleteTest(rng.choice(contracts)[0])
        elif kind == "register" or not cases:
            expected = bytes([rng.randrange(256)]) * 32
            payload = RegisterTestCase(rng.choice(contracts)[0], b"case", b"\x01" * 32, expected)
            cases.append((manual_created_id(payload, actor.address, nonce), expected))
        elif kind == "execute":
            case_id, expected = rng.choice(cases)
            actual = expected if rng.random() < 0.6 else bytes([rng.randrange(256)]) * 32
            payload = RecordExecution(case_id, actual)
            execs.append(hashlib.sha256(actor.address + enc_u64(nonce) + actual + b"\x11").digest())
        elif kind == "feedback":
            pool = [c for c, _ in cases] + execs + [b"\x09" * 32]
            payload = PostFeedback(rng.choice(pool), b"looks good")
        else:
            payload = rng.choice([SetTestingFee(b"\x00" * 32, 1), DeployCustomerAgreement()])
        if rng.random() < 0.05:
            nonce += 1  # bad nonce: reverts without touching state
        else:
            nonces[actor.address] += 1
        ops.append(actor.sign(Transaction(actor.address, nonce, payload, value)))
    return ops


def ledger_run_digest(n_ops=150, seed=2024, roots=True):
    """Blocks of 1-6 transactions from one op stream, every seventh block empty.

    Receipts carry no state root, so each block's transactions are replayed
    one by one on a copy of its pre-state, and the digest of each one's pre-
    and post-state roots is folded in as receipts once carried it. Without
    `roots`, only the receipts are folded in."""
    rng = random.Random(seed)
    ops = _ledger_ops(rng, n_ops)
    chain = Chain(make_genesis(VALIDATOR, [(a, 500) for a in ACTORS]))
    acc = hashlib.sha256()
    while ops:
        h = chain.height + 1
        n = 0 if h % 7 == 0 else rng.randint(1, 6)
        txs, ops = ops[:n], ops[n:]
        replay, pre = chain.state.copy(), chain.head.header.state_root
        block, _, staged = chain.stage(txs, VALIDATOR.address, 3 * h)
        block = chain.seal(block, [(VALIDATOR.address, VALIDATOR.secret)])
        appended = chain.append(block)
        assert staged == appended and len(appended) == len(txs)
        if roots:
            acc.update(block.header.state_root)
        for tx, rc in zip(txs, appended):
            assert apply_transaction(replay, tx, height=h, tick=3 * h) == rc
            post = replay.root()
            acc.update(rc.tx_hash + enc_bytes(rc.status.encode()) + enc_bytes(rc.reason)
                       + (hash256(pre + post) if roots else b""))
            pre = post
        assert pre == block.header.state_root
    return acc.digest()


def test_fixed_ledger_run_is_byte_identical():
    assert ledger_run_digest() == fixture_hex("ledger_run_digest.hex")


def test_fixed_ledger_run_receipts_are_byte_identical():
    assert ledger_run_digest(roots=False) == fixture_hex("ledger_run_receipts.hex")


SIM_SCENARIO = {
    "seed": 11,
    "n_validators": 4,
    "latency": [1, 3],
    "drop_probability": 0.1,
    "partitions": [{"from_tick": 60, "to_tick": 120, "sides": [[0], [1, 2, 3]]}],
    "crash_faults": [{"node": 2, "tick": 300}],
    "accounts": [1000, 1000, 1000],
    "max_ticks": 500,
    "workload": [
        {"tick": 5, "sender": 0, "op": "deploy_customer_agreement"},
        {"tick": 8, "sender": 0, "op": "set_testing_fee", "contract": {"ref": 0}, "fee": 30},
        {"tick": 10, "sender": 1, "op": "deploy_developer_agreement"},
        {"tick": 12, "sender": 1, "op": "set_reward", "contract": {"ref": 2}, "amount": 7},
        {"tick": 20, "sender": 0, "op": "deploy_acceptance_test", "customer": 0,
         "developer": 1, "fee": 30},
        {"tick": 30, "sender": 0, "op": "initiate_test", "contract": {"ref": 4}, "value": 30},
        {"tick": 40, "sender": 2, "op": "register_test_case", "contract": {"ref": 4},
         "description": "login", "input": "user", "expected_output": "ok"},
        {"tick": 70, "sender": 2, "op": "record_execution", "case": {"ref": 6},
         "actual_output": "error"},
        {"tick": 90, "sender": 2, "op": "record_execution", "case": {"ref": 6},
         "actual_output": "ok"},
        {"tick": 110, "sender": 0, "op": "post_feedback", "subject": {"ref": 8},
         "body": "confirmed"},
        {"tick": 130, "sender": 1, "op": "complete_test", "contract": {"ref": 4}},
        {"tick": 140, "sender": 1, "op": "complete_test", "contract": {"ref": 4}},
    ],
}


def test_fixed_simulation_trace_is_byte_identical():
    trace = run_simulation(SimScenario.from_dict(SIM_SCENARIO))
    digest = hashlib.sha256(trace.to_text().encode()).digest()
    assert digest == fixture_hex("sim_trace_digest.hex")
    assert masked_digest(trace.events) == fixture_hex("sim_trace_digest_masked.hex")


def _pinned(**overrides):
    scenario = dict(SIM_SCENARIO, partitions=[], crash_faults=[])
    scenario.update(overrides)
    return scenario


# More traces pinned on the simulator's fault, latency and drop handling; each
# digest was computed before the delivery loop was last rewritten.
PINNED_SCENARIOS = {
    # n=7, node 4 cut off over ticks 40-120, then node 2 crashes
    "n7_isolate_then_crash": _pinned(
        seed=3, n_validators=7, latency=[1, 3], drop_probability=0.05, max_ticks=400,
        partitions=[{"from_tick": 40, "to_tick": 120, "sides": [[4], [0, 1, 2, 3, 5, 6]]}],
        crash_faults=[{"node": 2, "tick": 160}],
    ),
    # the 2|2 split that leaves neither side a quorum and stalls the network
    "n4_split_stall": _pinned(
        seed=0, latency=[1, 3], drop_probability=0.05, max_ticks=400,
        partitions=[{"from_tick": 60, "to_tick": 160, "sides": [[0, 1], [2, 3]]}],
    ),
    # a latency span of one value, where every draw still consumes random bits
    "latency_span_one": _pinned(
        seed=5, latency=[2, 2], drop_probability=0.1, max_ticks=300,
        partitions=[{"from_tick": 60, "to_tick": 120, "sides": [[0], [1, 2, 3]]}],
    ),
    "drop_none": _pinned(seed=8, latency=[1, 4], drop_probability=0.0, max_ticks=300),
    "drop_all": _pinned(seed=9, latency=[1, 4], drop_probability=1.0, max_ticks=150),
    # two partitions overlapping over ticks 100-150, node 5 crashing inside both
    "overlapping_partitions": _pinned(
        seed=13, n_validators=7, latency=[1, 3], drop_probability=0.05, max_ticks=400,
        partitions=[
            {"from_tick": 50, "to_tick": 150, "sides": [[0], [1, 2, 3, 4, 5, 6]]},
            {"from_tick": 100, "to_tick": 200, "sides": [[0, 1, 2], [3, 4, 5, 6]]},
        ],
        crash_faults=[{"node": 5, "tick": 130}],
    ),
    "empty_blocks": _pinned(
        seed=21, latency=[1, 3], drop_probability=0.05, max_ticks=300, empty_block_interval=10,
    ),
}



def _engagement(k, base, tag):
    """The 17 entries of one acceptance-test engagement (stream index `base`
    on): customer k % 2, developer 2 + k % 2 and tester 4 + k % 2 set fees
    and rewards, register two cases, fail and pass each, leave feedback on
    each case and passing run, and complete."""
    c, d, t = k % 2, 2 + k % 2, 4 + k % 2
    fee = 50 + 7 * k
    out = [
        {"op": "deploy_customer_agreement", "sender": c},
        {"op": "set_testing_fee", "sender": c, "contract": {"ref": base}, "fee": fee},
        {"op": "deploy_developer_agreement", "sender": d},
        {"op": "set_reward", "sender": d, "contract": {"ref": base + 2}, "amount": 10 + k},
        {"op": "deploy_acceptance_test", "sender": c, "customer": c, "developer": d,
         "fee": fee},
        {"op": "initiate_test", "sender": c, "contract": {"ref": base + 4}, "value": fee},
    ]
    for case in range(2):
        i, label = base + len(out), f"{tag}-{k}-{case}"
        out += [
            {"op": "register_test_case", "sender": t, "contract": {"ref": base + 4},
             "description": f"case {label}", "input": f"input {label}",
             "expected_output": f"expected {label}"},
            {"op": "record_execution", "sender": t, "case": {"ref": i},
             "actual_output": f"wrong {label}"},
            {"op": "record_execution", "sender": t, "case": {"ref": i},
             "actual_output": f"expected {label}"},
            {"op": "post_feedback", "sender": c, "subject": {"ref": i},
             "body": f"case note {label}"},
            {"op": "post_feedback", "sender": d, "subject": {"ref": i + 2},
             "body": f"run note {label}"},
        ]
    out.append({"op": "complete_test", "sender": d, "contract": {"ref": base + 4}})
    return out


def _fault_shape(seed, n, sides, ticks, crash, engagements, tag):
    """One fault shape of the sim-faults benchmark: latency 1-3, 5% drop, a
    healing partition, at most one crash, no empty blocks, and `engagements`
    engagements submitted evenly over ticks 5-300."""
    entries = []
    for k in range(engagements):
        entries += _engagement(k, len(entries), tag)
    step = 295 / (len(entries) - 1)
    return {
        "seed": seed, "n_validators": n, "latency": [1, 3], "drop_probability": 0.05,
        "partitions": [{"from_tick": ticks[0], "to_tick": ticks[1], "sides": sides}],
        "crash_faults": [] if crash is None else [{"node": crash[0], "tick": crash[1]}],
        "accounts": [10**6] * 6,
        "workload": [dict(e, tick=5 + round(i * step)) for i, e in enumerate(entries)],
        "max_ticks": 500,
        "empty_block_interval": 10**6,
    }


# The five fault shapes of the sim-faults benchmark, each with a workload of
# its own: an isolated validator that rejoins before another crashes, and the
# 2|2 split on two network seeds, which stalls for good.
PINNED_SCENARIOS.update({
    f"fault_{name}": _fault_shape(*shape, tag=name) for name, shape in {
        "n4_isolate1_crash3": (0, 4, [[1], [0, 2, 3]], (80, 160), (3, 220), 2),
        "n7_isolate1_crash6": (0, 7, [[1], [0, 2, 3, 4, 5, 6]], (80, 160), (6, 220), 2),
        "n7_isolate4_crash2": (0, 7, [[4], [0, 1, 2, 3, 5, 6]], (40, 120), (2, 160), 2),
        "n4_split_0": (0, 4, [[0, 1], [2, 3]], (60, 160), None, 4),
        "n4_split_1": (1, 4, [[0, 1], [2, 3]], (60, 160), None, 4),
    }.items()
})


@pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS))
def test_pinned_simulation_trace_is_byte_identical(name):
    trace = run_simulation(SimScenario.from_dict(PINNED_SCENARIOS[name]))
    digest = hashlib.sha256(trace.to_text().encode()).digest()
    assert digest == fixture_hex(f"sim_trace_{name}.hex")
    assert masked_digest(trace.events) == fixture_hex(f"sim_trace_{name}_masked.hex")
