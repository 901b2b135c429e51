"""ledger-growth: one validator, in process, blocks of engagement
transactions through Chain.stage -> Chain.seal -> Chain.append.

Set-up grows a starting history through the same path. Each round of the
timed phase starts again from a copy of that history and appends the same
blocks, so every round does the same work at the same heights.
"""

from __future__ import annotations

import copy
import math
import time

import gen
from machine import reference_ms
from checks import check_blocks, check_ledger_state, check_receipts
from testingplus.chain import Chain, GenesisConfig
from testingplus.keys import address_from_pubkey, generate_keypair
from testingplus.tx import (
    CompleteTest,
    DeployAcceptanceTest,
    DeployCustomerAgreement,
    DeployDeveloperAgreement,
    InitiateTest,
    PostFeedback,
    RecordExecution,
    RegisterTestCase,
    SetReward,
    SetTestingFee,
    Transaction,
    sign_transaction,
)

# size -> (history blocks, transactions per block, blocks per round)
SIZES = {"full": (40, 10, 40), "tiny": (3, 10, 3)}
BALANCE = 10**9


def payload_of(fields: dict):
    h = bytes.fromhex
    op = fields["op"]
    if op == "deploy_customer_agreement":
        return DeployCustomerAgreement()
    if op == "set_testing_fee":
        return SetTestingFee(h(fields["contract"]), fields["fee"])
    if op == "deploy_developer_agreement":
        return DeployDeveloperAgreement()
    if op == "set_reward":
        return SetReward(h(fields["contract"]), fields["amount"])
    if op == "deploy_acceptance_test":
        return DeployAcceptanceTest(h(fields["customer"]), h(fields["developer"]), fields["fee"])
    if op == "initiate_test":
        return InitiateTest(h(fields["contract"]))
    if op == "complete_test":
        return CompleteTest(h(fields["contract"]))
    if op == "register_test_case":
        return RegisterTestCase(
            h(fields["contract"]), fields["description"].encode(),
            gen.digest_field(fields, "input"), gen.digest_field(fields, "expected_output"))
    if op == "record_execution":
        return RecordExecution(h(fields["case"]), gen.digest_field(fields, "actual_output"))
    return PostFeedback(h(fields["subject"]), fields["body"].encode())


class Ledger:
    def __init__(self, seed: int, size: str):
        self.history_blocks, self.per_block, self.round_blocks = SIZES[size]
        n_txs = (self.history_blocks + self.round_blocks) * self.per_block
        self.entries = gen.engagements(seed, -(-n_txs // gen.TXS_PER_ENGAGEMENT), b"ledger")
        self.entries = self.entries[:n_txs]
        self.validator = generate_keypair(gen.key_seed(b"ledger-validator", seed, 0))
        self.vaddr = address_from_pubkey(self.validator[1])
        keys = [generate_keypair(gen.key_seed(b"ledger", seed, i)) for i in range(gen.N_ACCOUNTS)]
        addrs = [address_from_pubkey(pk) for _, pk in keys]
        genesis = GenesisConfig(
            chain_id=gen.sha(b"ledger-growth" + gen.u64(seed)),
            validator_pubkeys=[self.validator[1]],
            accounts=[(pk, BALANCE) for _, pk in keys],
        )
        resolved = gen.resolve(self.entries, addrs, [0] * len(keys), {})
        txs = [
            sign_transaction(
                Transaction(r["sender"], r["nonce"], payload_of(r["fields"]),
                            r["fields"].get("value", 0)),
                *keys[r["sender_index"]],
            )
            for r in resolved
        ]
        self.blocks = [txs[i:i + self.per_block] for i in range(0, n_txs, self.per_block)]
        chain = Chain(genesis)
        for b in range(self.history_blocks):
            self.append(chain, b)
        self.start = chain
        t = gen.tally(self.entries)
        t["settled_by_addr"] = {addrs[d]: fee for d, fee in t["settled"].items()}
        self.tally = t
        self.issued = BALANCE * len(keys)
        self.developers = {addrs[2]: BALANCE, addrs[3]: BALANCE}

    def append(self, chain: Chain, b: int) -> list:
        block, _, staged = chain.stage(self.blocks[b], self.vaddr, b + 1)
        block = chain.seal(block, [(self.vaddr, self.validator[0])])
        return staged + chain.append(block)


def setup(seed: int, size: str, workdir) -> Ledger:
    return Ledger(seed, size)


def run(ledger: Ledger, seconds: float, tracer) -> dict:
    round_ms: list[list[float]] = []
    ref_ms: list[float] = []
    rounds = 0
    began = time.monotonic()
    while rounds == 0 or time.monotonic() - began < seconds:
        chain = copy.deepcopy(ledger.start)
        receipts = []
        block_ms = []
        if tracer:
            tracer.active = True
        for b in range(ledger.history_blocks, ledger.history_blocks + ledger.round_blocks):
            ref_ms.append(reference_ms())
            t0 = time.perf_counter()
            receipts += ledger.append(chain, b)
            block_ms.append((time.perf_counter() - t0) * 1000)
        round_ms.append(block_ms)
        if tracer:
            tracer.active = False
        check_receipts(receipts)
        check_blocks(chain.blocks, {ledger.vaddr: ledger.validator[1]}, 1,
                     start=1 if rounds == 0 else ledger.history_blocks + 1)
        check_ledger_state(chain.state, chain.head.header, ledger.tally, ledger.issued,
                           ledger.developers)
        rounds += 1
    blocks = rounds * ledger.round_blocks
    txs = blocks * ledger.per_block
    return {
        "attempted": txs,
        "failed": 0,
        "rounds": rounds,
        "round_ms": round_ms,
        "ref_ms": ref_ms,
        "op_positions": range(ledger.round_blocks),
        "committed_per_round": ledger.round_blocks * ledger.per_block,
        "extra_metrics": {"block_ms_tail": tail([t for r in round_ms for t in r])},
        "denom": {"txs": txs, "blocks": blocks, "cmds": 0, "submits": 0, "scenarios": 0,
                  "ticks": 0},
        "extra": {},
    }


def tail(samples: list[float]):
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, by nearest rank; None below forty samples."""
    n = len(samples)
    if n < 40:
        return None
    p = math.floor(100 * (n - 10) / n)
    xs = sorted(samples)
    return p, xs[math.ceil(p * n / 100) - 1]
