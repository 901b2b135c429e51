"""Each block is executed once on its way through stage, seal and append,
each signature is verified once when a store is loaded, and the per-block
state work does not grow with chain height: the state is hashed once per
block, to the root a transaction-by-transaction replay would reach."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from testingplus import chain as chain_mod
from testingplus import tx as tx_mod
from testingplus.block import build_block
from testingplus.chain import Chain, ChainStore, CorruptChainError
from testingplus.state import WorldState
from testingplus.tx import (
    DeployAcceptanceTest,
    PostFeedback,
    RecordExecution,
    RegisterTestCase,
    Transaction,
)
from testingplus.vm import apply_transaction, case_id_for, contract_id_for

from conftest import Actor, make_genesis
from test_golden_runs import ACTORS, _ledger_ops
from test_state_encoding import LOGS, SECTIONS

VALIDATOR = Actor(b"\x11" * 32)
CUSTOMER = Actor(b"\x22" * 32)
TESTER = Actor(b"\x44" * 32)


class Engagement:
    """One acceptance test, then blocks that each register a case, run it
    and leave feedback on the run, so the test history grows every block."""

    def __init__(self):
        self.chain = Chain(make_genesis(VALIDATOR, [(CUSTOMER, 1000), (TESTER, 1000)]))
        self.nonces = {CUSTOMER.address: 0, TESTER.address: 0}
        self.contract = contract_id_for(CUSTOMER.address, 0, DeployAcceptanceTest.TAG)
        self.append([self.tx(CUSTOMER, DeployAcceptanceTest(CUSTOMER.address, TESTER.address, 0))])

    def tx(self, actor, payload):
        nonce = self.nonces[actor.address]
        self.nonces[actor.address] += 1
        return actor.sign(Transaction(actor.address, nonce, payload, 0))

    def next_txs(self):
        h = self.chain.height + 1
        expected = h.to_bytes(32, "big")
        case = case_id_for(TESTER.address, self.nonces[TESTER.address], expected)
        register = self.tx(TESTER, RegisterTestCase(self.contract, b"case", b"\x01" * 32, expected))
        run = self.tx(TESTER, RecordExecution(case, expected))
        feedback = self.tx(CUSTOMER, PostFeedback(case, b"seen"))
        return [register, run, feedback]

    def seal(self, block):
        return self.chain.seal(block, [(VALIDATOR.address, VALIDATOR.secret)])

    def append(self, txs):
        tick = self.chain.height + 1
        block, _, staged = self.chain.stage(txs, VALIDATOR.address, tick)
        block = self.seal(block)
        appended = self.chain.append(block)
        assert staged == appended and all(rc.ok for rc in appended)
        return block


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_block_executes_once_through_stage_seal_append(monkeypatch):
    eng = Engagement()
    applied = count_calls(monkeypatch, chain_mod, "apply_transaction")
    copies = count_calls(monkeypatch, WorldState, "copy")
    for _ in range(3):
        txs = eng.next_txs()
        before = len(applied)
        eng.append(txs)
        assert len(applied) - before == len(txs)
    assert len(copies) == 3


def test_changed_state_root_is_rejected_after_staging():
    eng = Engagement()
    txs = eng.next_txs()
    staged, _, _ = eng.chain.stage(txs, VALIDATOR.address, 5)
    forged = build_block(eng.chain.head.header, txs, b"\x42" * 32, VALIDATOR.address, 5)
    check = eng.chain.validate_block(forged)
    assert not check and check.reason == "state-root-mismatch"
    with pytest.raises(CorruptChainError, match="state-root-mismatch"):
        eng.chain.append(eng.seal(forged))
    # the genuine staged block still goes through
    eng.chain.append(eng.seal(staged))
    assert eng.chain.height == 2


def test_post_state_cache_is_empty_after_append():
    eng = Engagement()
    txs = eng.next_txs()
    a, _, _ = eng.chain.stage(txs, VALIDATOR.address, 5)
    b, _, _ = eng.chain.stage(txs[:1], VALIDATOR.address, 6)  # a competing proposal
    assert len(eng.chain._executed) == 2
    eng.chain.append(eng.seal(a))
    assert eng.chain._executed == {}
    # the competitor's parent is no longer the head
    assert eng.chain.validate_block(b).reason == "height-mismatch"


def test_stage_hands_out_no_cached_state():
    eng = Engagement()
    block, root, receipts = eng.chain.stage(eng.next_txs(), VALIDATOR.address, 5)
    assert root == block.header.state_root
    assert not any(isinstance(x, WorldState) for x in (block, root, *receipts))
    receipts.clear()  # the caller's list is its own
    assert len(eng.chain.append(eng.seal(block))) == 3


def test_state_serializations_per_block_flat_in_height(monkeypatch):
    eng = Engagement()
    serialized = count_calls(monkeypatch, WorldState, "serialize")
    per_block = {}
    while eng.chain.height < 60:
        txs = eng.next_txs()
        before = len(serialized)
        block = eng.append(txs)
        per_block[block.header.height] = len(serialized) - before
    assert per_block[10] == per_block[60]
    # one state root per block, after its last transaction
    assert set(per_block.values()) == {1}


def test_empty_block_hashes_no_state(monkeypatch):
    eng = Engagement()
    eng.append(eng.next_txs())
    serialized = count_calls(monkeypatch, WorldState, "serialize")
    block = eng.append([])
    assert len(serialized) == 0
    assert block.header.state_root == eng.chain.state.root()


def rebuilt(state):
    """A fresh state holding the same records, keyed ones put in reverse key order."""
    fresh = WorldState()
    for name in SECTIONS:
        section = getattr(state, name)
        for key in sorted(section, reverse=True):
            fresh.put(section[key])
    for name in LOGS:
        for record in getattr(state, name):
            fresh.put(record)
    return fresh


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
       data=st.data())
def test_block_root_matches_a_root_after_every_transaction(seed, sizes, data):
    """Blocks of the golden ledger stream (reverts and bad nonces among
    them): the one root `Chain.execute` takes equals the root after the
    last transaction of a replay that hashes after every transaction and
    copies in between, and the root of the same records put afresh. How
    often the kept encodings are read never changes the root's bytes."""
    chain = Chain(make_genesis(VALIDATOR, [(a, 500) for a in ACTORS]))
    ops = _ledger_ops(random.Random(seed), sum(sizes))
    for n in sizes:
        txs, ops = ops[:n], ops[n:]
        h = chain.height + 1
        tick = 3 * h
        replay = chain.state.copy()
        if data.draw(st.booleans(), label="read head root"):
            chain.state.root()
        for tx in txs:
            apply_transaction(replay, tx, height=h, tick=tick)
            post = replay.root()
            if data.draw(st.booleans(), label="copy"):
                replay = replay.copy()
                assert replay.root() == post
        block, root, _ = chain.stage(txs, VALIDATOR.address, tick)
        assert root == post == rebuilt(replay).root()
        chain.append(chain.seal(block, [(VALIDATOR.address, VALIDATOR.secret)]))
        assert chain.state.root() == root


def test_store_load_verifies_each_signature_once(tmp_path, monkeypatch):
    eng = Engagement()
    for _ in range(4):
        eng.append(eng.next_txs())
    store = ChainStore(tmp_path / "store")
    store.init(eng.chain.genesis)
    store.save(eng.chain)
    checked = []
    for module in (tx_mod, chain_mod):  # transaction and vote signatures
        original = module.verify

        def counted(pubkey, signature, message, original=original):
            checked.append(signature)
            return original(pubkey, signature, message)

        monkeypatch.setattr(module, "verify", counted)
    loaded = store.load()
    blocks = eng.chain.blocks
    signatures = [tx.signature for b in blocks for tx in b.transactions]
    signatures += [sig for b in blocks for _, sig in b.votes]
    assert len(signatures) == 13 + 5
    assert sorted(checked) == sorted(signatures)
    assert loaded.state.root() == eng.chain.state.root()
