"""Block construction and whole-chain verification."""

import random
from dataclasses import replace

import pytest

from testingplus.block import (
    Block,
    BlockHeader,
    build_block,
    decode_chain,
    encode_chain,
    merkle_root,
)
from testingplus.chain import Chain, ChainStore, CorruptChainError, verify_chain
from testingplus.cli import EXIT_CORRUPT, main
from testingplus.codec import ZERO_HASH, hash256
from testingplus.keys import sign
from testingplus.tx import DeployCustomerAgreement, SetTestingFee, Transaction

from conftest import Actor, fixture_hex, make_genesis


def test_golden_header_encoding(validator):
    header = BlockHeader(3, b"\xaa" * 32, b"\xbb" * 32, b"\xcc" * 32, 99, validator.address)
    assert header.encode() == fixture_hex("golden_header.hex")
    assert header.hash() == fixture_hex("golden_header_hash.hex")


def test_build_block_links_parent(chain, customer, validator):
    tx = customer.sign(Transaction(customer.address, 0, DeployCustomerAgreement(), 0))
    block = build_block(chain.head.header, [tx], b"\x00" * 32, validator.address, 5)
    assert block.header.height == 1
    assert block.header.prev_hash == chain.head.header.hash()
    assert block.header.merkle_root == merkle_root([tx.hash()])
    assert block.votes == ()


def test_build_block_empty_txs_zero_merkle(chain, validator):
    block = build_block(chain.head.header, [], b"\x00" * 32, validator.address, 5)
    assert block.header.merkle_root == ZERO_HASH


def _fixture_chain(n_blocks=10):
    validator = Actor(b"\x11" * 32)
    customer = Actor(b"\x22" * 32)
    developer = Actor(b"\x33" * 32)
    g = make_genesis(validator, [(customer, 1000), (developer, 200)])
    chain = Chain(g)
    rng = random.Random(1234)
    nonce = 0
    for h in range(1, n_blocks):
        txs = []
        for _ in range(rng.randint(1, 3)):
            txs.append(
                customer.sign(
                    Transaction(customer.address, nonce, SetTestingFee(b"\x00" * 32, nonce), 0)
                )
            )
            nonce += 1
        block, state, _ = chain.stage(txs, validator.address, h)
        block = chain.seal(block, [(validator.address, validator.secret)])
        chain.append(block)
    return chain


def _failed_check(blocks, chain):
    """(height, reason) of the `CorruptChainError` that `verify_chain` raises."""
    with pytest.raises(CorruptChainError) as err:
        verify_chain(blocks, chain.validators, chain.pubkeys)
    return err.value.height, err.value.reason


def test_valid_fixture_chain_verifies():
    chain = _fixture_chain(11)
    assert verify_chain(chain.blocks, chain.validators, chain.pubkeys) is None


def test_chain_roundtrips_through_binary_stream():
    chain = _fixture_chain(6)
    assert decode_chain(encode_chain(chain.blocks)) == chain.blocks


def test_tx_byte_flip_detected_at_its_height():
    chain = _fixture_chain(11)
    blocks = list(chain.blocks)
    victim = blocks[4]
    tx = victim.transactions[-1]
    bad_sig = bytes([tx.signature[0] ^ 1]) + tx.signature[1:]
    bad_tx = Transaction(tx.sender, tx.nonce, tx.payload, tx.value, bad_sig)
    blocks[4] = Block(victim.header, victim.transactions[:-1] + (bad_tx,), victim.votes)
    assert _failed_check(blocks, chain) == (4, "merkle-mismatch")


def test_vote_removal_below_quorum_detected():
    chain = _fixture_chain(11)
    blocks = list(chain.blocks)
    victim = blocks[7]
    blocks[7] = Block(victim.header, victim.transactions, ())
    assert _failed_check(blocks, chain) == (7, "quorum")


def test_header_field_mutation_detected_at_its_height():
    chain = _fixture_chain(11)
    blocks = list(chain.blocks)
    victim = blocks[5]
    bad_header = BlockHeader(
        victim.header.height,
        victim.header.prev_hash,
        victim.header.merkle_root,
        hash256(b"not the state root"),
        victim.header.timestamp,
        victim.header.proposer,
    )
    blocks[5] = Block(bad_header, victim.transactions, victim.votes)
    height, _ = _failed_check(blocks, chain)
    assert height == 5  # vote signatures cover the header hash


def test_duplicate_vote_rejected():
    chain = _fixture_chain(5)
    blocks = list(chain.blocks)
    victim = blocks[2]
    blocks[2] = Block(victim.header, victim.transactions, victim.votes + victim.votes)
    assert _failed_check(blocks, chain) == (2, "vote-duplicate")


def test_forged_vote_rejected():
    chain = _fixture_chain(5)
    outsider = Actor(b"\x99" * 32)
    blocks = list(chain.blocks)
    victim = blocks[3]
    forged = (outsider.address, sign(outsider.secret, victim.header.hash()))
    blocks[3] = Block(victim.header, victim.transactions, (forged,))
    assert _failed_check(blocks, chain) == (3, "vote-not-validator")


@pytest.mark.parametrize("reason", ["unknown-sender", "tx-signature"])
def test_bad_sender_fails_append_audit_and_load_at_its_height(tmp_path, capsys, reason):
    """A sealed block whose transaction is signed by a key outside the
    genesis, or carries a bad signature, is refused at its height by every
    path onto a chain."""
    validator = Actor(b"\x11" * 32)
    chain = _fixture_chain(4)
    if reason == "unknown-sender":
        signer = Actor(b"\x99" * 32)
        tx = signer.sign(Transaction(signer.address, 0, SetTestingFee(b"\x00" * 32, 1), 0))
    else:
        customer = Actor(b"\x22" * 32)
        good = customer.sign(Transaction(customer.address, 9, SetTestingFee(b"\x00" * 32, 1), 0))
        tx = replace(good, signature=bytes([good.signature[0] ^ 1]) + good.signature[1:])
    block = build_block(chain.head.header, [tx], chain.head.header.state_root, validator.address, 9)
    block = chain.seal(block, [(validator.address, validator.secret)])
    blocks = chain.blocks + [block]

    assert _failed_check(blocks, chain) == (4, reason)
    with pytest.raises(CorruptChainError) as err:
        chain.append(block)
    assert (err.value.height, err.value.reason) == (4, reason)
    assert chain.height == 3

    store = ChainStore(tmp_path / "store")
    store.init(chain.genesis)
    store.chain_path.write_bytes(encode_chain(blocks))
    with pytest.raises(CorruptChainError) as err:
        store.load()
    assert (err.value.height, err.value.reason) == (4, reason)
    assert main(["query", "--store", str(store.root), "state"]) == EXIT_CORRUPT
    assert f"chain invalid at height 4: {reason}" in capsys.readouterr().err


def test_empty_chain_invalid(chain):
    assert _failed_check([], chain) == (0, "empty chain")


@pytest.mark.parametrize("trials", [250])
def test_tamper_evidence_random_mutations(trials):
    """Seeded single-byte mutations anywhere in a block are flagged at or
    before the mutated height."""
    chain = _fixture_chain(11)
    rng = random.Random(99)
    for _ in range(trials):
        blocks = list(chain.blocks)
        h = rng.randrange(1, len(blocks))
        enc = bytearray(blocks[h].encode())
        pos = rng.randrange(len(enc))
        enc[pos] ^= 1 << rng.randrange(8)
        from testingplus.codec import Reader, DecodeError

        try:
            r = Reader(bytes(enc))
            from testingplus.block import Block

            mutated = Block.decode(r)
            r.expect_end()
        except DecodeError:
            continue  # undecodable bytes cannot even enter a chain
        if mutated == blocks[h]:
            continue  # e.g. flip inside a length prefix reproducing same value
        blocks[h] = mutated
        try:
            verify_chain(blocks, chain.validators, chain.pubkeys)
        except CorruptChainError as err:
            assert err.height <= h
        else:
            pytest.fail(f"mutation at height {h} byte {pos} undetected")


def test_store_load_fails_at_lowest_bad_height_of_either_kind(tmp_path):
    """Block 3 carries a sealed header with a wrong state root, block 5 a
    broken link: loading replays block by block and stops at 3, while the
    structural audit alone only sees block 5."""
    validator = Actor(b"\x11" * 32)
    chain = _fixture_chain(6)
    blocks = list(chain.blocks)

    def resealed(block, **header_fields):
        header = replace(block.header, **header_fields)
        return chain.seal(Block(header, block.transactions, ()), [(validator.address, validator.secret)])

    blocks[3] = resealed(blocks[3], state_root=hash256(b"not the state root"))
    blocks[4] = resealed(blocks[4], prev_hash=blocks[3].header.hash())
    blocks[5] = resealed(blocks[5], prev_hash=hash256(b"not the parent"))
    assert _failed_check(blocks, chain) == (5, "link-mismatch")

    store = ChainStore(tmp_path / "store")
    store.init(chain.genesis)
    store.chain_path.write_bytes(encode_chain(blocks))
    with pytest.raises(CorruptChainError) as err:
        store.load()
    assert (err.value.height, err.value.reason) == (3, "state-root-mismatch")
