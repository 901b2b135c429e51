"""Merkle commitment and inclusion-proof properties."""

import pytest
from hypothesis import given, strategies as st

from testingplus.block import MerkleProof, merkle_proof, merkle_root, verify_merkle_proof
from testingplus.codec import ZERO_HASH, hash256
from testingplus.tx import SetTestingFee, Transaction

from conftest import Actor
from oracles import manual_merkle, sha


def _block_with(n_txs):
    from testingplus.block import BlockHeader, Block

    a = Actor(b"\x66" * 32)
    txs = tuple(
        a.sign(Transaction(a.address, i, SetTestingFee(b"\x00" * 32, i), 0))
        for i in range(n_txs)
    )
    root = merkle_root([tx.hash() for tx in txs])
    header = BlockHeader(1, ZERO_HASH, root, ZERO_HASH, 0, a.address)
    return Block(header, txs, ())


def test_empty_list_is_zero_root():
    assert merkle_root([]) == ZERO_HASH


def test_single_leaf_is_its_own_root():
    leaf = hash256(b"one")
    assert merkle_root([leaf]) == leaf


def test_three_leaf_vector_matches_independent_computation():
    h1, h2, h3 = sha(b"tx1"), sha(b"tx2"), sha(b"tx3")
    expected = sha(sha(h1 + h2) + sha(h3 + h3))
    assert merkle_root([h1, h2, h3]) == expected
    # and the frozen fixture
    from conftest import fixture_hex

    assert merkle_root([h1, h2, h3]) == fixture_hex("merkle3_root.hex")


@given(st.lists(st.binary(min_size=32, max_size=32), max_size=33))
def test_matches_independent_oracle(leaves):
    assert merkle_root(leaves) == manual_merkle(leaves)


def test_single_tx_proof_has_empty_siblings():
    block = _block_with(1)
    proof = merkle_proof(block, 0)
    assert proof.siblings == ()
    leaf = block.transactions[0].hash()
    assert verify_merkle_proof(leaf, proof, leaf)


def test_three_tx_proof_at_index_2():
    block = _block_with(3)
    hashes = [tx.hash() for tx in block.transactions]
    proof = merkle_proof(block, 2)
    assert proof.siblings == ((hashes[2], True), (sha(hashes[0] + hashes[1]), False))
    assert verify_merkle_proof(hashes[2], proof, block.header.merkle_root)


def test_wrong_root_rejected():
    block = _block_with(3)
    proof = merkle_proof(block, 1)
    leaf = block.transactions[1].hash()
    assert not verify_merkle_proof(leaf, proof, hash256(b"other root"))


def test_index_out_of_range():
    block = _block_with(2)
    with pytest.raises(IndexError):
        merkle_proof(block, 2)
    # an odd count pads its last level, where index n would find a sibling
    for n in range(1, 9):
        block = _block_with(n)
        for index in (n, -1):
            with pytest.raises(IndexError, match=f"tx index {index} out of range"):
                merkle_proof(block, index)


@pytest.mark.parametrize("n_txs", [3, 5])
def test_a_tree_walk_leaves_its_leaves_alone(n_txs):
    """An odd level is padded in the walk's own copy, never in the list of
    leaves a caller passed or in the block's `tx_hashes`."""
    block = _block_with(n_txs)
    hashes = list(block.tx_hashes)
    for i in range(n_txs):
        merkle_proof(block, i)
    assert block.tx_hashes == hashes
    assert merkle_root(hashes) == block.header.merkle_root
    assert len(hashes) == n_txs


@pytest.mark.parametrize("n_txs", [1, 2, 3, 4, 5, 7, 8])
def test_all_indices_verify(n_txs):
    block = _block_with(n_txs)
    for i, tx in enumerate(block.transactions):
        proof = merkle_proof(block, i)
        assert verify_merkle_proof(tx.hash(), proof, block.header.merkle_root)


@given(st.integers(2, 9), st.data())
def test_any_mutation_fails(n_txs, data):
    block = _block_with(n_txs)
    i = data.draw(st.integers(0, n_txs - 1))
    proof = merkle_proof(block, i)
    leaf = block.transactions[i].hash()
    root = block.header.merkle_root
    what = data.draw(st.sampled_from(["leaf", "sibling", "index", "flag"]))
    if what == "leaf":
        bit = data.draw(st.integers(0, 255))
        bad = bytes([leaf[0] ^ (bit or 1)]) + leaf[1:]
        assert not verify_merkle_proof(bad, proof, root)
    elif what == "sibling" and proof.siblings:
        k = data.draw(st.integers(0, len(proof.siblings) - 1))
        sib, side = proof.siblings[k]
        bad_sib = bytes([sib[0] ^ 1]) + sib[1:]
        mutated = proof.siblings[:k] + ((bad_sib, side),) + proof.siblings[k + 1 :]
        assert not verify_merkle_proof(leaf, MerkleProof(proof.leaf_index, mutated), root)
    elif what == "index":
        delta = data.draw(st.integers(1, 7))
        assert not verify_merkle_proof(
            leaf, MerkleProof(proof.leaf_index + delta, proof.siblings), root
        )
    elif what == "flag" and proof.siblings:
        k = data.draw(st.integers(0, len(proof.siblings) - 1))
        sib, side = proof.siblings[k]
        mutated = proof.siblings[:k] + ((sib, not side),) + proof.siblings[k + 1 :]
        assert not verify_merkle_proof(leaf, MerkleProof(proof.leaf_index, mutated), root)
