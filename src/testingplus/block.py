"""Blocks, headers, Merkle commitments and inclusion proofs."""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import cached_property

from .codec import BYTES, U64, Reader, ZERO_HASH, enc_bytes, enc_u64, hash256, DecodeError, schema
from .tx import Transaction, decode_transaction


@schema(None, U64, BYTES, BYTES, BYTES, U64, BYTES)
@dataclass(frozen=True)
class BlockHeader:
    height: int
    prev_hash: bytes
    merkle_root: bytes
    state_root: bytes
    timestamp: int
    proposer: bytes

    def hash(self) -> bytes:
        return self._hash

    @cached_property
    def _hash(self) -> bytes:
        # frozen, so the hash is computed once per object
        return hash256(self.encode())


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    transactions: tuple[Transaction, ...]
    votes: tuple[tuple[bytes, bytes], ...]  # (validator address, signature over header hash)

    def encode(self) -> bytes:
        out = [self.header.encode(), enc_u64(len(self.transactions))]
        for tx in self.transactions:
            out.append(enc_bytes(tx.encode()))
        out.append(enc_u64(len(self.votes)))
        for addr, sig in self.votes:
            out.append(enc_bytes(addr))
            out.append(enc_bytes(sig))
        return b"".join(out)

    def with_votes(self, votes) -> "Block":
        return replace(self, votes=tuple(votes))


def decode_block(r: Reader) -> Block:
    header = BlockHeader.decode(r)
    ntx = r.read_u64()
    txs = []
    for _ in range(ntx):
        txs.append(decode_transaction(Reader(r.read_bytes())))
    nvotes = r.read_u64()
    votes = []
    for _ in range(nvotes):
        addr = r.read_bytes()
        sig = r.read_bytes()
        votes.append((addr, sig))
    return Block(header, tuple(txs), tuple(votes))


def encode_chain(blocks) -> bytes:
    """Length-prefixed stream of canonical block encodings."""
    out = []
    for b in blocks:
        enc = b.encode()
        out.append(struct.pack(">I", len(enc)))
        out.append(enc)
    return b"".join(out)


def decode_chain(data: bytes) -> list[Block]:
    blocks = []
    pos = 0
    while pos < len(data):
        if pos + 4 > len(data):
            raise DecodeError("truncated block length prefix")
        (n,) = struct.unpack(">I", data[pos : pos + 4])
        pos += 4
        if pos + n > len(data):
            raise DecodeError("truncated block body")
        r = Reader(data[pos : pos + n])
        block = decode_block(r)
        r.expect_end()
        blocks.append(block)
        pos += n
    return blocks


def merkle_root(tx_hashes: list[bytes]) -> bytes:
    """Pairwise SHA-256 tree; empty list commits to 32 zero bytes, an odd
    node at any level is paired with itself."""
    if not tx_hashes:
        return ZERO_HASH
    level = list(tx_hashes)
    while len(level) > 1:
        level = _parent_level(level)
    return level[0]


def _parent_level(level: list[bytes]) -> list[bytes]:
    """The level above `level`. An odd last node is paired with itself: it
    is appended to `level`, where a proof then finds it as a sibling."""
    if len(level) % 2 == 1:
        level.append(level[-1])
    return [hash256(level[i] + level[i + 1]) for i in range(0, len(level), 2)]


@dataclass(frozen=True)
class MerkleProof:
    leaf_index: int
    # (sibling hash, sibling_on_right)
    siblings: tuple[tuple[bytes, bool], ...]


def merkle_proof(block: Block, tx_index: int) -> MerkleProof:
    if not 0 <= tx_index < len(block.transactions):
        raise IndexError(f"tx index {tx_index} out of range")
    level = [tx.hash() for tx in block.transactions]
    idx = tx_index
    siblings = []
    while len(level) > 1:
        parent = _parent_level(level)
        siblings.append((level[idx ^ 1], idx % 2 == 0))  # (sibling, sibling_on_right)
        level = parent
        idx //= 2
    return MerkleProof(tx_index, tuple(siblings))


def verify_merkle_proof(leaf: bytes, proof: MerkleProof, root: bytes) -> bool:
    """Replays the proof path; side flags must agree with the leaf index so
    that mutating the index alone also fails."""
    if proof.leaf_index < 0:
        return False
    cur = leaf
    idx = proof.leaf_index
    for sibling, on_right in proof.siblings:
        if on_right != (idx % 2 == 0):
            return False
        cur = hash256(cur + sibling) if on_right else hash256(sibling + cur)
        idx //= 2
    if idx != 0:
        return False
    return cur == root


def build_block(
    parent: BlockHeader,
    txs: list[Transaction],
    post_state_root: bytes,
    proposer: bytes,
    tick: int,
) -> Block:
    header = BlockHeader(
        height=parent.height + 1,
        prev_hash=parent.hash(),
        merkle_root=merkle_root([tx.hash() for tx in txs]),
        state_root=post_state_root,
        timestamp=tick,
        proposer=proposer,
    )
    return Block(header, tuple(txs), ())
