"""Blocks, headers, Merkle commitments and inclusion proofs, and the layout
of a stored chain."""

from __future__ import annotations

from .codec import (BYTES, U64, DecodeError, Reader, ZERO_HASH, hash256, inline, kept, nested,
                    record, row, schema, seq)
from .tx import Transaction


@schema(None, height=U64, prev_hash=BYTES, merkle_root=BYTES, state_root=BYTES, timestamp=U64,
        proposer=BYTES)
class BlockHeader:
    def hash(self) -> bytes:
        return self._hash

    @kept
    def _hash(self) -> bytes:
        # frozen, so the hash is computed once per object
        return hash256(self.encoded)


_TXS = seq(nested(Transaction))
# (validator address, signature over the header hash) pairs
_VOTES = seq(row(BYTES, BYTES))


class _Scanned:
    """A block that `scan_chain` read lacks its transactions until they are
    read; then the section after the header in its frame is decoded strictly
    and kept, each with the hash the scan took. Defined in a base class, so
    that `record` does not take it for a default."""

    @kept
    def transactions(self) -> tuple[Transaction, ...]:
        txs = _TXS[1](Reader(self.encoded[len(self.header.encoded):]))
        for tx, h in zip(txs, self.tx_hashes, strict=True):
            vars(tx)["_hash"] = h  # where `kept` keeps it
        return txs


@schema(None, header=inline(BlockHeader), transactions=_TXS, votes=_VOTES)
class Block(_Scanned):
    @kept
    def tx_hashes(self) -> list[bytes]:
        return [tx.hash() for tx in self.transactions]

    def with_votes(self, votes) -> "Block":
        return self.replace(votes=tuple(votes))


_write_frame, _read_frame = nested(Block)


def encode_chain(blocks) -> bytes:
    """The stored chain: each block's canonical encoding as a byte string
    (4-byte length prefix), one after another."""
    return b"".join([_write_frame(b) for b in blocks])


def decode_chain(data: bytes) -> list[Block]:
    """The blocks of a stored chain; each frame must hold exactly one block.
    The strict reader: the tests' replay oracle reads a store with it."""
    r = Reader(data)
    blocks = []
    while r.pos < len(data):
        blocks.append(_read_frame(r))
    return blocks


def scan_chain(data: bytes) -> list[Block]:
    """The blocks of a stored chain, each frame read only as far as checking
    its hashes and votes needs: the header, keeping the bytes it was read
    from as its `encoded`; each transaction as the byte string that
    `nested(Transaction)` reads, kept only as its hash in `tx_hashes`; and
    the votes. A block keeps its frame as its `encoded`, and decodes its
    transactions from it on their first read (`DecodeError` if they do not
    decode strictly). Each frame must hold exactly that, else this raises
    what `decode_chain` raises, which may fail earlier, inside a transaction."""
    _, read_votes = _VOTES
    r = Reader(data)
    blocks = []
    try:
        while r.pos < len(data):
            frame = r.read_bytes()
            f = Reader(frame)
            header = BlockHeader.decode(f)
            vars(header)["encoded"] = frame[:f.pos]
            tx_hashes = [hash256(f.read_bytes()) for _ in range(f.read_u64())]
            votes = read_votes(f)
            f.expect_end()
            block = object.__new__(Block)  # its transactions left out, for _Scanned to read
            vars(block).update(header=header, votes=votes, encoded=frame, tx_hashes=tx_hashes)
            blocks.append(block)
    except DecodeError:
        decode_chain(data)  # fails too: a store is undecodable for one reason
        raise
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


@record("leaf_index", "siblings")
class MerkleProof:
    """The path from a leaf to the root: (sibling hash, sibling_on_right)
    pairs, from the leaf up."""


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
