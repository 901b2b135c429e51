"""Proof-of-authority node logic: rotating proposer, one vote per validator
per height, commit on floor(2n/3)+1 votes.

Node behaviour is written as pure-ish (state, event) -> outputs transitions
driven by the simulator. Voting at most once per height is what makes two
conflicting quorums at the same height impossible under crash faults;
liveness across drops and healed partitions comes from periodic re-gossip of
the proposal and vote a node is holding, plus Status-based chain sync.
"""

from __future__ import annotations

from dataclasses import dataclass

from .block import Block
from .chain import Chain, CorruptChainError, GenesisConfig, proposer_for
from .keys import sign, verify
from .tx import Transaction


@dataclass(frozen=True)
class Propose:
    kind = "propose"
    block: Block  # votes empty
    round: int


@dataclass(frozen=True)
class Vote:
    kind = "vote"
    header_hash: bytes
    height: int
    signer: bytes
    signature: bytes


@dataclass(frozen=True)
class Commit:
    kind = "commit"
    block: Block  # votes filled


@dataclass(frozen=True)
class TxGossip:
    kind = "txgossip"
    tx: Transaction


@dataclass(frozen=True)
class Status:
    kind = "status"
    chain_len: int


ConsensusMessage = Propose | Vote | Commit | TxGossip | Status

# (destination node index or None for broadcast, message)
Outbound = tuple[int | None, ConsensusMessage]


@dataclass
class NodeConfig:
    empty_block_interval: int = 50
    timeout_ticks: int = 50
    gossip_interval: int = 10
    sync_batch: int = 20
    max_block_txs: int = 100


class Node:
    def __init__(self, index: int, secret: bytes, genesis: GenesisConfig, config: NodeConfig):
        self.index = index
        self.secret = secret
        self.config = config
        self.chain = Chain(genesis)
        self.address = self.chain.validators.members[index][0]
        self.mempool: dict[bytes, Transaction] = {}
        self.round = 0
        self.round_entry = 0
        self.last_commit_tick = 0
        self.last_gossip = -(10**9)
        self.proposed_key: tuple[int, int] | None = None  # (height, round) already proposed
        self.my_vote: Vote | None = None
        self.voted_proposal: Propose | None = None
        self.proposals: dict[bytes, Block] = {}
        self.tallies: dict[bytes, dict[bytes, bytes]] = {}
        self.future_commits: dict[int, Block] = {}
        self.invalid_dropped = 0

    # -- helpers -------------------------------------------------------------

    @property
    def next_height(self) -> int:
        return self.chain.height + 1

    def submit(self, tx: Transaction) -> list[Outbound]:
        """Inject a client transaction at this node and gossip it."""
        h = tx.hash()
        if h in self.chain.committed_txs or h in self.mempool:
            return []
        self.mempool[h] = tx
        return [(None, TxGossip(tx))]

    def _after_append(self, tick: int) -> None:
        self.round = 0
        self.round_entry = tick
        self.last_commit_tick = tick
        self.proposed_key = None
        self.my_vote = None
        self.voted_proposal = None
        self.proposals = {}
        self.tallies = {}
        for tx in self.chain.head.transactions:
            self.mempool.pop(tx.hash(), None)

    def _try_commit(self, tick: int) -> list[Outbound]:
        for header_hash, tally in self.tallies.items():
            if len(tally) >= self.chain.validators.quorum and header_hash in self.proposals:
                block = self.proposals[header_hash]
                votes = sorted(
                    tally.items(), key=lambda kv: self.chain.validators.index_of(kv[0])
                )
                sealed = block.with_votes(tuple(votes))
                self.chain.append(sealed)
                self._after_append(tick)
                self._drain_future(tick)
                return [(None, Commit(sealed))]
        return []

    def _drain_future(self, tick: int) -> None:
        while self.next_height in self.future_commits:
            if not self._append_commit(self.future_commits.pop(self.next_height), tick):
                break

    def _append_commit(self, block: Block, tick: int) -> bool:
        """Append a committed block from a peer; an invalid one is dropped."""
        try:
            self.chain.append(block)
        except CorruptChainError:
            self.invalid_dropped += 1
            return False
        self._after_append(tick)
        return True

    # -- tick ----------------------------------------------------------------

    def on_tick(self, tick: int) -> list[Outbound]:
        out: list[Outbound] = []
        cfg = self.config
        vs = self.chain.validators

        if tick - self.round_entry >= cfg.timeout_ticks:
            self.round += 1
            self.round_entry = tick

        height = self.next_height
        if proposer_for(height, self.round, vs) == self.address and self.proposed_key != (
            height,
            self.round,
        ):
            if self.voted_proposal is not None:
                # converge on the proposal already voted instead of forking a new one
                self.proposed_key = (height, self.round)
                out.append((None, self.voted_proposal))
                out.append((None, self.my_vote))
            elif self.mempool or tick - self.last_commit_tick >= cfg.empty_block_interval:
                txs = list(self.mempool.values())[: cfg.max_block_txs]
                block, _, _ = self.chain.stage(txs, self.address, tick)
                self.proposed_key = (height, self.round)
                prop = Propose(block, self.round)
                out.append((None, prop))
                out.extend(m for m in self._accept_proposal(prop, tick) if m[1] is not prop)

        if tick - self.last_gossip >= cfg.gossip_interval:
            self.last_gossip = tick
            out.append((None, Status(len(self.chain.blocks))))
            if self.my_vote is not None and self.voted_proposal is not None:
                out.append((None, self.voted_proposal))
                out.append((None, self.my_vote))
            for tx in list(self.mempool.values())[: cfg.sync_batch]:
                out.append((None, TxGossip(tx)))
        return out

    # -- messages ------------------------------------------------------------

    def on_message(self, msg: ConsensusMessage, src: int, tick: int) -> list[Outbound]:
        if isinstance(msg, TxGossip):
            h = msg.tx.hash()
            if h not in self.chain.committed_txs and h not in self.mempool:
                self.mempool[h] = msg.tx
            return []
        if isinstance(msg, Propose):
            return self._accept_proposal(msg, tick)
        if isinstance(msg, Vote):
            return self._accept_vote(msg, tick)
        if isinstance(msg, Commit):
            return self._accept_commit(msg, tick)
        if isinstance(msg, Status):
            return self._accept_status(msg, src)
        self.invalid_dropped += 1
        return []

    def _accept_proposal(self, prop: Propose, tick: int) -> list[Outbound]:
        block = prop.block
        h = block.header.height
        if h != self.next_height:
            return []
        vs = self.chain.validators
        if block.header.proposer != proposer_for(h, prop.round, vs):
            self.invalid_dropped += 1
            return []
        header_hash = block.header.hash()
        if header_hash not in self.proposals:
            if not self.chain.validate_block(block):
                self.invalid_dropped += 1
                return []
            self.proposals[header_hash] = block
        if self.my_vote is not None:
            return self._try_commit(tick)
        sig = sign(self.secret, header_hash)
        vote = Vote(header_hash, h, self.address, sig)
        self.my_vote = vote
        self.voted_proposal = prop
        self.tallies.setdefault(header_hash, {})[self.address] = sig
        out: list[Outbound] = [(None, vote), (None, prop)]
        out.extend(self._try_commit(tick))
        return out

    def _accept_vote(self, vote: Vote, tick: int) -> list[Outbound]:
        if vote.height != self.next_height:
            return []
        pk = self.chain.validators.pubkey_of(vote.signer)
        if pk is None or not verify(pk, vote.signature, vote.header_hash):
            self.invalid_dropped += 1
            return []
        self.tallies.setdefault(vote.header_hash, {})[vote.signer] = vote.signature
        return self._try_commit(tick)

    def _accept_commit(self, commit: Commit, tick: int) -> list[Outbound]:
        block = commit.block
        h = block.header.height
        if h <= self.chain.height:
            return []
        if h > self.next_height:
            self.future_commits[h] = block
            return []
        if self._append_commit(block, tick):
            self._drain_future(tick)
        return []

    def _accept_status(self, status: Status, src: int) -> list[Outbound]:
        have = len(self.chain.blocks)
        if status.chain_len >= have:
            return []
        out: list[Outbound] = []
        hi = min(have, status.chain_len + self.config.sync_batch)
        for block in self.chain.blocks[status.chain_len : hi]:
            out.append((src, Commit(block)))
        return out
