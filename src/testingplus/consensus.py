"""Proof-of-authority node logic: rotating proposer, one vote per validator
per height, commit on floor(2n/3)+1 votes.

Node behaviour is written as pure-ish (state, event) -> outputs transitions
driven by the simulator. Voting at most once per height is what makes two
conflicting quorums at the same height impossible under crash faults;
liveness across drops and healed partitions comes from periodic re-gossip of
the proposal and vote a node is holding, plus Status-based chain sync.
"""

from __future__ import annotations

from itertools import islice

from .block import Block
from .chain import Chain, CorruptChainError, GenesisConfig, proposer_for
from .codec import record
from .keys import sign, verify
from .tx import Transaction


@record("block", "round")  # block: its votes empty
class Propose:
    kind = "propose"


@record("header_hash", "height", "signer", "signature")
class Vote:
    kind = "vote"


@record("block")  # block: its votes filled
class Commit:
    kind = "commit"


@record("tx")
class TxGossip:
    kind = "txgossip"


@record("chain_len")
class Status:
    kind = "status"


ConsensusMessage = Propose | Vote | Commit | TxGossip | Status

# (destination node index or None for broadcast, message)
Outbound = tuple[int | None, ConsensusMessage]


# most transactions a proposal takes from the mempool, and most blocks (or
# mempool transactions) sent in one sync reply (or one re-gossip)
MAX_BLOCK_TXS = 100
SYNC_BATCH = 20


class Node:
    """A validator. Its timing (`empty_block_interval`, `timeout_ticks`) comes
    from the genesis; only the gossip interval is the node's own.

    What the genesis fixes (validator set, quorum, timing) is read from it
    once. The next height is `len(self.chain.blocks)`, and the proposer of
    the current (height, round) is kept in `proposer`, set whenever either
    moves, so a tick with nothing to do costs three comparisons. The mempool
    holds each transaction as the `TxGossip` that carries it, built once."""

    def __init__(self, index: int, secret: bytes, genesis: GenesisConfig, gossip_interval: int):
        self.index = index
        self.secret = secret
        self.gossip_interval = gossip_interval
        self.chain = Chain(genesis)
        self.validators = genesis.validators
        self.quorum = self.validators.quorum
        self.timeout_ticks = genesis.timeout_ticks
        self.empty_block_interval = genesis.empty_block_interval
        self.address = self.validators.members[index][0]
        self.mempool: dict[bytes, TxGossip] = {}  # tx hash -> its gossip message
        self.last_gossip = -(10**9)
        self.future_commits: dict[int, Block] = {}
        self.invalid_dropped = 0
        self._after_append(0)  # the per-height fields, for height 1

    # -- helpers -------------------------------------------------------------

    @property
    def next_height(self) -> int:
        return len(self.chain.blocks)

    def submit(self, tx: Transaction) -> list[Outbound]:
        """Inject a client transaction at this node and gossip it."""
        gossip = TxGossip(tx)
        return [(None, gossip)] if self._admit(gossip) else []

    def _admit(self, gossip: TxGossip) -> bool:
        """Hold a gossiped transaction unless it is committed or held."""
        h = gossip.tx.hash()
        if h in self.chain.committed_txs or h in self.mempool:
            return False
        self.mempool[h] = gossip
        return True

    def _enter_round(self, round_: int, tick: int) -> None:
        self.round = round_
        self.round_entry = tick
        self.proposer = proposer_for(self.next_height, round_, self.validators)

    def _after_append(self, tick: int) -> None:
        self._enter_round(0, tick)
        self.last_commit_tick = tick
        self.proposed_round: int | None = None  # the round already proposed at this height
        self.voted: tuple[Propose, Vote] | None = None  # this height's one vote and its proposal
        self.proposals: dict[bytes, Block] = {}
        self.tallies: dict[bytes, dict[bytes, bytes]] = {}
        for h in self.chain.head.tx_hashes:
            self.mempool.pop(h, None)

    def _try_commit(self, tick: int) -> list[Outbound]:
        for header_hash, tally in self.tallies.items():
            if len(tally) >= self.quorum and header_hash in self.proposals:
                block = self.proposals[header_hash]
                votes = sorted(tally.items(), key=lambda kv: self.validators.index_of(kv[0]))
                sealed = block.with_votes(tuple(votes))
                return [(None, Commit(sealed))] if self._commit(sealed, tick) else []
        return []

    def _commit(self, block: Block, tick: int) -> bool:
        """Append a committed block, then each held commit that follows the
        new head. A block the chain refuses is counted as invalid and stops
        the drain. Returns whether `block` itself was appended."""
        appended = False
        while block is not None:
            try:
                self.chain.append(block)
            except CorruptChainError:
                self.invalid_dropped += 1
                break
            appended = True
            self._after_append(tick)
            block = self.future_commits.pop(self.next_height, None)
        return appended

    # -- tick ----------------------------------------------------------------

    def on_tick(self, tick: int) -> list[Outbound]:
        out: list[Outbound] = []
        if tick - self.round_entry >= self.timeout_ticks:
            self._enter_round(self.round + 1, tick)

        if self.proposer == self.address and self.proposed_round != self.round:
            if self.voted is not None:
                # converge on the proposal already voted instead of forking a new one
                self.proposed_round = self.round
                out.extend((None, m) for m in self.voted)
            elif self.mempool or tick - self.last_commit_tick >= self.empty_block_interval:
                txs = [g.tx for g in islice(self.mempool.values(), MAX_BLOCK_TXS)]
                block, _, _ = self.chain.stage(txs, self.address, tick)
                self.proposed_round = self.round
                prop = Propose(block, self.round)
                out.append((None, prop))
                accepted = self._accept_proposal(prop, self.index, tick)
                out.extend(m for m in accepted if m[1] is not prop)

        if tick - self.last_gossip >= self.gossip_interval:
            self.last_gossip = tick
            out.append((None, Status(len(self.chain.blocks))))
            if self.voted is not None:
                out.extend((None, m) for m in self.voted)
            out.extend((None, g) for g in islice(self.mempool.values(), SYNC_BATCH))
        return out

    # -- messages ------------------------------------------------------------

    def on_message(self, msg: ConsensusMessage, src: int, tick: int) -> list[Outbound]:
        handler = _HANDLERS.get(type(msg))
        if handler is None:
            self.invalid_dropped += 1
            return []
        return handler(self, msg, src, tick)

    def _accept_tx(self, gossip: TxGossip, src: int, tick: int) -> list[Outbound]:
        self._admit(gossip)
        return []

    def _accept_proposal(self, prop: Propose, src: int, tick: int) -> list[Outbound]:
        block = prop.block
        h = block.header.height
        if h != len(self.chain.blocks):
            return []
        if block.header.proposer != proposer_for(h, prop.round, self.validators):
            self.invalid_dropped += 1
            return []
        header_hash = block.header.hash()
        if header_hash not in self.proposals:
            try:
                self.chain.validate_block(block)
            except CorruptChainError:
                self.invalid_dropped += 1
                return []
            self.proposals[header_hash] = block
        if self.voted is not None:
            return self._try_commit(tick)
        sig = sign(self.secret, header_hash)
        vote = Vote(header_hash, h, self.address, sig)
        self.voted = (prop, vote)
        self.tallies.setdefault(header_hash, {})[self.address] = sig
        out: list[Outbound] = [(None, vote), (None, prop)]
        out.extend(self._try_commit(tick))
        return out

    def _accept_vote(self, vote: Vote, src: int, tick: int) -> list[Outbound]:
        if vote.height != len(self.chain.blocks):
            return []
        pk = self.validators.pubkey_of(vote.signer)
        if pk is None or not verify(pk, vote.signature, vote.header_hash):
            self.invalid_dropped += 1
            return []
        self.tallies.setdefault(vote.header_hash, {})[vote.signer] = vote.signature
        return self._try_commit(tick)

    def _accept_commit(self, commit: Commit, src: int, tick: int) -> list[Outbound]:
        block = commit.block
        h = block.header.height
        have = len(self.chain.blocks)
        if h < have:
            return []
        if h > have:
            self.future_commits[h] = block
        else:
            self._commit(block, tick)
        return []

    def _accept_status(self, status: Status, src: int, tick: int) -> list[Outbound]:
        have = len(self.chain.blocks)
        if status.chain_len >= have:
            return []
        hi = min(have, status.chain_len + SYNC_BATCH)
        return [(src, Commit(block)) for block in self.chain.blocks[status.chain_len : hi]]


# message type -> handler; a message of any other type is dropped as invalid
_HANDLERS = {
    TxGossip: Node._accept_tx,
    Propose: Node._accept_proposal,
    Vote: Node._accept_vote,
    Commit: Node._accept_commit,
    Status: Node._accept_status,
}
