"""Proof-of-authority node logic: rotating proposer, one vote per validator
per height, commit on floor(2n/3)+1 votes.

Node behaviour is written as (state, event) -> outputs transitions driven
by the simulator, a tick being a `timeout` if due and then an `act`; a
node's state at its next height is one frozen `Height`, and `copy.copy` a snapshot.
Voting at most once per height is what makes two conflicting quorums at the
same height impossible under crash faults; liveness across drops and healed
partitions comes from periodic re-gossip of the proposal and vote a node is
holding, plus Status-based chain sync.
"""

from __future__ import annotations

from itertools import islice

from .block import Block
from .chain import Chain, CorruptChainError, GenesisConfig, ValidatorSet
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


def proposer_for(height: int, round_: int, vs: ValidatorSet) -> bytes:
    return vs.members[(height + round_) % vs.n][0]


@record("start", "round", "entry", "proposer", "proposed", "voted", "proposals", "tallies")
class Height:
    """What a node holds at its next height, which began at tick `start`:
    the round, entered at tick `entry`, and its proposer; whether this node
    has proposed in it; the node's one vote; and the proposals and votes taken."""

    proposed = False
    voted: tuple[Propose, Vote] | None = None
    proposals: tuple[tuple[bytes, Block], ...] = ()
    tallies: frozenset[tuple[bytes, bytes, bytes]] = frozenset()


class Node:
    """A validator. What the genesis fixes (validator set, quorum) is read
    from it once; its three timers, in ticks, come from its caller. All it
    holds at its next height, `len(self.chain.blocks)`, is the `Height` in
    `at`, replaced whole; a commit is tried only after `at` gains a proposal
    or a vote. The mempool holds each transaction as the `TxGossip` that
    carries it, built once; `committed_txs` holds the hash of every
    transaction in the chain, added as its block is appended, so that none
    is admitted again. `copy.copy(node)`, a snapshot, shares `at` and has
    its own chain (`Chain.copy`), mempool, `committed_txs` and held commits:
    its steps leave this node alone."""

    def __init__(self, index: int, secret: bytes, genesis: GenesisConfig, gossip_interval: int,
                 timeout_ticks: int, empty_block_interval: int):
        self.index = index
        self.secret = secret
        self.gossip_interval = gossip_interval
        self.timeout_ticks = timeout_ticks
        self.empty_block_interval = empty_block_interval
        self.chain = Chain(genesis)
        self.validators = genesis.validators
        self.quorum = self.validators.quorum
        self.address = self.validators.members[index][0]
        self.mempool: dict[bytes, TxGossip] = {}  # tx hash -> its gossip message
        self.committed_txs: set[bytes] = set()
        self.last_gossip = -(10**9)
        self.future_commits: dict[int, Block] = {}
        self.invalid_dropped = 0
        self._after_append(0)  # `at`, for height 1

    def __copy__(self) -> "Node":
        twin = object.__new__(type(self))
        vars(twin).update(vars(self), chain=self.chain.copy(), mempool=dict(self.mempool),
                          committed_txs=set(self.committed_txs),
                          future_commits=dict(self.future_commits))
        return twin

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
        if h in self.committed_txs or h in self.mempool:
            return False
        self.mempool[h] = gossip
        return True

    def _after_append(self, tick: int) -> None:
        proposer = proposer_for(self.next_height, 0, self.validators)
        self.at = Height(start=tick, round=0, entry=tick, proposer=proposer)
        for h in self.chain.head.tx_hashes:
            self.mempool.pop(h, None)
            self.committed_txs.add(h)

    def _try_commit(self, tick: int) -> list[Outbound]:
        for header_hash, block in self.at.proposals:
            signed = {signer: sig for h, signer, sig in self.at.tallies if h == header_hash}
            if len(signed) >= self.quorum:
                # in validator order, whatever order the tallies hold them in
                sealed = block.with_votes((a, signed[a]) for a, _ in self.validators.members
                                          if a in signed)
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
        """A tick: `timeout` if the round has run `timeout_ticks`, then `act`."""
        if tick - self.at.entry >= self.timeout_ticks:
            self.timeout(tick)
        return self.act(tick)

    def timeout(self, tick: int) -> None:
        """Enter the next round at `tick`, with its proposer; sends nothing."""
        at = self.at
        proposer = proposer_for(self.next_height, at.round + 1, self.validators)
        self.at = at.replace(round=at.round + 1, entry=tick, proposer=proposer, proposed=False)

    def act(self, tick: int) -> list[Outbound]:
        """As the round's proposer, once: re-send the held proposal and vote,
        else propose if there is work or an empty block is due. Then re-gossip if due."""
        out: list[Outbound] = []
        at = self.at
        if at.proposer == self.address and not at.proposed:
            if at.voted is not None:
                # converge on the proposal already voted instead of forking a new one
                self.at = at.replace(proposed=True)
                out.extend((None, m) for m in at.voted)
            elif self.mempool or tick - at.start >= self.empty_block_interval:
                txs = [g.tx for g in islice(self.mempool.values(), MAX_BLOCK_TXS)]
                block, _, _ = self.chain.stage(txs, self.address, tick)
                self.at = at.replace(proposed=True)
                prop = Propose(block, at.round)
                out.append((None, prop))
                accepted = self._accept_proposal(prop, self.index, tick)
                out.extend(m for m in accepted if m[1] is not prop)

        if tick - self.last_gossip >= self.gossip_interval:
            self.last_gossip = tick
            out.append((None, Status(len(self.chain.blocks))))
            out.extend((None, m) for m in self.at.voted or ())
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
        at = self.at
        if any(held == header_hash for held, _ in at.proposals):
            return []  # held: this node voted when it took it, and no count changed
        try:
            self.chain.validate_block(block)
        except CorruptChainError:
            self.invalid_dropped += 1
            return []
        proposals = (*at.proposals, (header_hash, block))
        if at.voted is not None:
            self.at = at.replace(proposals=proposals)
            return self._try_commit(tick)
        vote = Vote(header_hash, h, self.address, sign(self.secret, header_hash))
        self.at = at.replace(voted=(prop, vote), proposals=proposals,
                             tallies=at.tallies | {(header_hash, self.address, vote.signature)})
        return [(None, vote), (None, prop), *self._try_commit(tick)]

    def _accept_vote(self, vote: Vote, src: int, tick: int) -> list[Outbound]:
        # a signer has one valid signature of a hash: one entry per (hash, signer)
        entry = (vote.header_hash, vote.signer, vote.signature)
        if vote.height != len(self.chain.blocks) or entry in self.at.tallies:
            return []
        pk = self.validators.pubkey_of(vote.signer)
        if pk is None or not verify(pk, vote.signature, vote.header_hash):
            self.invalid_dropped += 1
            return []
        self.at = self.at.replace(tallies=self.at.tallies | {entry})
        return self._try_commit(tick)

    def _accept_commit(self, commit: Commit, src: int, tick: int) -> list[Outbound]:
        h = commit.block.header.height
        if h > len(self.chain.blocks):
            self.future_commits[h] = commit.block
        elif h == len(self.chain.blocks):
            self._commit(commit.block, tick)
        return []

    def _accept_status(self, status: Status, src: int, tick: int) -> list[Outbound]:
        start = status.chain_len  # empty for a peer at least as long as this node
        return [(src, Commit(block)) for block in self.chain.blocks[start : start + SYNC_BATCH]]


# message type -> handler; a message of any other type is dropped as invalid
_HANDLERS = {
    TxGossip: Node._accept_tx,
    Propose: Node._accept_proposal,
    Vote: Node._accept_vote,
    Commit: Node._accept_commit,
    Status: Node._accept_status,
}
