"""Chain assembly and verification: genesis, block execution, quorum checks,
and the on-disk store."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .block import Block, BlockHeader, build_block, decode_chain, encode_chain, merkle_root
from .codec import DecodeError, ZERO_ADDRESS, ZERO_HASH
from .keys import KeyRegistry, UnknownSenderError, address_from_pubkey, sign, verify
from .state import AccountState, WorldState
from .tx import Transaction, parse_u64, verify_transaction
from .vm import Receipt, apply_transaction


@dataclass(frozen=True)
class ValidatorSet:
    """Fixed ordered validator list; quorum is floor(2n/3)+1 votes."""

    members: tuple[tuple[bytes, bytes], ...]  # (address, pubkey)

    def __post_init__(self):
        # address -> pubkey and address -> index, built once
        object.__setattr__(self, "_pubkeys", dict(self.members))
        object.__setattr__(self, "_indexes", {a: i for i, (a, _) in enumerate(self.members)})

    @classmethod
    def from_pubkeys(cls, pubkeys) -> "ValidatorSet":
        members = tuple((address_from_pubkey(pk), pk) for pk in pubkeys)
        addrs = [a for a, _ in members]
        if len(set(addrs)) != len(addrs) or not members:
            raise ValueError("validator addresses must be distinct and non-empty")
        return cls(members)

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def quorum(self) -> int:
        return (2 * self.n) // 3 + 1

    def pubkey_of(self, address: bytes) -> bytes | None:
        return self._pubkeys.get(address)

    def index_of(self, address: bytes) -> int:
        index = self._indexes.get(address)
        if index is None:
            raise KeyError(address.hex())
        return index


def proposer_for(height: int, round_: int, vs: ValidatorSet) -> bytes:
    return vs.members[(height + round_) % vs.n][0]


@dataclass
class GenesisConfig:
    chain_id: bytes
    validator_pubkeys: list[bytes]
    accounts: list[tuple[bytes, int]]  # (pubkey, balance)
    # consensus timing in ticks, read by every consensus.Node
    empty_block_interval: int = 50
    timeout_ticks: int = 50

    def to_json(self) -> str:
        return json.dumps(
            {
                "chain_id": self.chain_id.hex(),
                "validators": [pk.hex() for pk in self.validator_pubkeys],
                "accounts": [
                    {"pubkey": pk.hex(), "balance": bal} for pk, bal in self.accounts
                ],
                "empty_block_interval": self.empty_block_interval,
                "timeout_ticks": self.timeout_ticks,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "GenesisConfig":
        raw = json.loads(text)
        cfg = cls(
            chain_id=bytes.fromhex(raw["chain_id"]),
            validator_pubkeys=[bytes.fromhex(v) for v in raw["validators"]],
            accounts=[(bytes.fromhex(a["pubkey"]), parse_u64(a["balance"])) for a in raw["accounts"]],
            empty_block_interval=parse_u64(raw.get("empty_block_interval", 50)),
            timeout_ticks=parse_u64(raw.get("timeout_ticks", 50)),
        )
        ValidatorSet.from_pubkeys(cfg.validator_pubkeys)  # raises unless distinct and non-empty
        total = sum(b for _, b in cfg.accounts)
        if total > 2**64 - 1:
            raise ValueError("total issuance exceeds u64")
        return cfg

    def registry(self) -> KeyRegistry:
        reg = KeyRegistry()
        for pk in self.validator_pubkeys:
            reg.register(pk)
        for pk, _ in self.accounts:
            reg.register(pk)
        return reg

    def genesis_state(self) -> WorldState:
        state = WorldState()
        for pk in self.validator_pubkeys:
            addr = address_from_pubkey(pk)
            if state.account(addr) is None:
                state.put(AccountState(addr, 0, 0))
        for pk, balance in self.accounts:
            addr = address_from_pubkey(pk)
            prev = state.account(addr)
            state.put(AccountState(addr, balance + (prev.balance if prev else 0), 0))
        return state

    def genesis_block(self) -> Block:
        header = BlockHeader(
            height=0,
            prev_hash=ZERO_HASH,
            merkle_root=ZERO_HASH,
            state_root=self.genesis_state().root(),
            timestamp=0,
            proposer=ZERO_ADDRESS,
        )
        return Block(header, (), ())


@dataclass(frozen=True)
class ChainCheck:
    ok: bool
    height: int = 0
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


CHAIN_OK = ChainCheck(True)


def check_block(
    parent: BlockHeader, block: Block, registry: KeyRegistry, validators: ValidatorSet | None = None
) -> ChainCheck:
    """Everything about a block that does not need its execution: height
    and link to `parent`, Merkle root, transaction signatures and, when
    `validators` is given, a quorum of distinct validator votes."""
    h = parent.height + 1
    header = block.header
    if header.height != h:
        return ChainCheck(False, h, "height-mismatch")
    if header.prev_hash != parent.hash():
        return ChainCheck(False, h, "link-mismatch")
    if header.merkle_root != merkle_root([tx.hash() for tx in block.transactions]):
        return ChainCheck(False, h, "merkle-mismatch")
    for tx in block.transactions:
        try:
            if not verify_transaction(tx, registry):
                return ChainCheck(False, h, "tx-signature")
        except UnknownSenderError:
            return ChainCheck(False, h, "unknown-sender")
    return CHAIN_OK if validators is None else _check_votes(block, validators)


def _check_votes(block: Block, validators: ValidatorSet) -> ChainCheck:
    h = block.header.height
    header_hash = block.header.hash()
    signers = set()
    for addr, sig in block.votes:
        pk = validators.pubkey_of(addr)
        if pk is None:
            return ChainCheck(False, h, "vote-not-validator")
        if addr in signers:
            return ChainCheck(False, h, "vote-duplicate")
        if not verify(pk, sig, header_hash):
            return ChainCheck(False, h, "vote-signature")
        signers.add(addr)
    if len(signers) < validators.quorum:
        return ChainCheck(False, h, "quorum")
    return CHAIN_OK


def verify_chain(
    blocks: list[Block], validators: ValidatorSet, registry: KeyRegistry
) -> ChainCheck:
    """Structural audit of a chain: `check_block` at every height after
    genesis. Returns the lowest failing height.

    Vote signatures cover the header hash, so a mutation of any header field
    (including the state root) surfaces at its own height.
    """
    if not blocks:
        return ChainCheck(False, 0, "empty chain")
    g = blocks[0]
    if g.header.height != 0 or g.header.prev_hash != ZERO_HASH:
        return ChainCheck(False, 0, "bad genesis header")
    if g.header.merkle_root != merkle_root([tx.hash() for tx in g.transactions]):
        return ChainCheck(False, 0, "merkle-mismatch")
    for parent, block in zip(blocks, blocks[1:]):
        check = check_block(parent.header, block, registry, validators)
        if not check:
            return check
    return CHAIN_OK


class CorruptChainError(Exception):
    def __init__(self, check: ChainCheck):
        super().__init__(f"chain invalid at height {check.height}: {check.reason}")
        self.check = check


class Chain:
    """A committed chain plus its executed world state."""

    def __init__(self, genesis: GenesisConfig):
        self.genesis = genesis
        self.validators = ValidatorSet.from_pubkeys(genesis.validator_pubkeys)
        self.registry = genesis.registry()
        self.state = genesis.genesis_state()
        self.blocks: list[Block] = [genesis.genesis_block()]
        self.committed_txs: set[bytes] = set()
        # header hash -> (post-state, receipts) of a block executed on top of
        # the head, so that stage, validate_block and append run it once;
        # emptied whenever the head moves
        self._executed: dict[bytes, tuple[WorldState, tuple[Receipt, ...]]] = {}

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return self.head.header.height

    def execute(self, txs: list[Transaction], tick: int = 0
                ) -> tuple[WorldState, bytes, list[Receipt]]:
        """Run txs at the next height against a copy of the current state.
        Returns the post-state, its root and the receipts. The state is
        hashed once, after the last transaction; an empty block keeps the
        head's root and hashes nothing."""
        state = self.state.copy()
        h = self.height + 1
        receipts = [apply_transaction(state, tx, height=h, tick=tick) for tx in txs]
        state.height = h
        root = state.root() if txs else self.head.header.state_root
        return state, root, receipts

    def stage(self, txs: list[Transaction], proposer: bytes, tick: int) -> tuple[Block, bytes, list[Receipt]]:
        """Execute txs on top of the head and build the block that commits
        them. Returns the block, its post-state root and the receipts; the
        post-state stays inside the chain until `append` adopts it."""
        state, root, receipts = self.execute(txs, tick=tick)
        block = build_block(self.head.header, txs, root, proposer, tick)
        self._executed[block.header.hash()] = (state, tuple(receipts))
        return block, block.header.state_root, receipts

    def seal(self, block: Block, keyed_validators: list[tuple[bytes, bytes]]) -> Block:
        """Attach votes from (address, secret) pairs; used by the local CLI chain."""
        hh = block.header.hash()
        votes = tuple((addr, sign(secret, hh)) for addr, secret in keyed_validators)
        return block.with_votes(votes)

    def validate_block(self, block: Block) -> ChainCheck:
        """`check_block` against the head, without votes, then execution
        (reused if the block was staged or validated before)."""
        check = check_block(self.head.header, block, self.registry)
        if check and self._execute_block(block) is None:
            return ChainCheck(False, block.header.height, "state-root-mismatch")
        return check

    def _execute_block(self, block: Block) -> tuple[WorldState, tuple[Receipt, ...]] | None:
        """Post-state and receipts of a block whose parent is the head,
        executed at most once; None if its state root does not match."""
        key = block.header.hash()
        hit = self._executed.get(key)
        if hit is None:
            state, root, receipts = self.execute(list(block.transactions), tick=block.header.timestamp)
            if root != block.header.state_root:
                return None
            hit = self._executed[key] = (state, tuple(receipts))
        return hit

    def check_votes(self, block: Block) -> ChainCheck:
        return _check_votes(block, self.validators)

    def append(self, block: Block) -> list[Receipt]:
        """The one way onto the chain: `check_block` against the head, votes
        included, then execution (reused if the block was staged or
        validated before); the block becomes the head."""
        check = check_block(self.head.header, block, self.registry, self.validators)
        if not check:
            raise CorruptChainError(check)
        executed = self._execute_block(block)
        if executed is None:
            raise CorruptChainError(ChainCheck(False, block.header.height, "state-root-mismatch"))
        self.state, receipts = executed
        self._executed.clear()
        self.blocks.append(block)
        self.committed_txs.update(tx.hash() for tx in block.transactions)
        return list(receipts)

    @classmethod
    def from_blocks(cls, genesis: GenesisConfig, blocks: list[Block]) -> "Chain":
        """Rebuild a stored chain (genesis block included) by appending each
        block after genesis in turn, so a corrupt store fails at its lowest
        bad height, whether a check or the execution fails there."""
        chain = cls(genesis)
        if not blocks or blocks[0] != chain.blocks[0]:
            raise CorruptChainError(ChainCheck(False, 0, "genesis-mismatch"))
        for block in blocks[1:]:
            chain.append(block)
        return chain


class ChainStore:
    """Directory layout: genesis.json, chain.bin, validator_key.json (local
    sealer), artifacts/ (content-addressed)."""

    def __init__(self, root: Path):
        self.root = Path(root)

    @property
    def genesis_path(self) -> Path:
        return self.root / "genesis.json"

    @property
    def chain_path(self) -> Path:
        return self.root / "chain.bin"

    @property
    def mirror_path(self) -> Path:
        # the store no longer writes or reads chain.json; bench/tracing.py still sizes one if present
        return self.root / "chain.json"

    @property
    def artifacts_dir(self) -> Path:
        return self.root / "artifacts"

    def exists(self) -> bool:
        return self.genesis_path.exists() and self.chain_path.exists()

    def init(self, genesis: GenesisConfig) -> Chain:
        self.root.mkdir(parents=True, exist_ok=True)
        self.artifacts_dir.mkdir(exist_ok=True)
        self.genesis_path.write_text(genesis.to_json())
        chain = Chain(genesis)
        self.save(chain)
        return chain

    def load(self) -> Chain:
        genesis = GenesisConfig.from_json(self.genesis_path.read_text())
        try:
            blocks = decode_chain(self.chain_path.read_bytes())
        except DecodeError as exc:
            raise CorruptChainError(ChainCheck(False, 0, f"undecodable: {exc}")) from exc
        return Chain.from_blocks(genesis, blocks)

    def save(self, chain: Chain) -> None:
        self.chain_path.write_bytes(encode_chain(chain.blocks))
