"""Chain assembly and verification: genesis, block execution, quorum checks,
and the on-disk store (binary stream plus a JSON mirror for debugging)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .block import Block, BlockHeader, Reader, build_block, decode_chain, encode_chain, merkle_root
from .codec import DecodeError, ZERO_ADDRESS, ZERO_HASH, hash256
from .keys import KeyRegistry, UnknownSenderError, address_from_pubkey, sign, verify
from .state import AccountState, WorldState
from .tx import Transaction, verify_transaction
from .vm import Receipt, apply_transaction


@dataclass(frozen=True)
class ValidatorSet:
    """Fixed ordered validator list; quorum is floor(2n/3)+1 votes."""

    members: tuple[tuple[bytes, bytes], ...]  # (address, pubkey)

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
        for a, pk in self.members:
            if a == address:
                return pk
        return None

    def index_of(self, address: bytes) -> int:
        for i, (a, _) in enumerate(self.members):
            if a == address:
                return i
        raise KeyError(address.hex())


def proposer_for(height: int, round_: int, vs: ValidatorSet) -> bytes:
    return vs.members[(height + round_) % vs.n][0]


@dataclass
class GenesisConfig:
    chain_id: bytes
    validator_pubkeys: list[bytes]
    accounts: list[tuple[bytes, int]]  # (pubkey, balance)
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
            accounts=[(bytes.fromhex(a["pubkey"]), int(a["balance"])) for a in raw["accounts"]],
            empty_block_interval=int(raw.get("empty_block_interval", 50)),
            timeout_ticks=int(raw.get("timeout_ticks", 50)),
        )
        if not cfg.validator_pubkeys:
            raise ValueError("genesis needs at least one validator")
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
            state.accounts.setdefault(addr, AccountState(addr, 0, 0))
        for pk, balance in self.accounts:
            addr = address_from_pubkey(pk)
            prev = state.accounts.get(addr)
            bal = balance + (prev.balance if prev else 0)
            state.accounts[addr] = AccountState(addr, bal, 0)
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


def verify_chain(
    blocks: list[Block], validators: ValidatorSet, registry: KeyRegistry
) -> ChainCheck:
    """Structural audit of a chain: hash links, Merkle roots, transaction
    signatures, and quorum vote sets. Returns the lowest failing height.

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
    for h in range(1, len(blocks)):
        b = blocks[h]
        if b.header.height != h:
            return ChainCheck(False, h, "height-mismatch")
        if b.header.prev_hash != blocks[h - 1].header.hash():
            return ChainCheck(False, h, "link-mismatch")
        if b.header.merkle_root != merkle_root([tx.hash() for tx in b.transactions]):
            return ChainCheck(False, h, "merkle-mismatch")
        for tx in b.transactions:
            try:
                if not verify_transaction(tx, registry):
                    return ChainCheck(False, h, "tx-signature")
            except UnknownSenderError:
                return ChainCheck(False, h, "unknown-sender")
        header_hash = b.header.hash()
        signers = set()
        for addr, sig in b.votes:
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


class CorruptChainError(Exception):
    def __init__(self, check: ChainCheck):
        super().__init__(f"chain invalid at height {check.height}: {check.reason}")
        self.check = check


class Chain:
    """A committed chain plus its executed world state and receipts."""

    def __init__(self, genesis: GenesisConfig):
        self.genesis = genesis
        self.validators = ValidatorSet.from_pubkeys(genesis.validator_pubkeys)
        self.registry = genesis.registry()
        self.state = genesis.genesis_state()
        self.blocks: list[Block] = [genesis.genesis_block()]
        self.receipts: dict[bytes, tuple[Receipt, int]] = {}  # tx_hash -> (receipt, height)
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

    def execute(
        self, txs: list[Transaction], base: WorldState | None = None, height: int | None = None,
        tick: int = 0,
    ) -> tuple[WorldState, list[Receipt]]:
        """Run txs against a copy of the current (or given) state."""
        state = (base if base is not None else self.state).copy()
        h = height if height is not None else self.height + 1
        receipts = []
        root = None  # each transaction's pre-state root is its predecessor's post-state root
        for tx in txs:
            receipts.append(apply_transaction(state, tx, height=h, tick=tick, pre_root=root))
            root = receipts[-1].post_state_root
        state.height = h
        return state, receipts

    def stage(self, txs: list[Transaction], proposer: bytes, tick: int) -> tuple[Block, bytes, list[Receipt]]:
        """Execute txs on top of the head and build the block that commits
        them. Returns the block, its post-state root and the receipts; the
        post-state stays inside the chain until `append` adopts it."""
        state, receipts = self.execute(txs, tick=tick)
        block = build_block(self.head.header, txs, _post_root(state, receipts), proposer, tick)
        self._executed[block.header.hash()] = (state, tuple(receipts))
        return block, block.header.state_root, receipts

    def seal(self, block: Block, keyed_validators: list[tuple[bytes, bytes]]) -> Block:
        """Attach votes from (address, secret) pairs; used by the local CLI chain."""
        hh = block.header.hash()
        votes = tuple((addr, sign(secret, hh)) for addr, secret in keyed_validators)
        return block.with_votes(votes)

    def validate_block(self, block: Block) -> ChainCheck:
        h = self.height + 1
        if block.header.height != h:
            return ChainCheck(False, h, "height-mismatch")
        if block.header.prev_hash != self.head.header.hash():
            return ChainCheck(False, h, "link-mismatch")
        if block.header.merkle_root != merkle_root([tx.hash() for tx in block.transactions]):
            return ChainCheck(False, h, "merkle-mismatch")
        for tx in block.transactions:
            try:
                if not verify_transaction(tx, self.registry):
                    return ChainCheck(False, h, "tx-signature")
            except UnknownSenderError:
                return ChainCheck(False, h, "unknown-sender")
        if self._execute_block(block) is None:
            return ChainCheck(False, h, "state-root-mismatch")
        return CHAIN_OK

    def _execute_block(self, block: Block) -> tuple[WorldState, tuple[Receipt, ...]] | None:
        """Post-state and receipts of a block whose parent is the head,
        executed at most once; None if its state root does not match."""
        key = block.header.hash()
        hit = self._executed.get(key)
        if hit is None:
            state, receipts = self.execute(
                list(block.transactions), height=block.header.height, tick=block.header.timestamp
            )
            if _post_root(state, receipts) != block.header.state_root:
                return None
            hit = self._executed[key] = (state, tuple(receipts))
        return hit

    def check_votes(self, block: Block) -> ChainCheck:
        h = block.header.height
        header_hash = block.header.hash()
        signers = set()
        for addr, sig in block.votes:
            pk = self.validators.pubkey_of(addr)
            if pk is None or addr in signers or not verify(pk, sig, header_hash):
                return ChainCheck(False, h, "vote-invalid")
            signers.add(addr)
        if len(signers) < self.validators.quorum:
            return ChainCheck(False, h, "quorum")
        return CHAIN_OK

    def append(self, block: Block, require_votes: bool = True) -> list[Receipt]:
        check = self.validate_block(block)
        if not check:
            raise CorruptChainError(check)
        if require_votes:
            vcheck = self.check_votes(block)
            if not vcheck:
                raise CorruptChainError(vcheck)
        state, receipts = self._execute_block(block)
        self._executed.clear()
        self.state = state
        self.blocks.append(block)
        for tx, rc in zip(block.transactions, receipts):
            self.receipts[tx.hash()] = (rc, block.header.height)
            self.committed_txs.add(tx.hash())
        return list(receipts)

    @classmethod
    def from_blocks(cls, genesis: GenesisConfig, blocks: list[Block]) -> "Chain":
        """Rebuild state by replaying a stored chain (genesis block included)."""
        chain = cls(genesis)
        if not blocks or blocks[0] != chain.blocks[0]:
            raise CorruptChainError(ChainCheck(False, 0, "genesis-mismatch"))
        check = verify_chain(blocks, chain.validators, chain.registry)
        if not check:
            raise CorruptChainError(check)
        for block in blocks[1:]:
            chain.append(block)
        return chain


def _post_root(state: WorldState, receipts: list[Receipt]) -> bytes:
    return receipts[-1].post_state_root if receipts else state.root()


class ChainStore:
    """Directory layout: genesis.json, chain.bin, chain.json (mirror, never
    hashed), validator_key.json (local sealer), artifacts/ (content-addressed)."""

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
        self.mirror_path.write_text(json.dumps(
            [_block_json(b) for b in chain.blocks], indent=2, sort_keys=True
        ))


def _block_json(block: Block) -> dict:
    return {
        "header": {
            "height": block.header.height,
            "prev_hash": block.header.prev_hash.hex(),
            "merkle_root": block.header.merkle_root.hex(),
            "state_root": block.header.state_root.hex(),
            "timestamp": block.header.timestamp,
            "proposer": block.header.proposer.hex(),
        },
        "hash": block.header.hash().hex(),
        "transactions": [
            {
                "hash": tx.hash().hex(),
                "sender": tx.sender.hex(),
                "nonce": tx.nonce,
                "value": tx.value,
                "payload": type(tx.payload).__name__,
            }
            for tx in block.transactions
        ],
        "votes": [{"validator": a.hex(), "signature": s.hex()} for a, s in block.votes],
    }
