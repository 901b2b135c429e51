"""Chain assembly and verification: genesis, block execution, quorum checks,
and the on-disk store."""

from __future__ import annotations

import fcntl
import json
import os
import stat
from contextlib import contextmanager, suppress
from pathlib import Path

from .block import Block, BlockHeader, build_block, encode_chain, merkle_root, scan_chain
from .codec import (BYTES, HASH_HEX, U64, U64_MAX, DecodeError, InputError, Reader,
                    ZERO_ADDRESS, ZERO_HASH, hash256, kept, list_of, obj, record, schema, uint)
from .keys import address_from_pubkey, sign, verify
from .state import AccountState, WorldState
from .tx import Transaction, verify_transaction
from .vm import Receipt, apply_transaction


@record("members")
class ValidatorSet:
    """Fixed ordered (address, pubkey) validator list; quorum is floor(2n/3)+1 votes."""

    @kept
    def _pubkeys(self) -> dict[bytes, bytes]:
        return dict(self.members)

    @classmethod
    def from_pubkeys(cls, pubkeys) -> "ValidatorSet":
        members = tuple((address_from_pubkey(pk), pk) for pk in pubkeys)
        addrs = [a for a, _ in members]
        if len(set(addrs)) != len(addrs) or not members:
            raise InputError("validators", "a non-empty list of keys with distinct addresses")
        return cls(members)

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def quorum(self) -> int:
        return (2 * self.n) // 3 + 1

    def pubkey_of(self, address: bytes) -> bytes | None:
        return self._pubkeys.get(address)


def check_issuance(balances) -> None:
    """The genesis balances (JSON path `accounts`) must add up to a u64, so
    that no account's balance can grow past one."""
    total = sum(balances)
    if total > U64_MAX:
        raise InputError("accounts", f"balances that add up to at most {U64_MAX}", total)


@record("chain_id", "validator_pubkeys", "accounts")
class GenesisConfig:
    """A chain's fixed parameters, the one source of its authorities, who
    may vote (`validators`) and who may sign (`pubkeys`), and of its block 0
    (`genesis_block`): each derived once and shared by every `Chain` of this
    genesis. `accounts` holds (pubkey, balance) pairs. No consensus timing:
    `from_dict` ignores the keys that older genesis files carry for it."""

    def to_json(self) -> str:
        return json.dumps(
            {
                "chain_id": self.chain_id.hex(),
                "validators": [pk.hex() for pk in self.validator_pubkeys],
                "accounts": [
                    {"pubkey": pk.hex(), "balance": bal} for pk, bal in self.accounts
                ],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_dict(cls, raw: dict) -> "GenesisConfig":
        v = _GENESIS(raw, "")
        cfg = cls(
            chain_id=v["chain_id"],
            validator_pubkeys=v["validators"],
            accounts=[(a["pubkey"], a["balance"]) for a in v["accounts"]],
        )
        cfg.validators  # raises unless distinct and non-empty
        check_issuance(b for _, b in cfg.accounts)
        return cfg

    @kept
    def validators(self) -> ValidatorSet:
        return ValidatorSet.from_pubkeys(self.validator_pubkeys)

    @kept
    def pubkeys(self) -> dict[bytes, bytes]:
        """Address -> public key of every validator and account: the only
        senders a block may carry. Shared, so never written to."""
        keys = [*self.validator_pubkeys, *(pk for pk, _ in self.accounts)]
        return {address_from_pubkey(pk): pk for pk in keys}

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

    @kept
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


_GENESIS = obj(
    chain_id=HASH_HEX,
    validators=list_of(HASH_HEX),
    accounts=list_of(obj(pubkey=HASH_HEX, balance=uint)),
)


class CorruptChainError(Exception):
    """A failed block or store check: the height it failed at and why."""

    def __init__(self, height: int, reason: str):
        super().__init__(f"chain invalid at height {height}: {reason}")
        self.height = height
        self.reason = reason


def check_hashes(parent: BlockHeader, block: Block) -> None:
    """The hash-only checks of a block: its height and link to `parent`, its
    Merkle root, and no repeated transaction hash, as a repeated last one
    keeps the root (Bitcoin's CVE-2012-2459). Raises `CorruptChainError` at
    the block's height on the first failure."""
    h = parent.height + 1
    header = block.header
    if header.height != h:
        raise CorruptChainError(h, "height-mismatch")
    if header.prev_hash != parent.hash():
        raise CorruptChainError(h, "link-mismatch")
    if header.merkle_root != merkle_root(block.tx_hashes):
        raise CorruptChainError(h, "merkle-mismatch")
    if len(set(block.tx_hashes)) != len(block.tx_hashes):
        raise CorruptChainError(h, "duplicate-tx")


def check_block(parent: BlockHeader, block: Block, pubkeys: dict[bytes, bytes]) -> None:
    """Everything about a block but its votes and its execution:
    `check_hashes`, then each sender's key in `pubkeys` (address -> public
    key, else `unknown-sender`) and its signature. Raises `CorruptChainError`
    at the block's height on the first failure."""
    check_hashes(parent, block)
    h = block.header.height
    for tx in block.transactions:
        pubkey = pubkeys.get(tx.sender)
        if pubkey is None:
            raise CorruptChainError(h, "unknown-sender")
        if not verify_transaction(tx, pubkey):
            raise CorruptChainError(h, "tx-signature")


def _check_votes(block: Block, validators: ValidatorSet) -> None:
    h = block.header.height
    header_hash = block.header.hash()
    signers = set()
    for addr, sig in block.votes:
        pk = validators.pubkey_of(addr)
        if pk is None:
            raise CorruptChainError(h, "vote-not-validator")
        if addr in signers:
            raise CorruptChainError(h, "vote-duplicate")
        if not verify(pk, sig, header_hash):
            raise CorruptChainError(h, "vote-signature")
        signers.add(addr)
    if len(signers) < validators.quorum:
        raise CorruptChainError(h, "quorum")


def verify_chain(blocks: list[Block], validators: ValidatorSet, pubkeys: dict[bytes, bytes]) -> None:
    """Structural audit of a chain: `check_block` and the votes at every
    height after genesis. Raises `CorruptChainError` at the lowest failing height.

    Vote signatures cover the header hash, so a mutation of any header field
    (including the state root) surfaces at its own height.
    """
    if not blocks:
        raise CorruptChainError(0, "empty chain")
    g = blocks[0]
    if g.header.height != 0 or g.header.prev_hash != ZERO_HASH:
        raise CorruptChainError(0, "bad genesis header")
    if g.header.merkle_root != merkle_root(g.tx_hashes):
        raise CorruptChainError(0, "merkle-mismatch")
    for parent, block in zip(blocks, blocks[1:]):
        check_block(parent.header, block, pubkeys)
        _check_votes(block, validators)


class Chain:
    """A committed chain plus its executed world state.

    Each block is executed at most once on its way through `stage`,
    `validate_block` and `append`: its post-state and receipts are kept in
    a memo under its header hash, which commits to the parent, so an entry
    holds for every chain whose head is that parent. A failed state-root
    check stores nothing. A chain keeps a private memo, which `append`
    empties, unless it is given `executed`, a memo shared with other chains
    of the same genesis, whose owner drops the entries it no longer needs
    (`run_simulation` shares one among the nodes of a run). Chains that
    take a block from a shared memo share its post-state object, which
    none of them writes: execution writes a copy."""

    def __init__(self, genesis: GenesisConfig,
                 executed: dict[bytes, tuple[WorldState, tuple[Receipt, ...]]] | None = None):
        self.genesis = genesis
        self.validators = genesis.validators
        self.pubkeys = genesis.pubkeys
        self.state = genesis.genesis_state()
        self.blocks: list[Block] = [genesis.genesis_block]
        self._private = executed is None
        # header hash -> (post-state, receipts) of an executed block
        self._executed = {} if executed is None else executed

    def copy(self) -> "Chain":
        """A snapshot: it shares the genesis, the blocks and the state (see
        `WorldState.copy`), with its own block list and a private, empty memo."""
        twin = object.__new__(type(self))
        vars(twin).update(vars(self), state=self.state.copy(), blocks=list(self.blocks),
                          _private=True, _executed={})
        return twin

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

    def validate_block(self, block: Block) -> None:
        """`check_block` against the head, without votes, then execution
        (reused if the block was staged or validated before)."""
        check_block(self.head.header, block, self.pubkeys)
        self._execute_block(block)

    def _execute_block(self, block: Block) -> tuple[WorldState, tuple[Receipt, ...]]:
        """Post-state and receipts of a block whose parent is the head, from
        the memo if it holds them, else executed and stored; raises, and
        stores nothing, if its state root does not match."""
        key = block.header.hash()
        hit = self._executed.get(key)
        if hit is None:
            state, root, receipts = self.execute(list(block.transactions), tick=block.header.timestamp)
            if root != block.header.state_root:
                raise CorruptChainError(block.header.height, "state-root-mismatch")
            hit = self._executed[key] = (state, tuple(receipts))
        return hit

    def check_votes(self, block: Block) -> None:
        _check_votes(block, self.validators)

    def append(self, block: Block) -> list[Receipt]:
        """The one way onto the chain: `check_block` against the head, then
        the votes, then execution (reused if the block was staged or
        validated before, by this chain or one sharing its memo); the block
        becomes the head."""
        check_block(self.head.header, block, self.pubkeys)
        self.check_votes(block)
        self.state, receipts = self._execute_block(block)
        if self._private:
            self._executed.clear()
        self.blocks.append(block)
        return list(receipts)

    @classmethod
    def from_blocks(cls, genesis: GenesisConfig, blocks: list[Block],
                    base: WorldState | None = None) -> "Chain":
        """Rebuild a stored chain (genesis block included) by appending each
        block after genesis in turn, so a corrupt store fails at its lowest
        bad height, whether a check or the execution fails there. `base`,
        the state after block `base.height` as `checkpoint_state` accepted
        it, starts the appends after that block instead."""
        chain = cls(genesis)
        if not blocks or blocks[0] != chain.blocks[0]:
            raise CorruptChainError(0, "genesis-mismatch")
        if base is not None:
            chain.state = base
            chain.blocks = blocks[:base.height + 1]
        for block in blocks[len(chain.blocks):]:
            chain.append(block)
        return chain


@schema(0xC1, height=U64, chain_len=U64, chain_digest=BYTES, state=BYTES)
class Checkpoint:
    """checkpoint.bin: the state after block `height` (`WorldState.serialize`)
    and the length and SHA-256 of the stored chain up to that block."""


def checkpoint_state(genesis: GenesisConfig, blocks: list[Block], record: bytes) -> WorldState:
    """The state a checkpoint record holds, if the stored chain, read as
    `blocks` by `scan_chain`, vouches for it; else `CorruptChainError`
    with the reason. The record must decode strictly and name a block h
    after genesis; blocks 0..h, stored again by `encode_chain` from the
    frames they were read from, must be `chain_len` bytes long and hash to
    `chain_digest`, so that no byte below h is unchecked, votes included;
    blocks 1..h must pass `check_hashes`, which reads only headers and
    transaction hashes; block h must carry a quorum of validator votes,
    which vouch for the headers below it; and the state must hash to block
    h's state root and decode strictly. Transaction signatures, votes below
    h and execution are not checked again."""
    try:
        r = Reader(record)
        cp = Checkpoint.decode(r)
        r.expect_end()
    except DecodeError as exc:
        raise CorruptChainError(0, f"undecodable: {exc}") from exc
    h = cp.height
    if not 0 < h < len(blocks):
        raise CorruptChainError(h, "no-such-block")
    prefix = encode_chain(blocks[:h + 1])
    if cp.chain_len != len(prefix) or hash256(prefix) != cp.chain_digest:
        raise CorruptChainError(h, "chain-digest-mismatch")
    for parent, block in zip(blocks, blocks[1:h + 1]):
        check_hashes(parent.header, block)
    _check_votes(blocks[h], genesis.validators)
    if hash256(cp.state) != blocks[h].header.state_root:
        raise CorruptChainError(h, "state-root-mismatch")
    try:
        state = WorldState.decode(cp.state)
    except DecodeError as exc:
        raise CorruptChainError(h, f"undecodable state: {exc}") from exc
    state.height = h
    return state


def fsync_dir(path: Path) -> None:
    """Make the entries of the directory at `path` durable, such as a rename into it."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


_swept: set[Path] = set()  # the directories _remove_stale_temps has swept


def _remove_stale_temps(directory: Path) -> None:
    """Remove the temporary files `replace_file` left in `directory` in dead
    processes (pids looked up in this pid namespace), once per directory and
    process, so that puts into a large artifacts directory do not each list it."""
    if directory in _swept:
        return
    _swept.add(directory)
    for name in os.listdir(directory):
        parts = name.split(".")  # "", the file's name in parts, pid, "tmp"
        if not (len(parts) > 3 and parts[0] == "" and parts[-1] == "tmp" and parts[-2].isdecimal()):
            continue
        try:
            os.kill(int(parts[-2]), 0)  # signal 0 only asks whether the process exists
        except ProcessLookupError:
            with suppress(FileNotFoundError):  # another process removed it first
                (directory / name).unlink()
        except (OverflowError, OSError):  # no pid at all, or another user's process
            pass


def replace_file(path: Path, data: bytes, mode: int | None = None) -> None:
    """Replace the file at `path` with `data` whole, so that after a crash it
    holds its old bytes or its new ones: a temporary file named for this
    process, fsync, `os.replace`, fsync of the directory. The file gets
    `mode`, else the mode it had, else 0o666 less the umask; errors name `path`."""
    old = path.stat() if path.exists() else None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "wb") as f:  # a device or pipe, such as /dev/stdout, cannot be replaced
            f.write(data)
        return
    if mode is None and old is not None:
        mode = stat.S_IMODE(old.st_mode)
    _remove_stale_temps(path.parent)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            if mode is not None:
                os.fchmod(f.fileno(), mode)
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            tmp.unlink()
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    fsync_dir(path.parent)


@contextmanager
def locked(directory: Path):
    """Hold an exclusive `flock` on `directory`, which `replace_file` never
    swaps out. `fsync_dir` and `_remove_stale_temps` open it through other
    descriptors; their close keeps the lock, which belongs to this open."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # releases the lock


class ChainStore:
    """A store directory, one path attribute per file, each written by
    `replace_file`. chain.bin, which `init` writes last, is the commit
    point. A writer holds `locked(root)`."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.genesis_path = self.root / "genesis.json"
        self.chain_path = self.root / "chain.bin"
        self.checkpoint_path = self.root / "checkpoint.bin"  # the state at the head when it was saved
        self.key_path = self.root / "validator_key.json"  # the local sealer's key
        self.artifacts_dir = self.root / "artifacts"  # content-addressed
        # the store no longer writes or reads chain.json; bench/tracing.py still sizes one if present
        self.mirror_path = self.root / "chain.json"
        # why the last load did not use checkpoint.bin, if it exists
        self.checkpoint_note: str | None = None

    def exists(self) -> bool:
        return self.genesis_path.exists() and self.chain_path.exists()

    def init(self, genesis: GenesisConfig) -> Chain:
        self.artifacts_dir.mkdir(parents=True, exist_ok=True)
        replace_file(self.genesis_path, genesis.to_json().encode())
        chain = Chain(genesis)
        self.save(chain)
        return chain

    def load(self) -> Chain:
        """The stored chain, from checkpoint.bin if `checkpoint_state`
        accepts it, else replayed from genesis; `checkpoint_note` says why
        an existing checkpoint.bin was not used. checkpoint.bin is read
        first: `save` replaces chain.bin first, so the chain.bin read after
        it holds at least the blocks it describes. chain.bin is read once, by
        `scan_chain`; the blocks to be replayed (all unless the checkpoint
        is used) then decode their transactions strictly, before the note
        is set, so that an undecodable store fails at height 0 with no note."""
        self.checkpoint_note = None
        try:
            genesis = GenesisConfig.from_dict(json.loads(self.genesis_path.read_text()))
        except ValueError as exc:
            raise CorruptChainError(0, f"bad genesis.json: {exc}") from exc
        try:
            record = self.checkpoint_path.read_bytes()
        except FileNotFoundError:
            record = None
        data = self.chain_path.read_bytes()
        base = note = None
        try:
            blocks = scan_chain(data)
            if record is not None:
                try:
                    base = checkpoint_state(genesis, blocks, record)
                except CorruptChainError as exc:
                    note = f"{exc.reason} at height {exc.height}"
            for block in blocks[base.height + 1 if base else 0:]:
                block.transactions  # decoded strictly, to be replayed
            self.checkpoint_note = note
            return Chain.from_blocks(genesis, blocks, base)
        except DecodeError as exc:
            raise CorruptChainError(0, f"undecodable: {exc}") from exc

    def save(self, chain: Chain) -> None:
        """Replace chain.bin and then checkpoint.bin, each whole (see
        `replace_file`). A crash between the two leaves an older
        checkpoint, which still describes a prefix of chain.bin."""
        data = encode_chain(chain.blocks)
        replace_file(self.chain_path, data)
        if chain.height:  # genesis carries no votes to vouch for a checkpoint
            state = chain.state.serialize()
            replace_file(self.checkpoint_path,
                         Checkpoint(chain.height, len(data), hash256(data), state).encode())
