"""The store's checkpoint: a load that starts from checkpoint.bin must end
where a replay from genesis of the same chain.bin ends, or fail where it
fails, whatever the bytes of either file; a checkpoint that its chain does
not vouch for is ignored with a note; a crash between the two writes of a
save loads as the chain before or after it; and concurrent submits commit
one after another."""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from testingplus import block as block_mod, chain as chain_mod
from testingplus.block import (Block, BlockHeader, decode_chain, encode_chain, merkle_proof,
                               scan_chain)
from testingplus.chain import Chain, ChainStore, Checkpoint, CorruptChainError, locked
from testingplus.cli import main
from testingplus.codec import ZERO_HASH, DecodeError, Reader, enc_bytes, enc_u64, hash256
from testingplus.keys import sign
from testingplus.state import AccountState, WorldState
from testingplus.tx import Transaction

from conftest import Actor
from test_cli import env, submit  # noqa: F401  (env is a fixture)
from test_execution_cache import VALIDATOR, Engagement

SRC = Path(__file__).resolve().parents[1] / "src"


def outcome(load):
    """What a load gives: the failed height and reason, or the head hash,
    the state root and the next history number of the chain loaded."""
    try:
        chain = load()
    except CorruptChainError as exc:
        return ("corrupt", exc.height, exc.reason)
    return ("ok", chain.head.header.hash(), chain.state.root(), chain.state.next_seq)


def replayed(genesis, data: bytes):
    """The oracle: `Chain.from_blocks` from genesis over the decoded bytes."""
    try:
        blocks = decode_chain(data)
    except DecodeError as exc:
        return ("corrupt", 0, f"undecodable: {exc}")
    return outcome(lambda: Chain.from_blocks(genesis, blocks))


def built_store(tmp_path, checkpoint_height=None):
    """A store of 10 blocks, one transaction each, whose checkpoint.bin is
    at `checkpoint_height` (the head if None), and the engagement that made it."""
    eng = Engagement()
    store = ChainStore(tmp_path / "store")
    store.init(eng.chain.genesis)
    for _ in range(3):
        for tx in eng.next_txs():
            eng.append([tx])
            if eng.chain.height == checkpoint_height:
                store.save(eng.chain)
                record = store.checkpoint_path.read_bytes()
    store.save(eng.chain)
    if checkpoint_height is not None:
        store.checkpoint_path.write_bytes(record)
    assert eng.chain.height == 10
    return store, eng


@pytest.fixture
def saved(tmp_path):
    """The 10-block store with its checkpoint at height 6: a byte of chain.bin
    is either below the checkpoint, where any change must make the load
    ignore it, or above it, where the load appends from it."""
    return built_store(tmp_path, 6)


def checked_load(store, genesis, data: bytes) -> None:
    """Load `data` as chain.bin and compare with the oracle."""
    store.chain_path.write_bytes(data)
    assert outcome(store.load) == replayed(genesis, data), store.checkpoint_note


@pytest.mark.parametrize("height", [None, 6], ids=["at-head", "below-head"])
def test_load_uses_the_checkpoint_and_matches_the_replay(tmp_path, height):
    store, eng = built_store(tmp_path, height)
    chain = eng.chain
    loaded = store.load()
    assert store.checkpoint_note is None
    data = store.chain_path.read_bytes()
    assert outcome(lambda: loaded) == replayed(chain.genesis, data)
    assert outcome(lambda: loaded) == outcome(lambda: chain)
    assert loaded.blocks == chain.blocks


@pytest.mark.parametrize("height", [None, 6], ids=["at-head", "below-head"])
def test_every_block_and_proof_a_command_reads_is_the_decoded_block(tmp_path, height, capsys):
    """A load from the checkpoint leaves the transactions below it undecoded
    until they are read: every block and proof that it gives, and that
    `query` prints, is the one that the strictly decoded chain gives."""
    store, _ = built_store(tmp_path, height)
    strict = decode_chain(store.chain_path.read_bytes())
    loaded = store.load()
    assert store.checkpoint_note is None
    replay = tmp_path / "replay"  # the same store without its checkpoint: loaded strictly
    shutil.copytree(store.root, replay)
    (replay / "checkpoint.bin").unlink()
    for h, block in enumerate(strict):
        assert type(loaded.blocks[h]) is Block and loaded.blocks[h] == block
        queries = [["block", str(h)]]
        for i in range(len(block.transactions)):
            assert merkle_proof(loaded.blocks[h], i) == merkle_proof(block, i)
            queries.append(["proof", str(h), str(i)])
        for query in queries:
            assert main(["query", "--store", str(store.root), *query]) == 0
            out, err = capsys.readouterr()
            assert main(["query", "--store", str(replay), *query]) == 0
            assert capsys.readouterr() == (out, err) and err == ""


@pytest.mark.parametrize("height", [None, 6], ids=["at-head", "below-head"])
def test_a_checkpointed_load_decodes_only_the_transactions_above_it(tmp_path, height,
                                                                    monkeypatch):
    """Transactions are decoded for the blocks above the checkpoint, which
    the load replays, and for no block below it until they are read."""
    store, eng = built_store(tmp_path, height)
    decoded = []
    real = Transaction.decode

    def counted(r):
        tx = real(r)
        decoded.append(tx.hash())
        return tx

    monkeypatch.setattr(Transaction, "decode", staticmethod(counted))
    loaded = store.load()
    above = eng.chain.blocks[(height or 10) + 1:]
    assert store.checkpoint_note is None
    assert decoded == [tx.hash() for b in above for tx in b.transactions]
    # a block below the checkpoint decodes its transactions on their first read
    before = len(decoded)
    assert loaded.blocks[3].transactions == eng.chain.blocks[3].transactions
    assert decoded[before:] == [tx.hash() for tx in eng.chain.blocks[3].transactions]


def test_a_sealed_undecodable_transaction_below_the_checkpoint_fails_when_read(tmp_path,
                                                                               capsys):
    """Below the checkpoint a transaction is checked by its hash alone, which
    the validator's votes on block h vouch for. A block that the validator
    sealed over bytes that are no transaction therefore loads from the
    checkpoint, and the command that reads those bytes exits 3, as every
    command does on a strict load."""
    store, eng = built_store(tmp_path)
    genesis = eng.chain.genesis
    junk = b"not a transaction"
    header = BlockHeader(1, eng.chain.blocks[0].header.hash(), hash256(junk),
                         genesis.genesis_state().root(), 1, VALIDATOR.address)
    vote = enc_bytes(VALIDATOR.address) + enc_bytes(sign(VALIDATOR.secret, header.hash()))
    block = header.encode() + enc_u64(1) + enc_bytes(junk) + enc_u64(1) + vote
    data = encode_chain(eng.chain.blocks[:1]) + enc_bytes(block)
    store.chain_path.write_bytes(data)
    store.checkpoint_path.write_bytes(
        Checkpoint(1, len(data), hash256(data), genesis.genesis_state().serialize()).encode())
    assert main(["query", "--store", str(store.root), "state"]) == 0
    assert main(["query", "--store", str(store.root), "block", "1"]) == 3
    assert "store corruption: " in capsys.readouterr().err
    store.checkpoint_path.unlink()
    assert main(["query", "--store", str(store.root), "state"]) == 3
    assert "undecodable" in capsys.readouterr().err


def test_every_flipped_chain_byte_loads_as_the_replay(saved):
    store, eng = saved
    data = store.chain_path.read_bytes()
    for i in range(len(data)):
        flipped = bytearray(data)
        flipped[i] ^= 0xFF
        checked_load(store, eng.chain.genesis, bytes(flipped))


def test_every_truncated_chain_loads_as_the_replay(saved):
    store, eng = saved
    data = store.chain_path.read_bytes()
    for n in range(len(data) + 1):
        checked_load(store, eng.chain.genesis, data[:n])


def test_every_flipped_checkpoint_byte_is_ignored(saved):
    store, eng = saved
    record = store.checkpoint_path.read_bytes()
    want = outcome(lambda: eng.chain)
    for i in range(len(record)):
        flipped = bytearray(record)
        flipped[i] ^= 0xFF
        store.checkpoint_path.write_bytes(bytes(flipped))
        assert outcome(store.load) == want, i
        assert store.checkpoint_note is not None, i


def richer_state(store) -> tuple[Checkpoint, WorldState]:
    """The store's checkpoint and its state with the validator's balance raised."""
    cp = Checkpoint.decode(Reader(store.checkpoint_path.read_bytes()))
    state = WorldState.decode(cp.state)
    rich = state.account(VALIDATOR.address)
    state.put(AccountState(rich.address, rich.balance + 10**6, rich.nonce))
    return cp, state


def test_checkpoint_with_changed_state_is_ignored(tmp_path):
    store, eng = built_store(tmp_path)
    cp, state = richer_state(store)
    data = store.chain_path.read_bytes()
    store.checkpoint_path.write_bytes(
        replace(cp, chain_digest=hash256(data), state=state.serialize()).encode())
    assert outcome(store.load) == outcome(lambda: eng.chain)
    assert store.checkpoint_note == "state-root-mismatch at height 10"


@pytest.mark.parametrize("height", [0, 11], ids=["genesis", "past-the-head"])
def test_a_checkpoint_of_no_block_after_genesis_is_ignored(tmp_path, height):
    """A record at height 0, or one past the head, is ignored as
    `no-such-block`, though its length and digest match the prefix it
    names: the genesis block, or the whole chain."""
    store, eng = built_store(tmp_path)
    prefix = encode_chain(eng.chain.blocks[:height + 1])
    cp = Checkpoint.decode(Reader(store.checkpoint_path.read_bytes()))
    store.checkpoint_path.write_bytes(
        replace(cp, height=height, chain_len=len(prefix), chain_digest=hash256(prefix)).encode())
    assert outcome(store.load) == outcome(lambda: eng.chain)
    assert store.checkpoint_note == f"no-such-block at height {height}"


def test_a_stored_block_that_repeats_its_last_transaction_is_corrupt(tmp_path, capsys):
    """Block 2's three transactions with the last one repeated keep its
    Merkle root, its header and its votes: with a checkpoint resealed over
    the changed chain.bin, and with none, the store is corrupt at height 2."""
    eng = Engagement()
    eng.append(eng.next_txs())
    store = ChainStore(tmp_path / "store")
    store.init(eng.chain.genesis)
    store.save(eng.chain)
    block = eng.chain.blocks[2]
    twin = Block(block.header, block.transactions + block.transactions[-1:], block.votes)
    data = encode_chain([*eng.chain.blocks[:2], twin])
    store.chain_path.write_bytes(data)
    cp = Checkpoint.decode(Reader(store.checkpoint_path.read_bytes()))
    store.checkpoint_path.write_bytes(
        replace(cp, chain_len=len(data), chain_digest=hash256(data)).encode())
    query = ["query", "--store", str(store.root), "state"]
    corrupt = "store corruption: chain invalid at height 2: duplicate-tx\n"
    assert main(query) == 3
    assert capsys.readouterr() == ("", "note: checkpoint ignored: duplicate-tx at height 2\n" + corrupt)
    store.checkpoint_path.unlink()
    assert main(query) == 3
    assert capsys.readouterr() == ("", corrupt)


def test_head_resealed_by_an_outsider_is_ignored(tmp_path):
    """A forger without the validator key commits a richer state by
    re-sealing the head with their own key: the checkpoint is ignored and
    the load fails where the replay fails."""
    store, eng = built_store(tmp_path)
    chain = eng.chain
    outsider = Actor(b"\x66" * 32)
    _, state = richer_state(store)
    head = chain.head
    header = replace(head.header, state_root=state.root())
    forged = Block(header, head.transactions, ())
    forged = chain.seal(forged, [(outsider.address, outsider.secret)])
    data = encode_chain(chain.blocks[:-1] + [forged])
    store.chain_path.write_bytes(data)
    store.checkpoint_path.write_bytes(
        Checkpoint(10, len(data), hash256(data), state.serialize()).encode())
    got = outcome(store.load)
    assert store.checkpoint_note == "vote-not-validator at height 10"
    assert got == replayed(chain.genesis, data) == ("corrupt", 10, "vote-not-validator")


def test_old_vote_byte_is_tamper_evident(tmp_path):
    """Votes below the checkpoint are under no hash; the prefix digest is
    what catches a changed one, so the load still fails as the replay does."""
    store, eng = built_store(tmp_path)
    data = store.chain_path.read_bytes()
    data = _flipped_in_block(data, eng.chain, 3, eng.chain.blocks[3].votes[0][1])
    store.chain_path.write_bytes(data)
    assert outcome(store.load) == ("corrupt", 3, "vote-signature")
    assert store.checkpoint_note == "chain-digest-mismatch at height 10"


def _flipped_in_block(data: bytes, chain, height: int, part: bytes) -> bytes:
    at = data.index(part, data.index(chain.blocks[height].header.encoded))
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


@pytest.mark.parametrize("forgery", ["tx-signature", "short-digest"])
def test_forged_prefix_with_recomputed_digest_is_ignored(tmp_path, forgery):
    """A forger without the validator key changes block 3 and writes a
    checkpoint whose digest matches: the checkpoint is ignored, so the load
    fails at height 3 as the replay does. A changed transaction is caught by
    the hash checks below the checkpoint; a changed vote, which no hash
    covers, by the digest having to cover every block up to the checkpoint."""
    store, eng = built_store(tmp_path)
    cp = Checkpoint.decode(Reader(store.checkpoint_path.read_bytes()))
    block = eng.chain.blocks[3]
    data = store.chain_path.read_bytes()
    if forgery == "tx-signature":
        data = _flipped_in_block(data, eng.chain, 3, block.transactions[0].signature)
        cp = replace(cp, chain_digest=hash256(data))
        want = ("merkle-mismatch", "merkle-mismatch at height 3")
    else:
        data = _flipped_in_block(data, eng.chain, 3, block.votes[0][1])
        cp = replace(cp, chain_len=0, chain_digest=hash256(b""))
        want = ("vote-signature", "chain-digest-mismatch at height 10")
    store.chain_path.write_bytes(data)
    store.checkpoint_path.write_bytes(cp.encode())
    assert outcome(store.load) == replayed(eng.chain.genesis, data) == ("corrupt", 3, want[0])
    assert store.checkpoint_note == want[1]


def test_padded_frame_below_the_checkpoint_with_recomputed_digest_is_undecodable(tmp_path):
    """A forger pads a frame below the checkpoint after its votes, where no
    hash reaches, and writes a checkpoint whose digest matches: the load
    that starts from the checkpoint reads every frame to its end, so it
    fails as the strict decode does."""
    store, eng = built_store(tmp_path)
    cp = Checkpoint.decode(Reader(store.checkpoint_path.read_bytes()))
    frames = [enc_bytes(b.encoded) for b in eng.chain.blocks]
    frames[3] = enc_bytes(eng.chain.blocks[3].encoded + b"junk")
    data = b"".join(frames)
    store.chain_path.write_bytes(data)
    store.checkpoint_path.write_bytes(
        replace(cp, chain_len=len(data), chain_digest=hash256(data)).encode())
    want = ("corrupt", 0, "undecodable: 4 trailing bytes")
    assert outcome(store.load) == replayed(eng.chain.genesis, data) == want


def test_a_load_scans_once_and_checks_the_checkpoint_once(saved, monkeypatch):
    """A load reads chain.bin once and runs `checkpoint_state` once, both
    when the checkpoint is ignored and when the replay above it fails:
    neither starts over from a strict decode."""
    store, eng = saved
    calls = []

    def counted(name, fn):
        def count(*args):
            calls.append(name)
            return fn(*args)
        return count

    for module, name in [(chain_mod, "scan_chain"), (chain_mod, "checkpoint_state"),
                         (block_mod, "decode_chain")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    # a strict read is counted whichever module's name for decode_chain it calls
    monkeypatch.setattr(chain_mod, "decode_chain", counted("decode_chain", decode_chain),
                        raising=False)
    data, record = store.chain_path.read_bytes(), store.checkpoint_path.read_bytes()
    signature = eng.chain.blocks[8].transactions[0].signature
    cases = [(data, record[:-1] + bytes([record[-1] ^ 0x01]), "state-root-mismatch at height 6"),
             (_flipped_in_block(data, eng.chain, 8, signature), record, None)]
    for chain_bin, checkpoint_bin, note in cases:
        store.chain_path.write_bytes(chain_bin)
        store.checkpoint_path.write_bytes(checkpoint_bin)
        calls.clear()
        got = outcome(store.load)
        assert sorted(calls) == ["checkpoint_state", "scan_chain"]
        assert store.checkpoint_note == note
        assert got == replayed(eng.chain.genesis, chain_bin)
    assert got[:2] == ("corrupt", 8)


def _sealed(header: BlockHeader, txs: list[bytes]) -> bytes:
    """The frame of a block that the validator sealed over `txs`, byte
    strings that need not be transactions."""
    vote = enc_bytes(VALIDATOR.address) + enc_bytes(sign(VALIDATOR.secret, header.hash()))
    body = enc_u64(len(txs)) + b"".join(map(enc_bytes, txs)) + enc_u64(1) + vote
    return enc_bytes(header.encode() + body)


def test_a_failure_above_sealed_junk_below_the_checkpoint_is_reported_at_its_height(tmp_path):
    """The one outcome that a one-pass load changes on purpose. Below the
    checkpoint, block 1 is sealed over bytes that are no transaction; above
    it, block 2 is sealed with a wrong state root. The load fails at block 2,
    where its replay fails, while the strict reader finds the store
    undecodable: junk sealed below the checkpoint fails only the command
    that reads it."""
    store, eng = built_store(tmp_path)
    genesis = eng.chain.genesis
    state = genesis.genesis_state()
    junk = b"not a transaction"
    one = BlockHeader(1, eng.chain.blocks[0].header.hash(), hash256(junk), state.root(), 1,
                      VALIDATOR.address)
    two = BlockHeader(2, one.hash(), ZERO_HASH, hash256(b"wrong"), 2, VALIDATOR.address)
    prefix = encode_chain(eng.chain.blocks[:1]) + _sealed(one, [junk])
    data = prefix + _sealed(two, [])
    store.chain_path.write_bytes(data)
    store.checkpoint_path.write_bytes(
        Checkpoint(1, len(prefix), hash256(prefix), state.serialize()).encode())
    assert outcome(store.load) == ("corrupt", 2, "state-root-mismatch")
    assert store.checkpoint_note is None
    assert replayed(genesis, data) == ("corrupt", 0, "undecodable: unexpected end of input")


def test_scan_chain_refuses_a_store_for_the_strict_readers_reason(saved):
    """A transaction's length prefix cut short fails the strict reader inside
    the transaction, but the scan, which does not decode it, only at the end
    of its frame; the scan raises the strict reader's reason all the same."""
    store, eng = saved
    data = bytearray(store.chain_path.read_bytes())
    data[data.index(eng.chain.blocks[3].transactions[0].encoded) - 1] ^= 0xFF
    with pytest.raises(DecodeError) as strict:
        decode_chain(bytes(data))
    with pytest.raises(DecodeError) as scanned:
        scan_chain(bytes(data))
    assert str(scanned.value) == str(strict.value) == "unexpected end of input"


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The `saved` store, built once, with its chain.bin and checkpoint.bin bytes."""
    store, eng = built_store(tmp_path_factory.mktemp("pristine"), 6)
    return store, eng, store.chain_path.read_bytes(), store.checkpoint_path.read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(changes=st.lists(st.tuples(st.booleans(), st.integers(0, 2**16), st.integers(1, 255)),
                        min_size=1, max_size=3),
       cut=st.none() | st.integers(0, 2**16))
def test_stores_with_several_changed_bytes_load_as_the_replay(pristine, changes, cut):
    """One to three bytes changed across chain.bin and checkpoint.bin, and
    chain.bin sometimes cut short: the load ends as the replay does, and a
    store that does not decode carries no note."""
    store, eng, data, record = pristine
    files = {False: bytearray(data), True: bytearray(record)}
    for in_checkpoint, at, mask in changes:
        changed = files[in_checkpoint]
        changed[at % len(changed)] ^= mask
    chain_bin = bytes(files[False])
    if cut is not None:
        chain_bin = chain_bin[:cut % (len(chain_bin) + 1)]
    store.chain_path.write_bytes(chain_bin)
    store.checkpoint_path.write_bytes(bytes(files[True]))
    got = outcome(store.load)
    assert got == replayed(eng.chain.genesis, chain_bin), store.checkpoint_note
    if got[0] == "corrupt" and got[2].startswith("undecodable"):
        assert store.checkpoint_note is None


class Crash(BaseException):
    pass


@pytest.mark.parametrize("crash_at", [1, 2, None], ids=["first-rename", "second-rename", "none"])
def test_crash_during_save_loads_before_or_after(tmp_path, monkeypatch, crash_at):
    store, eng = built_store(tmp_path)
    before = outcome(lambda: eng.chain)
    eng.append(eng.next_txs()[:1])
    after = outcome(lambda: eng.chain)

    renames = []
    real_replace = os.replace

    def crashing(src, dst):
        renames.append(dst)
        if len(renames) == crash_at:
            raise Crash
        real_replace(src, dst)

    monkeypatch.setattr(chain_mod.os, "replace", crashing)
    if crash_at is None:
        store.save(eng.chain)
    else:
        with pytest.raises(Crash):
            store.save(eng.chain)
    monkeypatch.undo()
    assert [Path(p).name for p in renames] == ["chain.bin", "checkpoint.bin"][:crash_at or 2]
    want = {1: before, 2: after, None: after}[crash_at]
    assert outcome(store.load) == want
    assert store.checkpoint_note is None


def _cli(*args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "testingplus.cli", *args],
                            env=dict(os.environ, PYTHONPATH=path), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_concurrent_submits_all_commit(env):
    """Three submits (more than the cores of a small runner) started while
    the store is locked wait for the lock, and once it is free they commit
    one after another: the height rises by 3."""
    store = ChainStore(Path(env["store"]))
    payload = env["tmp"] / "deploy.json"
    payload.write_text(json.dumps({"op": "deploy_customer_agreement"}))
    with locked(store.root):
        procs = [_cli("submit", str(payload), "--store", env["store"], "--key", env["keys"][who])
                 for who in ("customer", "developer", "tester")]
        time.sleep(1.0)
        assert [p.poll() for p in procs] == [None] * 3
    outs = [p.communicate(timeout=60) for p in procs]
    assert [p.returncode for p in procs] == [0] * 3, outs
    assert sorted(json.loads(out)["block_height"] for out, _ in outs) == [1, 2, 3]
    out, _ = _cli("query", "--store", env["store"], "state").communicate(timeout=60)
    assert json.loads(out)["height"] == 3


def test_ignored_checkpoint_is_noted_and_changes_no_output(env, capsys):
    submit(env, "customer", {"op": "deploy_customer_agreement"}, capsys)
    query = ["query", "--store", env["store"], "state"]
    assert main(query) == 0
    out, err = capsys.readouterr()
    assert err == ""
    store = ChainStore(Path(env["store"]))
    record = bytearray(store.checkpoint_path.read_bytes())
    record[-1] ^= 0xFF
    store.checkpoint_path.write_bytes(bytes(record))
    assert main(query) == 0
    note = "note: checkpoint ignored: state-root-mismatch at height 1\n"
    assert capsys.readouterr() == (out, note)
    store.checkpoint_path.unlink()
    assert main(query) == 0
    assert capsys.readouterr() == (out, "")
