"""Every file the command line keeps is replaced whole: written under a
temporary name, fsynced, renamed over its target and its directory fsynced,
so that a crash leaves its old bytes or its new ones. A crashed `init` is
either redone or leaves a working store, and concurrent writers of one file
lose nothing. A put of content already stored rewrites nothing, and the
temporary files of dead processes are removed."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from testingplus.cli import main
from testingplus.workflow import ArtifactStore

from conftest import make_genesis
from test_cli import write_key
from test_store_checkpoint import Crash, _cli


def _inode(st):
    return st.st_dev, st.st_ino


def test_every_file_the_cli_leaves_is_replaced_whole_and_fsynced(
        tmp_path, monkeypatch, capsys, customer):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    store = out / "store"
    events = []  # ("fsync", inode) and ("replace", src, dst, inode of src)
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", _inode(os.fstat(fd))))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", Path(src), Path(dst), _inode(os.stat(src))))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)

    def run(*argv):
        assert main(list(argv)) == 0, capsys.readouterr().err

    def put(name, value):
        path = inputs / name
        path.write_text(value if isinstance(value, str) else json.dumps(value))
        return str(path)

    run("keygen", "--out", str(out / "validator.key"))
    (out / "other.key").write_text("not a key")
    (out / "other.key").chmod(0o644)
    run("keygen", "--out", str(out / "other.key"), "--force")
    validator = json.loads((out / "validator.key").read_text())
    genesis = {"chain_id": "01" * 32, "validators": [validator["public_key"]],
               "accounts": [{"pubkey": customer.pubkey.hex(), "balance": 1000}]}
    run("init", "--store", str(store), "--genesis", put("genesis.json", genesis),
        "--validator-key", str(out / "validator.key"))
    case = {"op": "register_test_case", "contract": "00" * 32, "description": "login",
            "input": "user=a", "expected_output": "ok"}
    run("submit", put("case.json", case), "--store", str(store),
        "--key", write_key(inputs / "customer.key", customer))
    entry = put("entry.json", {"tick": 1, "sender": 0, "op": "deploy_customer_agreement"})
    run("submit", entry, "--queue", str(out / "queue.json"))
    run("submit", entry, "--queue", str(out / "queue.json"))
    run("artifact", "--store", str(store), "put", put("run.log", "run output"))
    scenario = {"seed": 1, "n_validators": 1, "latency": [1, 1], "accounts": [100],
                "max_ticks": 40,
                "workload": [{"tick": 2, "sender": 0, "op": "deploy_customer_agreement"}]}
    run("scenario", put("scenario.json", scenario), "--out", str(out / "trace.jsonl"))
    sweep = {"base": scenario, "axis": "drop_probability", "values": [0.0, 0.1]}
    run("bench", put("sweep.json", sweep), "--out", str(out / "sweep.csv"))
    monkeypatch.undo()

    left = sorted(p for p in out.rglob("*") if p.is_file())
    names = {p.relative_to(out).as_posix() for p in left}
    assert {"validator.key", "other.key", "queue.json", "trace.jsonl", "sweep.csv",
            "store/genesis.json", "store/validator_key.json", "store/chain.bin",
            "store/checkpoint.bin"} < names
    assert len([n for n in names if n.startswith("store/artifacts/")]) == 3
    for path in left:
        # the last replace onto the file put its present inode there ...
        i = max(k for k, e in enumerate(events) if e[0] == "replace" and e[2] == path)
        _, src, _, inode = events[i]
        assert src.parent == path.parent and src.name != path.name, path
        assert inode == _inode(path.stat()), path
        # ... after that inode was fsynced, and its directory was fsynced after it
        assert ("fsync", inode) in events[:i], path
        assert ("fsync", _inode(path.parent.stat())) in events[i + 1:], path
    assert (out / "other.key").stat().st_mode & 0o777 == 0o600
    assert (store / "validator_key.json").read_bytes() == (out / "validator.key").read_bytes()


@pytest.mark.parametrize("when", ["before", "after"])
@pytest.mark.parametrize("crash_at", [0, 1, 2], ids=["validator_key", "genesis", "chain"])
def test_init_crashed_at_any_rename_is_redone_or_leaves_a_store(
        tmp_path, monkeypatch, capsys, validator, customer, crash_at, when):
    """`init` renames validator_key.json, then genesis.json, then chain.bin,
    the commit point. A crash before chain.bin is in place leaves a
    directory that `init` redoes; a crash after it leaves a store at
    height 0 that takes a submit at height 1."""
    genesis = tmp_path / "genesis.json"
    genesis.write_text(make_genesis(validator, [(customer, 1000)]).to_json())
    store = tmp_path / "store"
    init = ["init", "--store", str(store), "--genesis", str(genesis),
            "--validator-key", write_key(tmp_path / "validator.key", validator)]

    renames = []
    real_replace = os.replace

    def crashing(src, dst):
        renames.append(Path(dst).name)
        if len(renames) == crash_at + 1 and when == "before":
            raise Crash
        real_replace(src, dst)
        if len(renames) == crash_at + 1:
            raise Crash

    monkeypatch.setattr(os, "replace", crashing)
    with pytest.raises(Crash):
        main(init)
    monkeypatch.undo()
    assert renames == ["validator_key.json", "genesis.json", "chain.bin"][:crash_at + 1]

    committed = crash_at == 2 and when == "after"
    capsys.readouterr()
    assert main(init) == (2 if committed else 0)
    capsys.readouterr()
    assert main(["query", "--store", str(store), "state"]) == 0
    assert json.loads(capsys.readouterr().out)["height"] == 0
    payload = tmp_path / "deploy.json"
    payload.write_text(json.dumps({"op": "deploy_customer_agreement"}))
    assert main(["submit", str(payload), "--store", str(store),
                 "--key", write_key(tmp_path / "customer.key", customer)]) == 0
    assert json.loads(capsys.readouterr().out)["block_height"] == 1


def test_concurrent_queue_submits_keep_every_entry(tmp_path):
    """Four `submit --queue` processes at once, ten times over: each exits 0
    and the queue ends with all four entries, because each holds a lock from
    its read of the queue file until its replace."""
    payload = tmp_path / "entry.json"
    payload.write_text(json.dumps({"tick": 1, "sender": 0, "op": "deploy_customer_agreement"}))
    for run in range(10):
        queue = tmp_path / f"queue{run}.json"
        procs = [_cli("submit", str(payload), "--queue", str(queue)) for _ in range(4)]
        outs = [p.communicate(timeout=60) for p in procs]
        assert [p.returncode for p in procs] == [0] * 4, (run, outs)
        assert sorted(json.loads(o)["queued"] for o, _ in outs) == [1, 2, 3, 4]
        assert len(json.loads(queue.read_text())) == 4
    assert not list(tmp_path.glob(".*.tmp"))


def test_queue_in_a_missing_directory_is_refused_and_creates_nothing(tmp_path, capsys):
    entry = tmp_path / "entry.json"
    entry.write_text(json.dumps({"tick": 1, "sender": 0, "op": "deploy_customer_agreement"}))
    assert main(["submit", str(entry), "--queue", str(tmp_path / "nodir" / "q.json")]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["entry.json"]


def test_concurrent_artifact_puts_of_one_content_store_it_whole(tmp_path):
    """Two `artifact put`s of the same content at once both exit 0, and the
    stored file holds exactly the bytes its name is the digest of: each
    writes under a temporary name of its own."""
    data = os.urandom(1 << 22)
    source = tmp_path / "big.bin"
    source.write_bytes(data)
    digest = hashlib.sha256(data).hexdigest()
    for run in range(5):
        store = tmp_path / f"store{run}"
        procs = [_cli("artifact", "--store", str(store), "put", str(source)) for _ in range(2)]
        outs = [p.communicate(timeout=60) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], outs
        assert {json.loads(o)["digest"] for o, _ in outs} == {digest}
        assert os.listdir(store / "artifacts") == [digest]
        assert (store / "artifacts" / digest).read_bytes() == data


def test_a_pipe_is_written_to_not_replaced(tmp_path, capsys):
    """A target that is not a regular file, such as a pipe or /dev/stdout,
    cannot be replaced: the trace is written into it."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"seed": 1, "n_validators": 1, "latency": [1, 1],
                                    "accounts": [100], "max_ticks": 20}))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["scenario", str(scenario), "--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert got[0].decode().endswith('"type": "summary"}\n')
    assert fifo.is_fifo() and sorted(os.listdir(tmp_path)) == ["fifo", "scenario.json"]


def test_a_second_put_of_stored_content_renames_nothing(tmp_path, monkeypatch):
    """A file that already holds the content is kept, and only its directory
    is fsynced: another process may have renamed it in without an fsync yet."""
    artifacts = ArtifactStore(tmp_path / "artifacts")
    digest = artifacts.put(b"run output")
    calls = []
    monkeypatch.setattr(os, "replace", lambda *args: calls.append(("replace", *args)))
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(("fsync", _inode(os.fstat(fd))))
                        or real_fsync(fd))
    assert artifacts.put(b"run output") == digest
    assert calls == [("fsync", _inode(artifacts.root.stat()))]


@pytest.mark.parametrize("torn", [b"", b"run out", b"run outpux"])
def test_a_torn_stored_artifact_is_replaced(tmp_path, torn):
    artifacts = ArtifactStore(tmp_path / "artifacts")
    digest = artifacts.put(b"run output")
    (artifacts.root / digest.hex()).write_bytes(torn)
    assert artifacts.put(b"run output") == digest
    assert artifacts.get(digest) == b"run output"
    assert os.listdir(artifacts.root) == [digest.hex()]


def _init_with_temp_file(tmp_path, validator, customer, pid: int) -> Path:
    """Plant `.validator_key.json.<pid>.tmp` in a store directory, run
    `init` there, and return the planted file's path."""
    genesis = tmp_path / "genesis.json"
    genesis.write_text(make_genesis(validator, [(customer, 1000)]).to_json())
    store = tmp_path / "store"
    store.mkdir()
    planted = store / f".validator_key.json.{pid}.tmp"
    planted.write_text("a partly written key")
    planted.chmod(0o600)
    assert main(["init", "--store", str(store), "--genesis", str(genesis),
                 "--validator-key", write_key(tmp_path / "validator.key", validator)]) == 0
    return planted


def test_init_removes_the_temporary_file_of_a_dead_process(tmp_path, capsys, validator,
                                                          customer):
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()  # reaped, so its pid names no process
    planted = _init_with_temp_file(tmp_path, validator, customer, dead.pid)
    assert not planted.exists()
    assert not list(planted.parent.glob(".*.tmp"))


def test_init_keeps_the_temporary_file_of_a_running_process(tmp_path, capsys, validator,
                                                            customer):
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        planted = _init_with_temp_file(tmp_path, validator, customer, sleeper.pid)
        assert planted.read_text() == "a partly written key"
    finally:
        sleeper.kill()
        sleeper.wait()


def test_a_directory_is_swept_once_per_process(tmp_path, monkeypatch):
    """Puts into a large artifacts directory do not each list it."""
    artifacts = ArtifactStore(tmp_path / "artifacts")
    artifacts.put(b"first")
    listed = []
    real_listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: listed.append(path) or real_listdir(path))
    for i in range(5):
        artifacts.put(b"run output %d" % i)
    assert listed == []
    assert len(real_listdir(artifacts.root)) == 6
