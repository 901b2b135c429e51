"""Every outside input goes through one reader: replacing the value at any
JSON path of a valid input with a value of another type is either refused
(exit 2, the path named, no traceback) or changes nothing."""

import copy
import csv
import io
import json
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from testingplus.cli import main

from conftest import Actor

# what a path's value is replaced with; text fields of the references hold
# "x" and drop_probability 0.5, so those two replacements change nothing there
MUTATIONS = [None, True, False, -1, 0.5, 2**64, "x", ["x"], {"x": "x"}]

VALIDATOR, CUSTOMER, DEVELOPER = (Actor(bytes([b]) * 32) for b in (0x41, 0x42, 0x43))


def key_file(actor):
    return {"address": actor.address.hex(), "public_key": actor.pubkey.hex(),
            "secret_key": actor.secret.hex()}


GENESIS = {
    "chain_id": "01" * 32,
    "validators": [VALIDATOR.pubkey.hex()],
    "accounts": [{"pubkey": CUSTOMER.pubkey.hex(), "balance": 1000},
                 {"pubkey": DEVELOPER.pubkey.hex(), "balance": 50}],
    "empty_block_interval": 50,
    "timeout_ticks": 50,
}
OP_ENTRIES = [
    {"op": "deploy_acceptance_test", "customer": CUSTOMER.address.hex(),
     "developer": DEVELOPER.address.hex(), "fee": 5, "value": 0},
    {"op": "register_test_case", "contract": "07" * 32, "description": "x", "input": "x",
     "expected_output_digest": "09" * 32},
    {"op": "post_feedback", "subject": "0c" * 32, "body": "x"},
]
SCENARIO = {
    "seed": 1, "n_validators": 2, "latency": [1, 2], "drop_probability": 0.5,
    "accounts": [100, 100], "max_ticks": 12, "empty_block_interval": 4,
    "timeout_ticks": None, "gossip_interval": 2,
    "partitions": [{"from_tick": 1, "to_tick": 3, "sides": [[0], [1]]}],
    "crash_faults": [{"node": 1, "tick": 11}],
    "workload": [
        {"tick": 1, "sender": 0, "op": "deploy_acceptance_test", "customer": 0, "developer": 1,
         "fee": 3},
        {"tick": 2, "sender": 0, "op": "register_test_case", "contract": {"ref": 0},
         "description": "x", "input": "x", "expected_output": "x", "value": 0},
        {"tick": 3, "sender": 1, "op": "post_feedback", "subject": "0c" * 32, "body": "x"},
    ],
}
SWEEP = {"base": {"seed": 2, "n_validators": 1, "latency": [1, 1], "max_ticks": 6},
         "axis": "drop_probability", "values": [0.5], "repetitions": 1}


def json_paths(value, path=""):
    """(path as the reader names it, key chain) of every value in a JSON document."""
    yield path, ()
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        child_path = f"{path}[{key}]" if isinstance(key, int) else (
            f"{path}.{key}" if path else key)
        for p, keys in json_paths(child, child_path):
            yield p, (key, *keys)


def mutated(document, keys, value):
    if not keys:
        return copy.deepcopy(value)
    out = copy.deepcopy(document)
    parent = out
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = copy.deepcopy(value)
    return out


def mutations(document):
    return st.tuples(st.sampled_from(list(json_paths(document))), st.sampled_from(MUTATIONS))


def run(capsys, argv):
    capsys.readouterr()
    rc = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return rc, out, err


def assert_refused_or_unchanged(result, reference, path):
    rc, out, err = result
    if rc == 2:
        assert path in err, (path, err)
        assert out == ""
    else:
        assert (rc, out) == reference[:2], path


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A store of GENESIS, with CUSTOMER's and the sealer's key files."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "genesis.json").write_text(json.dumps(GENESIS))
    for name, actor in (("validator", VALIDATOR), ("customer", CUSTOMER)):
        (root / f"{name}.key").write_text(json.dumps(key_file(actor)))
    assert main(["init", "--store", str(root / "store"), "--genesis", str(root / "genesis.json"),
                 "--validator-key", str(root / "validator.key")]) == 0
    return root


def submit(store, capsys, entry, key=None):
    """Submit an op entry on a fresh copy of the store."""
    work = store / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(store / "store", work)
    (store / "entry.json").write_text(json.dumps(entry))
    key_path = store / "customer.key"
    if key is not None:
        key_path = store / "mutated.key"
        key_path.write_text(json.dumps(key))
    return run(capsys, ["submit", str(store / "entry.json"), "--store", str(work),
                        "--key", str(key_path)])


@pytest.mark.parametrize("entry", OP_ENTRIES, ids=[e["op"] for e in OP_ENTRIES])
def test_op_entry(store, capsys, entry):
    reference = submit(store, capsys, entry)
    assert reference[0] == 0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mutations(entry))
    def check(mutation):
        (path, keys), value = mutation
        assert_refused_or_unchanged(submit(store, capsys, mutated(entry, keys, value)),
                                    reference, path)

    check()


def test_key_file(store, capsys):
    key = key_file(CUSTOMER)
    reference = submit(store, capsys, OP_ENTRIES[0], key)
    assert reference[0] == 0

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(mutations(key))
    def check(mutation):
        (path, keys), value = mutation
        assert_refused_or_unchanged(submit(store, capsys, OP_ENTRIES[0], mutated(key, keys, value)),
                                    reference, path)

    check()


def test_genesis(store, capsys):
    def init(genesis):
        shutil.rmtree(store / "new", ignore_errors=True)
        (store / "g.json").write_text(json.dumps(genesis))
        result = run(capsys, ["init", "--store", str(store / "new"), "--genesis",
                              str(store / "g.json"), "--validator-key",
                              str(store / "validator.key")])
        assert (result[0] == 2) == (not (store / "new").exists())
        return result

    reference = init(GENESIS)
    assert reference[0] == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mutations(GENESIS))
    def check(mutation):
        (path, keys), value = mutation
        assert_refused_or_unchanged(init(mutated(GENESIS, keys, value)), reference, path)

    check()


def test_scenario(tmp_path, capsys):
    def simulate(scenario):
        (tmp_path / "s.json").write_text(json.dumps(scenario))
        trace = tmp_path / "trace.jsonl"
        trace.unlink(missing_ok=True)
        rc, out, err = run(capsys, ["scenario", str(tmp_path / "s.json"), "--out", str(trace)])
        return rc, out + (trace.read_text() if trace.exists() else ""), err

    reference = simulate(SCENARIO)
    assert reference[0] == 0

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(mutations(SCENARIO))
    def check(mutation):
        (path, keys), value = mutation
        assert_refused_or_unchanged(simulate(mutated(SCENARIO, keys, value)), reference, path)

    check()


def test_sweep_spec(tmp_path, capsys):
    """The spec's own fields are read when it loads; each cell's scenario is
    judged as the cell runs, so a bad base field or axis value becomes an
    error row naming it."""
    def sweep(spec):
        (tmp_path / "sweep.json").write_text(json.dumps(spec))
        rc, out, err = run(capsys, ["bench", str(tmp_path / "sweep.json"), "--out",
                                    str(tmp_path / "o.csv")])
        rows = (tmp_path / "o.csv").read_text() if rc == 0 else ""
        return rc, rows, err

    reference = sweep(SWEEP)
    assert reference[0] == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mutations(SWEEP))
    def check(mutation):
        (path, keys), value = mutation
        result = sweep(mutated(SWEEP, keys, value))
        if result[0] == 0 and result[1] != reference[1]:
            (row,) = list(csv.DictReader(io.StringIO(result[1])))
            assert row["status"].startswith("error: "), path
            if path.startswith("base."):
                assert row["status"].startswith(f"error: {path[len('base.'):]}"), (path, row)
        else:
            assert_refused_or_unchanged(result, reference, path)

    check()
