"""Command-line behaviors, including exit codes and output formats."""

import hashlib
import json

import pytest

from testingplus.block import MerkleProof, verify_merkle_proof
from testingplus.cli import main
from testingplus.keys import address_from_pubkey

from conftest import make_genesis


def write_key(path, actor):
    path.write_text(
        json.dumps(
            {
                "address": actor.address.hex(),
                "public_key": actor.pubkey.hex(),
                "secret_key": actor.secret.hex(),
            }
        )
    )
    return str(path)


@pytest.fixture
def env(tmp_path, validator, customer, developer, tester):
    genesis = make_genesis(validator, [(customer, 1000), (developer, 200), (tester, 300)])
    genesis_path = tmp_path / "genesis.json"
    genesis_path.write_text(genesis.to_json())
    keys = {
        "validator": write_key(tmp_path / "validator.key", validator),
        "customer": write_key(tmp_path / "customer.key", customer),
        "developer": write_key(tmp_path / "developer.key", developer),
        "tester": write_key(tmp_path / "tester.key", tester),
    }
    store = tmp_path / "store"
    rc = main(["init", "--store", str(store), "--genesis", str(genesis_path),
               "--validator-key", keys["validator"]])
    assert rc == 0
    return {"tmp": tmp_path, "store": str(store), "genesis": str(genesis_path), "keys": keys}


def submit(env, who, payload, capsys):
    p = env["tmp"] / "payload.json"
    p.write_text(json.dumps(payload))
    rc = main(["submit", str(p), "--store", env["store"], "--key", env["keys"][who]])
    out = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(out[-1]) if out else None


class TestKeygen:
    def test_writes_key_with_matching_address(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        assert main(["keygen", "--out", str(out)]) == 0
        key = json.loads(out.read_text())
        derived = address_from_pubkey(bytes.fromhex(key["public_key"]))
        assert key["address"] == derived.hex()
        assert json.loads(capsys.readouterr().out)["address"] == key["address"]

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        main(["keygen", "--out", str(out)])
        capsys.readouterr()
        assert main(["keygen", "--out", str(out)]) == 2
        assert main(["keygen", "--out", str(out), "--force"]) == 0


class TestInit:
    def test_outsider_key_rejected(self, tmp_path, env, capsys):
        from conftest import Actor

        outsider_key = write_key(tmp_path / "o.key", Actor(b"\x66" * 32))
        rc = main(["init", "--store", str(tmp_path / "s2"),
                   "--genesis", env["genesis"], "--validator-key", outsider_key])
        assert rc == 2

    def test_bad_genesis_file(self, tmp_path, env):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["init", "--store", str(tmp_path / "s3"),
                   "--genesis", str(bad), "--validator-key", env["keys"]["validator"]])
        assert rc == 2

    @pytest.mark.parametrize("others", [1, 2])
    def test_genesis_the_local_sealer_cannot_reach_quorum_with_is_refused(
            self, tmp_path, env, validator, capsys, others):
        """The store seals each block with its one key, so every later
        submit would fail the quorum check of a larger validator set."""
        from conftest import Actor

        raw = json.loads((tmp_path / "genesis.json").read_text())
        raw["validators"] += [Actor(bytes([0x70 + i]) * 32).pubkey.hex() for i in range(others)]
        multi = tmp_path / "multi_genesis.json"
        multi.write_text(json.dumps(raw))
        store = tmp_path / "s4"
        capsys.readouterr()
        rc = main(["init", "--store", str(store), "--genesis", str(multi),
                   "--validator-key", env["keys"]["validator"]])
        assert rc == 2
        assert f"quorum of {2 * (1 + others) // 3 + 1} votes" in capsys.readouterr().err
        assert not store.exists()


class TestSubmit:
    def test_success_prints_receipt_and_created_id(self, env, capsys):
        rc, out = submit(env, "customer", {"op": "deploy_customer_agreement"}, capsys)
        assert rc == 0
        assert out["status"] == "Success"
        assert out["block_height"] == 1
        assert len(out["created_id"]) == 64

    def test_reverted_receipt_still_exit_zero(self, env, capsys):
        rc, out = submit(
            env, "developer", {"op": "set_testing_fee", "contract": "0f" * 32, "fee": 5},
            capsys,
        )
        assert rc == 0
        assert out["status"] == "Reverted"
        assert out["reason"] == "unknown contract"
        assert "created_id" not in out

    def test_state_delta_digest_joins_the_block_roots(self, env, capsys):
        """A CLI block holds one transaction, so its delta digest is the hash
        of the parent's state root and the block's, as `query block` shows them."""
        for who, payload in [
            ("customer", {"op": "deploy_customer_agreement"}),
            ("developer", {"op": "set_testing_fee", "contract": "0f" * 32, "fee": 5}),
        ]:
            _, out = submit(env, who, payload, capsys)
            roots = []
            for h in (out["block_height"] - 1, out["block_height"]):
                assert main(["query", "--store", env["store"], "block", str(h)]) == 0
                header = json.loads(capsys.readouterr().out)["header"]
                roots.append(bytes.fromhex(header["state_root"]))
            assert out["state_delta_digest"] == hashlib.sha256(b"".join(roots)).hexdigest()

    def test_malformed_payload_is_usage_error(self, env, capsys):
        p = env["tmp"] / "bad.json"
        p.write_text("{oops")
        rc = main(["submit", str(p), "--store", env["store"], "--key", env["keys"]["customer"]])
        assert rc == 2

    def test_unknown_op_is_usage_error(self, env, capsys):
        rc, _ = submit(env, "customer", {"op": "mint_money"}, capsys)
        assert rc == 2

    @pytest.mark.parametrize("payload", [
        {"op": "deploy_customer_agreement", "value": "abc"},
        {"op": "deploy_customer_agreement", "value": None},
        {"op": "initiate_test", "contract": "00" * 32, "value": -1},
        {"op": "set_testing_fee", "contract": "00" * 32, "fee": -5},
        {"op": "set_testing_fee", "contract": "00" * 32, "fee": None},
        {"op": "set_testing_fee", "contract": "00" * 32, "fee": "12x"},
        {"op": "set_reward", "contract": "00" * 32, "amount": 2**64},
        {"op": "set_testing_fee", "contract": "00" * 32},
        {"op": "set_testing_fee", "contract": 5, "fee": 1},
        # ids and digests are 32 bytes, accounts 20
        {"op": "set_testing_fee", "contract": "00", "fee": 25},
        {"op": "complete_test", "contract": "00" * 33},
        {"op": "deploy_acceptance_test", "customer": "03" * 19, "developer": "04" * 20, "fee": 7},
        {"op": "record_execution", "case": "0a" * 32, "actual_output_digest": "0b" * 31},
    ])
    def test_bad_field_is_usage_error_and_commits_nothing(self, env, capsys, payload):
        rc, _ = submit(env, "customer", payload, capsys)
        assert rc == 2
        assert main(["query", "--store", env["store"], "state"]) == 0
        assert json.loads(capsys.readouterr().out)["height"] == 0

    def test_decimal_string_numbers_accepted(self, env, capsys):
        rc, out = submit(env, "customer", {"op": "set_testing_fee", "contract": "00" * 32,
                                           "fee": "25"},
                         capsys)
        assert (rc, out["block_height"], out["reason"]) == (0, 1, "unknown contract")

    def test_record_execution_prints_execution_id(self, populated, capsys):
        case = populated["ids"]["case"]
        rc, out = submit(populated, "tester", {
            "op": "record_execution", "case": case, "actual_output": "oops"}, capsys)
        assert (rc, out["status"]) == (0, "Success")
        assert main(["query", "--store", populated["store"], "case", case]) == 0
        runs = json.loads(capsys.readouterr().out)["executions"]
        assert out["created_id"] == runs[-1]["exec_id"]
        # feedback on that run names it by the printed id
        rc, fb = submit(populated, "developer", {
            "op": "post_feedback", "subject": out["created_id"], "body": "flaky"}, capsys)
        assert (fb["status"], "created_id" in fb) == ("Success", False)

    def test_missing_store_flag(self, env, capsys):
        p = env["tmp"] / "p.json"
        p.write_text(json.dumps({"op": "deploy_customer_agreement"}))
        assert main(["submit", str(p), "--key", env["keys"]["customer"]]) == 2

    def test_empty_store_reports_no_chain(self, env, capsys):
        p = env["tmp"] / "p.json"
        p.write_text(json.dumps({"op": "deploy_customer_agreement"}))
        rc = main(["submit", str(p), "--store", str(env["tmp"] / "nowhere"),
                   "--key", env["keys"]["customer"]])
        assert rc == 2
        assert "no chain" in capsys.readouterr().err

    def test_queue_mode_appends_workload_entries(self, env, capsys):
        q = env["tmp"] / "workload.json"
        p = env["tmp"] / "p.json"
        p.write_text(json.dumps({"op": "deploy_customer_agreement", "tick": 5, "sender": 0}))
        assert main(["submit", str(p), "--queue", str(q)]) == 0
        assert main(["submit", str(p), "--queue", str(q)]) == 0
        assert len(json.loads(q.read_text())) == 2

    def test_queue_mode_requires_tick_and_sender(self, env, capsys):
        q = env["tmp"] / "workload.json"
        p = env["tmp"] / "p.json"
        p.write_text(json.dumps({"op": "deploy_customer_agreement"}))
        assert main(["submit", str(p), "--queue", str(q)]) == 2


@pytest.fixture
def populated(env, capsys):
    """Store with a funded acceptance test, one case, one passing run."""
    ids = {}
    rc, out = submit(env, "customer", {
        "op": "deploy_acceptance_test",
        "customer": json.loads(open(env["keys"]["customer"]).read())["address"],
        "developer": json.loads(open(env["keys"]["developer"]).read())["address"],
        "fee": 50,
    }, capsys)
    ids["contract"] = out["created_id"]
    rc, out = submit(env, "customer", {
        "op": "initiate_test", "contract": ids["contract"], "value": 50}, capsys)
    assert out["status"] == "Success"
    rc, out = submit(env, "customer", {
        "op": "register_test_case", "contract": ids["contract"],
        "description": "login", "input": "user+pass", "expected_output": "welcome",
    }, capsys)
    ids["case"] = out["created_id"]
    rc, out = submit(env, "tester", {
        "op": "record_execution", "case": ids["case"], "actual_output": "welcome"}, capsys)
    assert out["status"] == "Success"
    env["ids"] = ids
    return env


class TestQuery:
    def q(self, env, capsys, *args):
        rc = main(["query", "--store", env["store"], *args])
        return rc, capsys.readouterr().out

    def test_state(self, populated, capsys):
        rc, out = self.q(populated, capsys, "state")
        assert rc == 0
        state = json.loads(out)
        assert state["height"] == 4
        assert state["acceptance_tests"][0]["escrow"] == 50
        assert state["test_cases"] == 1 and state["executions"] == 1

    def test_block(self, populated, capsys):
        rc, out = self.q(populated, capsys, "block", "1")
        assert rc == 0
        block = json.loads(out)
        assert block["header"]["height"] == 1
        assert len(block["transactions"]) == 1

    def test_block_out_of_range(self, populated, capsys):
        assert self.q(populated, capsys, "block", "99")[0] == 2

    @pytest.mark.parametrize("args", [
        ("block", "-1"), ("block", "1.5"), ("block", "+1"), ("block", "1_0"), ("block", " 1"),
        ("proof", "3", "-1"), ("proof", "+3", "0"), ("proof", "3", "0.0"),
        ("compensation", "{tester}", "0", "4", "-10", "5"),
        ("compensation", "{tester}", "0", "4", "10", "-5"),
        ("compensation", "{tester}", "-0", "4", "10", "5"),
        ("compensation", "{tester}", "0", "4.0", "10", "5"),
        ("compensation", "{tester}", "0", "4", "10"),
    ])
    def test_bad_number_is_usage_error(self, populated, capsys, args):
        tester_addr = json.loads(open(populated["keys"]["tester"]).read())["address"]
        rc, out = self.q(populated, capsys, *[a.format(tester=tester_addr) for a in args])
        assert (rc, out) == (2, "")

    def test_case(self, populated, capsys):
        rc, out = self.q(populated, capsys, "case", populated["ids"]["case"])
        assert rc == 0
        case = json.loads(out)
        assert case["description"] == "login"
        assert case["passes"] == 1
        assert case["executions"][0]["verdict"] == "Pass"

    def test_audit_json_and_csv(self, populated, capsys):
        rc, out = self.q(populated, capsys, "audit", populated["ids"]["case"])
        assert rc == 0
        assert [e["kind"] for e in json.loads(out)] == ["register", "execute"]
        rc, out = self.q(populated, capsys, "--csv", "audit", populated["ids"]["case"])
        assert out.splitlines()[0] == "kind,tick,block_height,actor,tx_hash"

    def test_compensation(self, populated, capsys):
        tester_addr = json.loads(open(populated["keys"]["tester"]).read())["address"]
        rc, out = self.q(populated, capsys, "compensation", tester_addr, "0", "4", "10", "5")
        assert rc == 0
        stmt = json.loads(out)
        assert (stmt["executed"], stmt["matched"], stmt["amount"]) == (1, 1, 15)

    def test_compensation_window_beyond_head(self, populated, capsys):
        tester_addr = json.loads(open(populated["keys"]["tester"]).read())["address"]
        assert self.q(populated, capsys, "compensation", tester_addr, "0", "99", "1", "1")[0] == 2

    def test_compensation_inverted_window(self, populated, capsys):
        tester_addr = json.loads(open(populated["keys"]["tester"]).read())["address"]
        rc = main(["query", "--store", populated["store"], "compensation", tester_addr, "3", "2", "1", "1"])
        assert (rc, capsys.readouterr()) == (2, ("", "error: window start 3 is after its end 2\n"))

    def test_proof_verifies_against_block_root(self, populated, capsys):
        rc, out = self.q(populated, capsys, "proof", "3", "0")
        assert rc == 0
        p = json.loads(out)
        proof = MerkleProof(
            p["leaf_index"],
            tuple((bytes.fromhex(s["hash"]), s["sibling_on_right"]) for s in p["siblings"]),
        )
        assert verify_merkle_proof(
            bytes.fromhex(p["leaf"]), proof, bytes.fromhex(p["merkle_root"])
        )

    def test_unknown_selector_rejected(self, populated, capsys):
        assert main(["query", "--store", populated["store"], "nonsense"]) == 2

    def test_corrupted_store_exit_three(self, populated, capsys):
        from pathlib import Path

        chain_bin = Path(populated["store"]) / "chain.bin"
        data = bytearray(chain_bin.read_bytes())
        data[len(data) // 2] ^= 0xFF
        chain_bin.write_bytes(bytes(data))
        assert self.q(populated, capsys, "state")[0] == 3

    def test_padded_transaction_frame_is_undecodable(self, populated, capsys):
        """Junk after a transaction inside its length-prefixed frame used to
        be skipped, so the padded store loaded as if intact."""
        from pathlib import Path

        from testingplus.block import decode_chain
        from testingplus.codec import enc_bytes, enc_u64

        chain_bin = Path(populated["store"]) / "chain.bin"
        blocks = decode_chain(chain_bin.read_bytes())
        block = blocks[1]
        (tx,) = block.transactions
        votes = b"".join(enc_bytes(a) + enc_bytes(s) for a, s in block.votes)
        padded = (block.header.encode() + enc_u64(1) + enc_bytes(tx.encode() + b"junk")
                  + enc_u64(len(block.votes)) + votes)
        frames = [enc_bytes(b.encode()) for b in blocks]
        frames[1] = enc_bytes(padded)
        chain_bin.write_bytes(b"".join(frames))
        rc = main(["query", "--store", populated["store"], "state"])
        assert rc == 3
        assert "undecodable: 4 trailing bytes" in capsys.readouterr().err


class TestScenarioAndBench:
    def test_scenario_run_writes_trace(self, tmp_path, capsys):
        scenario = {
            "seed": 3, "n_validators": 4, "latency": [1, 2], "accounts": [500],
            "max_ticks": 300,
            "workload": [{"tick": 5, "sender": 0, "op": "deploy_customer_agreement"}],
        }
        sfile = tmp_path / "scenario.json"
        sfile.write_text(json.dumps(scenario))
        trace_path = tmp_path / "trace.ndjson"
        assert main(["scenario", str(sfile), "--out", str(trace_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["truncated"] is False
        from testingplus.sim import SimTrace

        assert SimTrace.read(trace_path).summary["truncated"] is False

    def test_bad_scenario_usage_error(self, tmp_path, capsys):
        sfile = tmp_path / "scenario.json"
        sfile.write_text(json.dumps({"seed": 1}))
        assert main(["scenario", str(sfile), "--out", str(tmp_path / "t")]) == 2

    @pytest.mark.parametrize("scenario,message", [
        ({"seed": 1, "n_validators": 1, "latency": [1, 1], "accounts": [-5], "max_ticks": 40},
         "account balance must be a non-negative integer, not -5"),
        ({"seed": 1}, "missing field 'latency'"),
        ([1], "a scenario is a JSON object, not list"),
    ])
    def test_bad_scenario_is_named_once(self, tmp_path, capsys, scenario, message):
        sfile = tmp_path / "scenario.json"
        sfile.write_text(json.dumps(scenario))
        assert main(["scenario", str(sfile), "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err == f"error: bad scenario: {message}\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda spec: spec.pop("axis"), "missing field 'axis'"),
        (lambda spec: spec.update(repetitions=1.7),
         "repetitions must be a positive integer, not 1.7"),
    ])
    def test_bad_sweep_spec_is_named_once(self, tmp_path, capsys, edit, message):
        spec = {"base": {"seed": 1}, "axis": "n_validators", "values": [1]}
        edit(spec)
        sfile = tmp_path / "sweep.json"
        sfile.write_text(json.dumps(spec))
        assert main(["bench", str(sfile), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"error: bad sweep spec: {message}\n"

    def test_bench_writes_csv(self, tmp_path, capsys):
        spec = {
            "base": {
                "seed": 3, "n_validators": 4, "latency": [1, 2], "accounts": [500],
                "max_ticks": 200,
                "workload": [{"tick": 5, "sender": 0, "op": "deploy_customer_agreement"}],
            },
            "axis": "n_validators",
            "values": [1, 4],
        }
        sfile = tmp_path / "sweep.json"
        sfile.write_text(json.dumps(spec))
        out_csv = tmp_path / "bench.csv"
        assert main(["bench", str(sfile), "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("axis,")
        assert len(lines) == 3


class TestArtifact:
    def test_put_then_get(self, env, tmp_path, capsys):
        f = tmp_path / "log.txt"
        f.write_bytes(b"run output")
        assert main(["artifact", "--store", env["store"], "put", str(f)]) == 0
        digest = json.loads(capsys.readouterr().out)["digest"]
        assert main(["artifact", "--store", env["store"], "get", digest]) == 0
        assert capsys.readouterr().out == "run output"

    def test_get_missing_is_usage_error(self, env, capsys):
        assert main(["artifact", "--store", env["store"], "get", "ab" * 32]) == 2


def test_cli_import_leaves_the_simulator_unloaded():
    """Commands that never simulate do not pay for importing the simulator,
    the metrics harness or consensus; the package still exports them."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, testingplus.cli\n"
        "lazy = ('testingplus.sim', 'testingplus.metrics', 'testingplus.consensus')\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "import testingplus\n"
        "from testingplus import SweepSpec\n"
        "print(testingplus.run_simulation.__module__, SweepSpec.__module__,\n"
        "      testingplus.consensus.__name__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "testingplus.sim testingplus.metrics testingplus.consensus"]


@pytest.mark.parametrize("edit", [
    lambda g: g["validators"].append(g["validators"][0]),
    lambda g: g["accounts"][0].update(balance=-5),
    lambda g: g["accounts"][0].update(balance=2.9),
    lambda g: g.update(timeout_ticks=-1),
    lambda g: g.update(empty_block_interval="soon"),
    lambda g: g.update(accounts=[5]),
], ids=["duplicate-validator", "negative-balance", "fractional-balance", "negative-timeout",
        "text-interval", "account-not-an-object"])
def test_bad_genesis_is_usage_error_and_writes_no_store(tmp_path, env, capsys, edit):
    raw = json.loads((tmp_path / "genesis.json").read_text())
    edit(raw)
    bad = tmp_path / "bad_genesis.json"
    bad.write_text(json.dumps(raw))
    store = tmp_path / "s2"
    rc = main(["init", "--store", str(store), "--genesis", str(bad),
               "--validator-key", env["keys"]["validator"]])
    assert rc == 2
    assert "bad genesis file" in capsys.readouterr().err
    assert not store.exists()


def test_genesis_balances_and_intervals_accept_decimal_strings(tmp_path, env):
    raw = json.loads((tmp_path / "genesis.json").read_text())
    raw["accounts"][0]["balance"] = "1000"
    raw["timeout_ticks"] = "40"
    good = tmp_path / "good_genesis.json"
    good.write_text(json.dumps(raw))
    assert main(["init", "--store", str(tmp_path / "s3"), "--genesis", str(good),
                 "--validator-key", env["keys"]["validator"]]) == 0
