"""Command-line behaviors, including exit codes and output formats."""

import hashlib
import json
from pathlib import Path

import pytest

from testingplus.block import MerkleProof, verify_merkle_proof
from testingplus.chain import ChainStore
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


def submit_err(env, who, payload, capsys):
    """The exit code and stderr of submitting a payload."""
    p = env["tmp"] / "payload.json"
    p.write_text(json.dumps(payload))
    capsys.readouterr()
    rc = main(["submit", str(p), "--store", env["store"], "--key", env["keys"][who]])
    return rc, capsys.readouterr().err


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

    def test_key_file_is_readable_by_its_owner_only(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        assert main(["keygen", "--out", str(out)]) == 0
        assert out.stat().st_mode & 0o077 == 0
        out.chmod(0o644)
        assert main(["keygen", "--out", str(out), "--force"]) == 0
        assert out.stat().st_mode & 0o077 == 0


class TestInit:
    def test_existing_store_is_refused_and_left_as_it_was(self, env, capsys):
        submit(env, "customer", {"op": "deploy_customer_agreement"}, capsys)
        store = Path(env["store"])
        names = ("genesis.json", "chain.bin", "validator_key.json")
        before = {name: (store / name).read_bytes() for name in names}
        rc = main(["init", "--store", env["store"], "--genesis", env["genesis"],
                   "--validator-key", env["keys"]["validator"]])
        assert rc == 2
        assert capsys.readouterr().err == f"error: store {env['store']} exists\n"
        assert {name: (store / name).read_bytes() for name in names} == before

    def test_of_two_concurrent_inits_one_wins_and_the_other_is_refused(
            self, tmp_path, env, monkeypatch, capsys):
        """The first init pauses inside ChainStore.init while a second, of
        another genesis, runs on the same new directory: the second must
        find the first's store, which then loads with the first's genesis."""
        import threading
        from contextlib import contextmanager

        import testingplus.cli as cli

        raw = json.loads((tmp_path / "genesis.json").read_text())
        raw["chain_id"] = "02" * 32
        other = tmp_path / "other_genesis.json"
        other.write_text(json.dumps(raw))
        store = tmp_path / "race"
        inside, reached, release = threading.Event(), threading.Event(), threading.Event()
        real_init, real_locked = ChainStore.init, cli.locked

        def paused_init(self, genesis):
            if not inside.is_set():  # the first init only
                inside.set()
                assert release.wait(30)
            return real_init(self, genesis)

        @contextmanager
        def announced_locked(directory):
            if threading.current_thread() is second:
                reached.set()  # the second init is at the lock; the first still holds it
            with real_locked(directory):
                yield

        monkeypatch.setattr(ChainStore, "init", paused_init)
        monkeypatch.setattr(cli, "locked", announced_locked)
        codes = {}

        def init(name, genesis):
            try:
                codes[name] = main(["init", "--store", str(store), "--genesis", str(genesis),
                                    "--validator-key", env["keys"]["validator"]])
            finally:
                reached.set()  # an init that takes no lock ends while the first is paused

        first = threading.Thread(target=init, args=("first", env["genesis"]))
        second = threading.Thread(target=init, args=("second", other))
        capsys.readouterr()
        first.start()
        assert inside.wait(30)
        second.start()
        assert reached.wait(30)
        release.set()
        first.join(30)
        second.join(30)
        assert not first.is_alive() and not second.is_alive()
        assert codes == {"first": 0, "second": 2}
        assert f"error: store {store} exists\n" in capsys.readouterr().err
        assert ChainStore(store).load().genesis.chain_id == b"\x01" * 32

    def test_store_validator_key_is_readable_by_its_owner_only(self, env):
        assert (Path(env["store"]) / "validator_key.json").stat().st_mode & 0o077 == 0

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

    @pytest.mark.parametrize("payload,message", [
        ({"op": "set_testing_fee", "contract": "00" * 32, "fee": "25"},
         "fee: must be a non-negative integer below 2**64, not '25'"),
        ({"op": "deploy_customer_agreement", "value": "25"},
         "value: must be a non-negative integer below 2**64, not '25'"),
    ], ids=["field", "value"])
    def test_decimal_string_numbers_refused(self, env, capsys, payload, message):
        """In JSON a u64 is a JSON integer, never a string."""
        rc, err = submit_err(env, "customer", payload, capsys)
        assert (rc, err) == (2, f"error: bad payload: {message}\n")
        assert ChainStore(Path(env["store"])).load().height == 0

    def test_record_execution_prints_execution_id(self, populated, capsys):
        case = populated["ids"]["case"]
        rc, out = submit(populated, "tester", {
            "op": "record_execution", "case": case, "actual_output": "oops"}, capsys)
        assert (rc, out["status"]) == (0, "Success")
        assert main(["query", "--store", populated["store"], "case", case]) == 0
        runs = json.loads(capsys.readouterr().out)["executions"]
        assert out["created_id"] == runs[-1]["exec_id"]
        # feedback on that run names it by the printed id, and prints its own
        rc, fb = submit(populated, "developer", {
            "op": "post_feedback", "subject": out["created_id"], "body": "flaky"}, capsys)
        assert fb["status"] == "Success"
        feedback = ChainStore(Path(populated["store"])).load().state.feedbacks[-1]
        assert feedback.subject.hex() == out["created_id"]
        assert fb["created_id"] == feedback.feedback_id.hex()

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

    @pytest.mark.parametrize("kept", ["genesis.json", "chain.bin"])
    def test_a_store_with_one_of_its_two_files_has_no_chain(self, env, capsys, kept):
        only = env["tmp"] / "only"
        only.mkdir()
        (only / kept).write_bytes((Path(env["store"]) / kept).read_bytes())
        capsys.readouterr()
        rc = main(["query", "--store", str(only), "state"])
        assert (rc, capsys.readouterr()) == (2, ("", "error: no chain\n"))

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

    @pytest.mark.parametrize("payload,message", [
        ({"op": ["x"]}, "op: must be a string, not ['x']"),
        ({"op": "post_feedback", "subject": "00" * 32, "body": ["x", None]},
         "body: must be a string, not ['x', None]"),
        ({"op": "register_test_case", "contract": "00" * 32, "expected_output": None},
         "expected_output: must be a string, not None"),
    ], ids=["list-op", "list-body", "null-expected-output"])
    def test_non_string_text_is_refused_and_commits_nothing(self, env, capsys, payload, message):
        """Text fields are JSON strings; a missing one is empty, nothing else is read as text."""
        rc, err = submit_err(env, "customer", payload, capsys)
        assert (rc, err) == (2, f"error: bad payload: {message}\n")
        assert ChainStore(Path(env["store"])).load().height == 0

    def test_queue_mode_reads_tick_sender_and_op_as_a_scenario_does(self, env, capsys):
        q = env["tmp"] / "workload.json"
        p = env["tmp"] / "p.json"
        for entry, message in [({"op": ["x"], "tick": 5, "sender": 0}, "op: must be a string"),
                               ({"op": "deploy_customer_agreement", "tick": "5", "sender": 0},
                                "tick: must be a non-negative integer below 2**64, not '5'"),
                               ({"op": "deploy_customer_agreement", "tick": 5},
                                "sender: must be given")]:
            p.write_text(json.dumps(entry))
            capsys.readouterr()
            assert main(["submit", str(p), "--queue", str(q)]) == 2
            assert capsys.readouterr().err.startswith(f"error: bad payload: {message}")
        assert not q.exists()

    @pytest.mark.parametrize("text", ["{", '{"tick": 5}', '"entries"'],
                             ids=["not-json", "object", "string"])
    def test_queue_mode_refuses_a_malformed_queue_file(self, env, capsys, text):
        q = env["tmp"] / "workload.json"
        q.write_text(text)
        p = env["tmp"] / "p.json"
        p.write_text(json.dumps({"op": "deploy_customer_agreement", "tick": 5, "sender": 0}))
        assert main(["submit", str(p), "--queue", str(q)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read queue file {q}: ")
        assert q.read_text() == text


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

    def test_csv_outputs_are_pinned(self, populated, capsys):
        """Each CSV table ends in one newline, with no blank line after it."""
        tester_addr = json.loads(open(populated["keys"]["tester"]).read())["address"]
        rc, out = self.q(populated, capsys, "--csv", "compensation", tester_addr, "0", "4", "10", "5")
        assert (rc, out) == (0, (
            "tester,from_height,to_height,executed,matched,amount,contribution_ppm\n"
            "b14705888f4a68391a09aa5968dd25d16c3bba7b,0,4,1,1,15,1000000\n"))
        rc, out = self.q(populated, capsys, "--csv", "audit", populated["ids"]["case"])
        assert (rc, out) == (0, (
            "kind,tick,block_height,actor,tx_hash\n"
            "register,3,3,1325b850c2871916eae203f0efc3c8987f64e5e3,"
            "1ef1395b2be2164280f2c869428213ae8d52bd86af86a525506895079cc29ae1\n"
            "execute,4,4,b14705888f4a68391a09aa5968dd25d16c3bba7b,"
            "d5dcd060e52062d296c5fc9e644e03caff167c3ebe49cf9aa4ac5df54fbc813c\n"))

    @pytest.mark.parametrize("args,message", [
        (("compensation", "{tester}", "0", "99", "1", "1"), "window beyond head"),
        (("compensation", "{tester}", "0", "4", str(2**64 - 1), "1"),
         "compensation amount exceeds u64"),
        (("audit", "0b" * 32), "unknown test case " + "0b" * 32),
    ], ids=["window-beyond-head", "amount-beyond-u64", "unknown-case"])
    @pytest.mark.parametrize("csv", [[], ["--csv"]], ids=["json", "csv"])
    def test_failed_query_names_its_error(self, populated, capsys, args, message, csv):
        tester_addr = json.loads(open(populated["keys"]["tester"]).read())["address"]
        rc = main(["query", "--store", populated["store"], *csv,
                   *[a.format(tester=tester_addr) for a in args]])
        assert (rc, capsys.readouterr()) == (2, ("", f"error: {message}\n"))

    @pytest.mark.parametrize("args,message", [
        (("proof", "3", "5"), "tx index 5 out of range"),
        (("proof", "3", "1"), "tx index 1 out of range"),
        (("block", "99"), "no block at height 99"),
    ], ids=["proof-index", "proof-index-one-past", "block-height"])
    def test_a_query_past_the_chain_names_its_error(self, populated, capsys, args, message):
        rc = main(["query", "--store", populated["store"], *args])
        assert (rc, capsys.readouterr()) == (2, ("", f"error: {message}\n"))

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


class TestQueryArguments:
    """Each selector's arguments are typed and parsed before the store
    loads: a missing, extra or malformed one exits 2 through argparse."""

    CASES = [
        (["block"], "the following arguments are required: height"),
        (["block", "0", "junk"], "unrecognized arguments: junk"),
        (["block", "x"], "argument height: invalid u64 value: 'x'"),
        (["state", "junk"], "unrecognized arguments: junk"),
        (["case"], "the following arguments are required: case_id"),
        (["case", "{case}", "junk"], "unrecognized arguments: junk"),
        (["case", "zz"], "argument case_id: invalid 32-byte hex value: 'zz'"),
        (["audit"], "the following arguments are required: case_id"),
        (["audit", "{case}", "junk"], "unrecognized arguments: junk"),
        (["audit", "0b" * 31], f"argument case_id: invalid 32-byte hex value: '{'0b' * 31}'"),
        (["compensation", "{tester}", "0"],
         "the following arguments are required: to_height, base_rate, bonus_rate"),
        (["compensation", "{tester}", "0", "1", "1", "1", "9"], "unrecognized arguments: 9"),
        (["compensation", "{tester}0", "0", "1", "1", "1"],
         "argument tester: invalid 20-byte hex value: "),
        (["compensation", "{tester}", "0", "1", "1", "1.5"],
         "argument bonus_rate: invalid u64 value: '1.5'"),
        (["proof", "3"], "the following arguments are required: index"),
        (["proof", "3", "0", "0"], "unrecognized arguments: 0"),
        (["proof", "3", "-1"], "argument index: invalid u64 value: '-1'"),
        (["state", "--csv"], "unrecognized arguments: --csv"),
        (["--csv", "state"], "query state has no CSV form"),
        (["--csv", "block", "0"], "query block has no CSV form"),
        (["--csv", "case", "{case}"], "query case has no CSV form"),
        (["--csv", "proof", "3", "0"], "query proof has no CSV form"),
    ]

    @pytest.mark.parametrize("corrupt", [False, True], ids=["intact", "corrupt-store"])
    def test_bad_arguments_exit_two_without_loading_the_store(self, populated, capsys, corrupt):
        """On a store whose chain.bin is corrupt each still exits 2, not 3:
        nothing is loaded before the arguments are read."""
        chain_bin = Path(populated["store"]) / "chain.bin"
        if corrupt:
            chain_bin.write_bytes(b"\xff" + chain_bin.read_bytes()[1:])
            assert main(["query", "--store", populated["store"], "state"]) == 3
        tester = json.loads(open(populated["keys"]["tester"]).read())["address"]
        for args, message in self.CASES:
            args = [a.format(tester=tester, case=populated["ids"]["case"]) for a in args]
            capsys.readouterr()
            rc = main(["query", "--store", populated["store"], *args])
            out, err = capsys.readouterr()
            assert (rc, out) == (2, ""), args
            assert message in err, (args, err)

    def test_csv_goes_before_or_after_the_selector(self, populated, capsys):
        tester = json.loads(open(populated["keys"]["tester"]).read())["address"]
        for args in (["audit", populated["ids"]["case"]],
                     ["compensation", tester, "0", "4", "10", "5"]):
            outputs = []
            for argv in (["--csv", *args], [*args, "--csv"]):
                assert main(["query", "--store", populated["store"], *argv]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1] and outputs[0].count(",") > 4


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

    @pytest.mark.parametrize("entry,message", [
        ({"op": ["x"]}, "workload[0].op: must be a string, not ['x']"),
        ({"op": "post_feedback", "subject": "00" * 32, "body": ["x", None]},
         "workload[0].body: must be a string, not ['x', None]"),
        ({"op": "register_test_case", "contract": "00" * 32, "expected_output": None},
         "workload[0].expected_output: must be a string, not None"),
    ], ids=["list-op", "list-body", "null-expected-output"])
    def test_non_string_text_in_a_workload_is_refused(self, tmp_path, capsys, entry, message):
        scenario = {"seed": 1, "n_validators": 1, "latency": [1, 1], "accounts": [100],
                    "max_ticks": 20, "workload": [{"tick": 2, "sender": 0, **entry}]}
        sfile = tmp_path / "scenario.json"
        sfile.write_text(json.dumps(scenario))
        assert main(["scenario", str(sfile), "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err == f"error: bad scenario: {message}\n"
        assert not (tmp_path / "t").exists()

    def test_bad_scenario_usage_error(self, tmp_path, capsys):
        sfile = tmp_path / "scenario.json"
        sfile.write_text(json.dumps({"seed": 1}))
        assert main(["scenario", str(sfile), "--out", str(tmp_path / "t")]) == 2

    # (scenario, what is wrong with it, which names the case, and the message)
    BAD_SCENARIOS = [
        ({"seed": 1, "n_validators": 1, "latency": [1, 1], "accounts": [-5], "max_ticks": 40},
         "account balance must be a non-negative integer, not -5",
         "accounts[0]: must be a non-negative integer below 2**64, not -5"),
        ({"seed": 1}, "missing field 'latency'", "n_validators: must be given"),
        ([1], "a scenario is a JSON object, not list", "must be a JSON object, not [1]"),
    ]

    @pytest.mark.parametrize("scenario,case,message", BAD_SCENARIOS,
                             ids=[f"scenario{i}-{case}" for i, (_, case, _) in enumerate(BAD_SCENARIOS)])
    def test_bad_scenario_is_named_once(self, tmp_path, capsys, scenario, case, message):
        sfile = tmp_path / "scenario.json"
        sfile.write_text(json.dumps(scenario))
        assert main(["scenario", str(sfile), "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err == f"error: bad scenario: {message}\n"

    # (edit of a good sweep spec, what is wrong after it, which names the case
    # after its edit, and the message)
    BAD_SWEEP_EDITS = [
        (lambda spec: spec.pop("axis"), "missing field 'axis'", "axis: must be given"),
        (lambda spec: spec.update(repetitions=1.7),
         "repetitions must be a positive integer, not 1.7",
         "repetitions: must be a positive integer below 2**64, not 1.7"),
        (lambda spec: spec.update(values="14"), "sweep values must be a JSON list, not str",
         "values: must be a JSON list, not '14'"),
        (lambda spec: spec.update(values={"1": 0, "4": 0}),
         "sweep values must be a JSON list, not dict",
         "values: must be a JSON list, not {'1': 0, '4': 0}"),
        (lambda spec: spec.update(base=[["seed", 1]]), "sweep base must be a JSON object, not list",
         "base: must be a JSON object, not [['seed', 1]]"),
    ]

    @pytest.mark.parametrize("edit,case,message", BAD_SWEEP_EDITS,
                             ids=[f"<lambda>-{case}" for _, case, _ in BAD_SWEEP_EDITS])
    def test_bad_sweep_spec_is_named_once(self, tmp_path, capsys, edit, case, message):
        spec = {"base": {"seed": 1}, "axis": "n_validators", "values": [1]}
        edit(spec)
        sfile = tmp_path / "sweep.json"
        sfile.write_text(json.dumps(spec))
        assert main(["bench", str(sfile), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"error: bad sweep spec: {message}\n"

    @pytest.mark.parametrize("spec", [[1], "x", None])
    def test_sweep_spec_that_is_not_an_object_is_named(self, tmp_path, capsys, spec):
        sfile = tmp_path / "sweep.json"
        sfile.write_text(json.dumps(spec))
        assert main(["bench", str(sfile), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: bad sweep spec: must be a JSON object, not {spec!r}\n")

    def _issuance_scenario(self, tmp_path, balances):
        """One account pays the other the whole of its balance as a fee."""
        scenario = {
            "seed": 1, "n_validators": 1, "latency": [1, 1], "accounts": balances,
            "max_ticks": 60,
            "workload": [
                {"tick": 1, "sender": 0, "op": "deploy_acceptance_test", "customer": 0,
                 "developer": 1, "fee": balances[0]},
                {"tick": 5, "sender": 0, "op": "initiate_test", "contract": {"ref": 0},
                 "value": balances[0]},
                {"tick": 9, "sender": 1, "op": "complete_test", "contract": {"ref": 0}},
            ],
        }
        sfile = tmp_path / "scenario.json"
        sfile.write_text(json.dumps(scenario))
        return sfile

    def test_issuance_beyond_u64_is_refused_and_writes_no_trace(self, tmp_path, capsys):
        sfile = self._issuance_scenario(tmp_path, [2**64 - 1, 2**64 - 1])
        trace_path = tmp_path / "trace.ndjson"
        assert main(["scenario", str(sfile), "--out", str(trace_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: bad scenario: accounts: must be balances that add up to at most {2**64 - 1}, "
            f"not {2 * (2**64 - 1)}\n")
        assert not trace_path.exists()

    def test_issuance_of_exactly_u64_max_is_accepted(self, tmp_path, capsys):
        sfile = self._issuance_scenario(tmp_path, [2**64 - 2, 1])
        trace_path = tmp_path / "trace.ndjson"
        assert main(["scenario", str(sfile), "--out", str(trace_path)]) == 0
        assert trace_path.exists()

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

    def test_get_reads_the_digest_as_32_bytes_of_hex(self, env, capsys):
        assert main(["artifact", "--store", env["store"], "get", "zz"]) == 2
        assert capsys.readouterr().err == (
            "error: artifact not available: digest: must be 32 bytes of hex, not 'zz'\n")

    def test_get_on_a_missing_store_creates_nothing(self, tmp_path, capsys):
        store = tmp_path / "nowhere"
        assert main(["artifact", "--store", str(store), "get", "00" * 32]) == 2
        assert not store.exists()


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


def test_a_cli_command_imports_neither_dataclasses_nor_inspect(env):
    """Records are built by codec.record, so a command's process never
    imports `dataclasses` or the `inspect` it pulls in."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, testingplus.cli\n"
        "rc = testingplus.cli.main(['query', '--store', sys.argv[1], 'state'])\n"
        "print(rc, sorted({'dataclasses', 'inspect'} & set(sys.modules)), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, env["store"]], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["height"] == 0
    assert proc.stderr.splitlines()[-1] == "0 []"


def test_a_json_input_is_read_as_utf8_whatever_the_locale(env):
    """JSON is UTF-8 (RFC 8259), so a submit under the C locale, with
    Python's UTF-8 mode off, reads non-ASCII text as a UTF-8 locale does."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    op = env["tmp"] / "note.json"
    op.write_bytes('{"op": "deploy_customer_agreement", "note": "é"}'.encode())
    proc = subprocess.run(
        [sys.executable, "-m", "testingplus.cli", "submit", str(op), "--store", env["store"],
         "--key", env["keys"]["customer"]],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path, LC_ALL="C", PYTHONUTF8="0"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["status"] == "Success"


def test_a_json_input_with_a_byte_order_mark_is_refused(env, capsys):
    op = env["tmp"] / "bom.json"
    op.write_bytes(b"\xef\xbb\xbf" + b'{"op": "deploy_customer_agreement"}')
    rc = main(["submit", str(op), "--store", env["store"], "--key", env["keys"]["customer"]])
    assert rc == 2
    assert "Unexpected UTF-8 BOM" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda g: g["validators"].append(g["validators"][0]),
    lambda g: g["accounts"][0].update(balance=-5),
    lambda g: g["accounts"][0].update(balance=2.9),
    lambda g: g.update(accounts=[5]),
    lambda g: [a.update(balance=2**63) for a in g["accounts"]],
    lambda g: g.update(chain_id=""),
    lambda g: g["accounts"][0].update(pubkey="ab"),
    lambda g: g["validators"].append("cd" * 20),
], ids=["duplicate-validator", "negative-balance", "fractional-balance",
        "account-not-an-object", "issuance-beyond-u64", "empty-chain-id",
        "one-byte-account-key", "short-validator-key"])
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


@pytest.mark.parametrize("edit,message", [
    (lambda g: g["accounts"][0].update(balance="1000"),
     "accounts[0].balance: must be a non-negative integer below 2**64, not '1000'"),
], ids=["balance"])
def test_genesis_balances_and_intervals_refuse_decimal_strings(tmp_path, env, capsys, edit, message):
    """In JSON a u64 is a JSON integer, never a string; `init` writes integers."""
    raw = json.loads((tmp_path / "genesis.json").read_text())
    edit(raw)
    bad = tmp_path / "bad_genesis.json"
    bad.write_text(json.dumps(raw))
    store = tmp_path / "s3"
    capsys.readouterr()
    assert main(["init", "--store", str(store), "--genesis", str(bad),
                 "--validator-key", env["keys"]["validator"]]) == 2
    assert capsys.readouterr().err == f"error: bad genesis file: {message}\n"
    assert not store.exists()


@pytest.mark.parametrize("timing", [
    {"empty_block_interval": 50, "timeout_ticks": 50},
    {"empty_block_interval": "soon", "timeout_ticks": -1},
    {"timeout_ticks": "40"},
], ids=["as-walkthroughs-wrote-it", "text-interval-negative-timeout", "decimal-string-timeout"])
def test_genesis_timing_keys_are_ignored_and_not_stored(tmp_path, env, timing):
    """Consensus timing is no genesis input: the keys older genesis files
    carry, valid or not, change nothing, and the store's genesis.json,
    byte for byte the one init writes without them, holds neither."""
    raw = json.loads((tmp_path / "genesis.json").read_text())
    old = tmp_path / "old_genesis.json"
    old.write_text(json.dumps({**raw, **timing}))
    store = tmp_path / "s5"
    assert main(["init", "--store", str(store), "--genesis", str(old),
                 "--validator-key", env["keys"]["validator"]]) == 0
    stored = (store / "genesis.json").read_bytes()
    assert stored == (Path(env["store"]) / "genesis.json").read_bytes()
    assert b"empty_block_interval" not in stored and b"timeout_ticks" not in stored


def test_a_store_genesis_with_timing_keys_loads_unchanged(env, capsys):
    """A store written before genesis.json lost its timing keys still
    loads, and reads as it would without them."""
    submit(env, "customer", {"op": "deploy_customer_agreement"}, capsys)
    capsys.readouterr()
    assert main(["query", "--store", env["store"], "state"]) == 0
    without = capsys.readouterr().out
    genesis = Path(env["store"]) / "genesis.json"
    raw = json.loads(genesis.read_text())
    genesis.write_text(json.dumps({**raw, "empty_block_interval": 50, "timeout_ticks": 50},
                                  indent=2, sort_keys=True))
    assert main(["query", "--store", env["store"], "state"]) == 0
    assert capsys.readouterr() == (without, "")


@pytest.mark.parametrize("edit", [
    lambda raw: "{",
    lambda raw: json.dumps({k: v for k, v in raw.items() if k != "chain_id"}),
    lambda raw: json.dumps({**raw, "validators": ["zz"]}),
    lambda raw: json.dumps({**raw, "validators": raw["validators"] * 2}),
], ids=["truncated", "missing-key", "bad-hex", "duplicate-validator"])
def test_unreadable_store_genesis_is_corruption(env, capsys, edit):
    """The store's own genesis.json is part of the store: a copy that no
    longer parses is corruption at height 0, not a traceback."""
    genesis = Path(env["store"]) / "genesis.json"
    genesis.write_text(edit(json.loads(genesis.read_text())))
    capsys.readouterr()
    assert main(["query", "--store", env["store"], "state"]) == 3
    assert capsys.readouterr().err.startswith(
        "store corruption: chain invalid at height 0: bad genesis.json: ")


# edits of a good key file, given a second actor's key file; each leaves a
# file whose secret, public key and address do not belong together
BAD_KEYS = {
    "short-secret": lambda key, other: {**key, "secret_key": "ab" * 5},
    "other-secret": lambda key, other: {**key, "secret_key": other["secret_key"]},
    "other-public-key": lambda key, other: {**key, "public_key": other["public_key"]},
    "other-address": lambda key, other: {**key, "address": other["address"]},
    "not-an-object": lambda key, other: [key],
}


def _bad_key(env, path, who, edit):
    key, other = (json.loads(Path(env["keys"][w]).read_text()) for w in (who, "tester"))
    path.write_text(json.dumps(edit(key, other)))
    return str(path)


@pytest.mark.parametrize("edit", BAD_KEYS.values(), ids=BAD_KEYS)
@pytest.mark.parametrize("role", ["sender", "store-sealer"])
def test_submit_checks_key_files_on_read(env, capsys, edit, role):
    """A sender key or the store's sealer key that does not derive from its
    secret is an input error; the intact store is left as it was."""
    store = Path(env["store"])
    if role == "sender":
        key = _bad_key(env, env["tmp"] / "bad.key", "customer", edit)
    else:
        key = env["keys"]["customer"]
        _bad_key(env, store / "validator_key.json", "validator", edit)
    chain_bin = store / "chain.bin"
    before = chain_bin.read_bytes()
    p = env["tmp"] / "p.json"
    p.write_text(json.dumps({"op": "deploy_customer_agreement"}))
    capsys.readouterr()
    assert main(["submit", str(p), "--store", env["store"], "--key", key]) == 2
    bad_path = key if role == "sender" else store / "validator_key.json"
    assert capsys.readouterr().err.startswith(f"error: cannot read key file {bad_path}: ")
    assert chain_bin.read_bytes() == before


@pytest.mark.parametrize("edit", BAD_KEYS.values(), ids=BAD_KEYS)
def test_init_checks_the_validator_key_on_read(env, capsys, edit):
    key = _bad_key(env, env["tmp"] / "bad.key", "validator", edit)
    store = env["tmp"] / "s2"
    capsys.readouterr()
    assert main(["init", "--store", str(store), "--genesis", env["genesis"],
                 "--validator-key", key]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read key file {key}: ")
    assert not store.exists()
