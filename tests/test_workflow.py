"""Test-case registry behaviors, compensation statements, audit trails, and
the content-addressed artifact store."""

import json
import random

import pytest

from testingplus.chain import Chain
from testingplus.cli import _print_json, _write_csv
from testingplus.codec import hash256, record_json
from testingplus.state import VERDICT_FAIL, VERDICT_PASS
from testingplus.tx import (
    CompleteTest,
    DeployAcceptanceTest,
    InitiateTest,
    PostFeedback,
    RecordExecution,
    RegisterTestCase,
)
from testingplus.vm import created_id
from testingplus.workflow import (
    ArtifactStore,
    AuditEvent,
    CompensationStatement,
    QueryError,
    audit_trail,
    compute_compensation,
)

from conftest import Actor, LocalChain, make_genesis
from oracles import rescan_compensation


def _contract(local, customer, developer, fee=0):
    _, tx = local.submit(
        customer, DeployAcceptanceTest(customer.address, developer.address, fee)
    )
    return created_id(tx.payload, tx.sender, tx.nonce)


def _case(local, customer, cid, expected=b"\x02" * 32, desc=b"case"):
    _, tx = local.submit(customer, RegisterTestCase(cid, desc, b"\x01" * 32, expected))
    return created_id(tx.payload, tx.sender, tx.nonce)


class TestRegistry:
    def test_register_records_metadata(self, local, customer, developer):
        cid = _contract(local, customer, developer)
        case_id = _case(local, customer, cid, desc=b"login form")
        case = local.chain.state.test_cases[case_id]
        assert case.description == b"login form"
        assert case.acceptance_contract == cid
        assert case.author == customer.address
        assert case.block_height == 2

    def test_register_against_unknown_contract_reverts(self, local, customer):
        receipt, _ = local.submit(
            customer, RegisterTestCase(b"\x0d" * 32, b"c", b"\x01" * 32, b"\x02" * 32)
        )
        assert receipt.reason == b"unknown contract"

    def test_execution_verdict_recomputed(self, local, customer, developer, tester):
        cid = _contract(local, customer, developer)
        case_id = _case(local, customer, cid, expected=b"\x09" * 32)
        local.submit(tester, RecordExecution(case_id, b"\x09" * 32))
        local.submit(tester, RecordExecution(case_id, b"\x08" * 32))
        verdicts = [e.verdict for e in local.chain.state.executions]
        assert verdicts == [VERDICT_PASS, VERDICT_FAIL]

    def test_execution_of_unknown_case_reverts(self, local, tester):
        receipt, _ = local.submit(tester, RecordExecution(b"\x0e" * 32, b"\x01" * 32))
        assert receipt.reason == b"unknown test case"

    def test_feedback_on_case_and_execution(self, local, customer, developer, tester):
        cid = _contract(local, customer, developer)
        case_id = _case(local, customer, cid)
        local.submit(tester, RecordExecution(case_id, b"\x02" * 32))
        exec_id = local.chain.state.executions[0].exec_id
        r1, _ = local.submit(developer, PostFeedback(case_id, b"flaky on ff"))
        r2, _ = local.submit(developer, PostFeedback(exec_id, b"repro confirmed"))
        assert r1.ok and r2.ok
        assert len(local.chain.state.feedbacks) == 2

    def test_feedback_on_unknown_subject_reverts(self, local, developer):
        receipt, _ = local.submit(developer, PostFeedback(b"\x0c" * 32, b"?"))
        assert receipt.reason == b"unknown subject"


class TestCompensation:
    def _run(self, local, customer, developer, tester, outcomes):
        cid = _contract(local, customer, developer)
        case_id = _case(local, customer, cid, expected=b"\x02" * 32)
        for ok in outcomes:
            actual = b"\x02" * 32 if ok else b"\xee" * 32
            local.submit(tester, RecordExecution(case_id, actual))
        return case_id

    def test_worked_example(self, local, customer, developer, tester):
        # 4 runs, 3 matching: 10*4 + 5*3 = 55
        self._run(local, customer, developer, tester, [True, True, False, True])
        s = compute_compensation(
            local.chain.state, tester.address, 0, local.chain.state.height, 10, 5
        )
        assert (s.executed, s.matched, s.amount) == (4, 3, 55)
        assert s.contribution_ppm == 1_000_000

    def test_two_testers_contribution_split(self, validator, customer, developer, tester):
        other = Actor(b"\x77" * 32)
        # the second tester may sign only as a genesis account; it needs no funds
        genesis = make_genesis(
            validator, [(customer, 1000), (developer, 200), (tester, 300), (other, 0)])
        local = LocalChain(Chain(genesis), validator)
        case_id = self._run(local, customer, developer, tester, [True, True, True])
        local.submit(other, RecordExecution(case_id, b"\x02" * 32))
        head = local.chain.state.height
        mine = compute_compensation(local.chain.state, tester.address, 0, head, 10, 5)
        theirs = compute_compensation(local.chain.state, other.address, 0, head, 10, 5)
        assert mine.contribution_ppm == 750_000
        assert theirs.contribution_ppm == 250_000

    def test_window_filters_heights(self, local, customer, developer, tester):
        self._run(local, customer, developer, tester, [True, True])
        # runs landed at heights 3 and 4 (deploy=1, register=2)
        s = compute_compensation(local.chain.state, tester.address, 4, 4, 10, 5)
        assert (s.executed, s.matched, s.amount) == (1, 1, 15)

    def test_empty_window_zeroes(self, local, tester):
        s = compute_compensation(local.chain.state, tester.address, 0, 0, 10, 5)
        assert (s.executed, s.matched, s.amount, s.contribution_ppm) == (0, 0, 0, 0)

    def test_window_beyond_head_raises(self, local, tester):
        with pytest.raises(QueryError, match="window beyond head"):
            compute_compensation(
                local.chain.state, tester.address, 0, local.chain.state.height + 1, 1, 1
            )
        with pytest.raises(QueryError, match="window start 3 is after its end 2"):
            compute_compensation(local.chain.state, tester.address, 3, 2, 1, 1)

    def test_overflow_raises(self, local, customer, developer, tester):
        self._run(local, customer, developer, tester, [True])
        with pytest.raises(QueryError, match="compensation amount exceeds u64"):
            compute_compensation(
                local.chain.state, tester.address, 0, local.chain.state.height, 2**64, 0
            )

    def test_json_and_csv_round(self, capsys, local, customer, developer, tester):
        self._run(local, customer, developer, tester, [True])
        s = compute_compensation(
            local.chain.state, tester.address, 0, local.chain.state.height, 10, 5
        )
        _print_json(record_json(s))
        d = json.loads(capsys.readouterr().out)
        assert d["amount"] == 15 and d["tester"] == tester.address.hex()
        _write_csv(CompensationStatement, [s])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("tester,") and len(lines) == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_rescan_oracle(self, seed, local, customer, developer, tester):
        """The statement equals a brute-force rescan over the raw payloads."""
        rng = random.Random(seed)
        cid = _contract(local, customer, developer)
        log = []
        cases = []
        for _ in range(rng.randrange(3, 12)):
            if not cases or rng.random() < 0.3:
                expected = bytes([rng.randrange(256)]) * 32
                _, tx = local.submit(
                    customer, RegisterTestCase(cid, b"c", b"\x01" * 32, expected)
                )
                case_id = created_id(tx.payload, tx.sender, tx.nonce)
                cases.append((case_id, expected))
                log.append((local.chain.state.height, customer.address, "register", (case_id, expected)))
            else:
                case_id, expected = rng.choice(cases)
                actual = expected if rng.random() < 0.6 else b"\xde" * 32
                local.submit(tester, RecordExecution(case_id, actual))
                log.append((local.chain.state.height, tester.address, "execute", (case_id, actual)))
        head = local.chain.state.height
        lo = rng.randrange(0, head + 1)
        hi = rng.randrange(lo, head + 1)
        s = compute_compensation(local.chain.state, tester.address, lo, hi, 10, 5)
        assert (s.executed, s.matched, s.amount, s.contribution_ppm) == (
            rescan_compensation(log, tester.address, lo, hi, 10, 5)
        )


class TestAuditTrail:
    def _build(self, local, customer, developer, tester):
        cid = _contract(local, customer, developer, fee=50)
        case_id = _case(local, customer, cid)
        local.submit(customer, InitiateTest(cid), value=50)
        local.submit(tester, RecordExecution(case_id, b"\x02" * 32))
        exec_id = local.chain.state.executions[0].exec_id
        local.submit(developer, PostFeedback(exec_id, b"looks right"))
        local.submit(developer, CompleteTest(cid))
        return case_id

    def test_event_order_and_kinds(self, local, customer, developer, tester):
        case_id = self._build(local, customer, developer, tester)
        events = audit_trail(local.chain.state, case_id)
        assert [e.kind for e in events] == ["register", "execute", "feedback", "settle"]
        heights = [e.block_height for e in events]
        assert heights == sorted(heights)
        assert events[0].actor == customer.address
        assert events[1].actor == tester.address
        assert events[-1].actor == developer.address

    def test_unknown_case_raises(self, local):
        with pytest.raises(QueryError, match="unknown test case " + "0b" * 32):
            audit_trail(local.chain.state, b"\x0b" * 32)

    def test_other_cases_excluded(self, local, customer, developer, tester):
        cid = _contract(local, customer, developer)
        a = _case(local, customer, cid, expected=b"\x02" * 32)
        b = _case(local, customer, cid, expected=b"\x03" * 32)
        local.submit(tester, RecordExecution(a, b"\x02" * 32))
        local.submit(tester, RecordExecution(b, b"\x03" * 32))
        assert len(audit_trail(local.chain.state, a)) == 2  # register + execute

    def test_exports(self, capsys, local, customer, developer, tester):
        case_id = self._build(local, customer, developer, tester)
        events = audit_trail(local.chain.state, case_id)
        _print_json([record_json(e) for e in events])
        parsed = json.loads(capsys.readouterr().out)
        assert [p["kind"] for p in parsed] == [e.kind for e in events]
        _write_csv(AuditEvent, events)
        csv_lines = capsys.readouterr().out.splitlines()
        assert csv_lines[0] == "kind,tick,block_height,actor,tx_hash"
        assert len(csv_lines) == len(events) + 1


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        digest = store.put(b"console log text")
        assert digest == hash256(b"console log text")
        assert store.get(digest) == b"console log text"
        assert (store.root / digest.hex()).exists()

    def test_put_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        d1 = store.put(b"x")
        d2 = store.put(b"x")
        assert d1 == d2
        assert len(list(store.root.iterdir())) == 1

    def test_put_replaces_a_torn_earlier_write(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = hash256(b"console log text")
        (store.root / digest.hex()).write_bytes(b"console")
        assert store.put(b"console log text") == digest
        assert store.get(digest) == b"console log text"
        assert [p.name for p in store.root.iterdir()] == [digest.hex()]

    def test_read_of_a_missing_store_creates_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "nowhere" / "artifacts")
        with pytest.raises(FileNotFoundError):
            store.get(hash256(b"never stored"))
        assert not (store.root / hash256(b"never stored").hex()).exists()
        assert list(tmp_path.iterdir()) == []

    def test_missing_artifact(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(FileNotFoundError):
            store.get(hash256(b"never stored"))
        assert not (store.root / hash256(b"never stored").hex()).exists()

    def test_tampered_artifact_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put(b"original")
        (store.root / digest.hex()).write_bytes(b"tampered")
        with pytest.raises(ValueError, match="fails its digest"):
            store.get(digest)


def test_statement_and_audit_exports_are_pinned(capsys):
    """What `query compensation` and `query audit` print, JSON and CSV."""
    def printed(write, *args):
        write(*args)
        return capsys.readouterr().out

    s = CompensationStatement(b"\xab" * 2, 1, 9, 4, 3, 55, 250000)
    assert json.loads(printed(_print_json, record_json(s))) == {
        "tester": "abab", "from_height": 1, "to_height": 9, "executed": 4, "matched": 3,
        "amount": 55, "contribution_ppm": 250000,
    }
    assert printed(_write_csv, CompensationStatement, [s]) == (
        "tester,from_height,to_height,executed,matched,amount,contribution_ppm\n"
        "abab,1,9,4,3,55,250000\n")
    events = [AuditEvent("register", 3, 1, b"\x01", b"\x02"),
              AuditEvent("settle", 8, 2, b"\x03", b"\x04")]
    assert printed(_print_json, [record_json(e) for e in events]) == (
        '[{"actor": "01", "block_height": 1, "kind": "register", "tick": 3, "tx_hash": "02"}, '
        '{"actor": "03", "block_height": 2, "kind": "settle", "tick": 8, "tx_hash": "04"}]\n'
    )
    assert printed(_write_csv, AuditEvent, events) == ("kind,tick,block_height,actor,tx_hash\n"
                                                       "register,3,1,01,02\nsettle,8,2,03,04\n")
    assert printed(_write_csv, AuditEvent, []) == "kind,tick,block_height,actor,tx_hash\n"
