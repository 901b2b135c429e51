"""End-to-end acceptance suite.

Each test covers one release criterion, prints a single pass/fail line with
its runtime, and enforces the criterion's time budget.
"""

import random
import sys
import time

import pytest

from testingplus.block import Block
from testingplus.chain import Chain, CorruptChainError, verify_chain
from testingplus.codec import DecodeError, Reader
from testingplus.metrics import CSV_HEADER, SweepSpec, run_sweep
from testingplus.sim import SimScenario, run_simulation
from testingplus.state import VERDICT_PASS
from testingplus.tx import (
    CompleteTest,
    DeployAcceptanceTest,
    DeployCustomerAgreement,
    DeployDeveloperAgreement,
    InitiateTest,
    RecordExecution,
    RegisterTestCase,
    SetReward,
    SetTestingFee,
    Transaction,
)
from testingplus.vm import apply_transaction, created_id

from conftest import Actor, LocalChain, TraceDigests, fixture_hex, make_genesis
from oracles import manual_created_id, rescan_compensation, total_currency
from test_vm import _apply_ops, _fresh_state, _random_workload

VALIDATOR = Actor(b"\x11" * 32)
CUSTOMER = Actor(b"\x22" * 32)
DEVELOPER = Actor(b"\x33" * 32)
TESTER = Actor(b"\x44" * 32)


def fresh_local():
    g = make_genesis(VALIDATOR, [(CUSTOMER, 1000), (DEVELOPER, 200), (TESTER, 300)])
    return LocalChain(Chain(g), VALIDATOR)


def run_criterion(label, budget_s, body, capfd=None):
    start = time.monotonic()
    ok = False
    try:
        body()
        ok = True
    finally:
        elapsed = time.monotonic() - start
        line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / budget {budget_s}s)\n"
        if capfd is not None:
            with capfd.disabled():
                sys.stdout.write(line)
                sys.stdout.flush()
        else:
            sys.stdout.write(line)
    assert elapsed < budget_s, f"{label} exceeded its {budget_s}s budget ({elapsed:.2f}s)"


# -- criterion 1: contract conformance ---------------------------------------


def test_criterion_1_contract_conformance(capfd):
    def body():
        # each row: ops leading up to the probe, then the probe itself with its
        # expected outcome; ids are resolved from earlier rows via indices
        def deploy_ca(local):
            _, tx = local.submit(CUSTOMER, DeployCustomerAgreement())
            return created_id(tx.payload, tx.sender, tx.nonce)

        def deploy_da(local):
            _, tx = local.submit(DEVELOPER, DeployDeveloperAgreement())
            return created_id(tx.payload, tx.sender, tx.nonce)

        def deploy_at(local, fee=100):
            _, tx = local.submit(
                CUSTOMER, DeployAcceptanceTest(CUSTOMER.address, DEVELOPER.address, fee)
            )
            return created_id(tx.payload, tx.sender, tx.nonce)

        table = [
            # (setup, actor, payload_fn, value, status, reason)
            ("ca", CUSTOMER, lambda cid: SetTestingFee(cid, 40), 0, "Success", b""),
            ("ca", DEVELOPER, lambda cid: SetTestingFee(cid, 40), 0,
             "Reverted", b"Only customer can set the fee"),
            ("da", DEVELOPER, lambda cid: SetReward(cid, 60), 0, "Success", b""),
            ("da", CUSTOMER, lambda cid: SetReward(cid, 60), 0,
             "Reverted", b"Only developer can set the reward"),
            ("at", CUSTOMER, lambda cid: InitiateTest(cid), 100, "Success", b""),
            ("at", DEVELOPER, lambda cid: InitiateTest(cid), 100,
             "Reverted", b"Only customer can initiate the acceptance test"),
            ("at", CUSTOMER, lambda cid: InitiateTest(cid), 99,
             "Reverted", b"Testing fee should be paid"),
            ("at_funded", DEVELOPER, lambda cid: CompleteTest(cid), 0, "Success", b""),
            ("at_funded", CUSTOMER, lambda cid: CompleteTest(cid), 0,
             "Reverted", b"Only developer can complete the acceptance test"),
        ]
        for setup, actor, payload_fn, value, status, reason in table:
            local = fresh_local()
            if setup == "ca":
                cid = deploy_ca(local)
            elif setup == "da":
                cid = deploy_da(local)
            elif setup == "at":
                cid = deploy_at(local)
            else:
                cid = deploy_at(local)
                r, _ = local.submit(CUSTOMER, InitiateTest(cid), value=100)
                assert r.ok
            receipt, _ = local.submit(actor, payload_fn(cid), value=value)
            assert (receipt.status, receipt.reason) == (status, reason), (
                f"{setup}/{actor.address.hex()[:8]} expected {status}/{reason!r}, "
                f"got {receipt.status}/{receipt.reason!r}"
            )

        # settlement effect of the completing transfer
        local = fresh_local()
        cid = deploy_at(local)
        local.submit(CUSTOMER, InitiateTest(cid), value=100)
        dev_before = local.chain.state.accounts[DEVELOPER.address].balance
        receipt, _ = local.submit(DEVELOPER, CompleteTest(cid))
        assert receipt.ok
        t = local.chain.state.acceptance_tests[cid]
        assert local.chain.state.accounts[DEVELOPER.address].balance == dev_before + 100
        assert t.escrow == 0
        assert t.is_test_completed

    run_criterion("1 contract conformance", 1.0, body, capfd)


# -- criterion 2: tamper evidence --------------------------------------------


def test_criterion_2_tamper_evidence(capfd):
    def body():
        local = fresh_local()
        rng = random.Random(20)
        actors = {0: CUSTOMER, 1: DEVELOPER, 2: TESTER}
        for _ in range(19):  # 19 sealed blocks + genesis = 20-block chain
            local.submit(actors[rng.randrange(3)], DeployCustomerAgreement())
        chain = local.chain
        assert len(chain.blocks) == 20
        assert verify_chain(chain.blocks, chain.validators, chain.pubkeys) is None

        flagged = 0
        trials = 0
        while flagged < 1000:
            trials += 1
            assert trials < 5000, "mutation generator stalled"
            blocks = list(chain.blocks)
            h = rng.randrange(1, len(blocks))
            enc = bytearray(blocks[h].encode())
            pos = rng.randrange(len(enc))
            enc[pos] ^= 1 << rng.randrange(8)
            try:
                r = Reader(bytes(enc))
                mutated = Block.decode(r)
                r.expect_end()
            except DecodeError:
                continue
            if mutated == blocks[h]:
                continue
            blocks[h] = mutated
            try:
                verify_chain(blocks, chain.validators, chain.pubkeys)
            except CorruptChainError as err:
                assert err.height <= h
            else:
                pytest.fail(f"mutation at height {h} byte {pos} undetected")
            flagged += 1

    run_criterion("2 tamper evidence (1000 mutations)", 10.0, body, capfd)


# -- criterion 3: determinism / replay ---------------------------------------


def test_criterion_3_determinism_replay(capfd):
    def body():
        for seed in range(100):
            rng = random.Random(seed)
            actors = [Actor(bytes([i + 1]) * 32) for i in range(3)]
            ops = _random_workload(rng, actors, n_ops=25)
            roots = []
            for _ in range(2):
                state = _fresh_state(actors, [700, 700, 700])
                _apply_ops(state, ops)
                roots.append(state.root())
            assert roots[0] == roots[1], f"replay diverged for log {seed}"

        # reordering two conflicting transactions changes the root
        who = Actor(b"\x05" * 32)
        deploy = Transaction(who.address, 0, DeployCustomerAgreement(), 0, b"s")
        cid = created_id(deploy.payload, deploy.sender, deploy.nonce)
        fee_a = Transaction(who.address, 1, SetTestingFee(cid, 100), 0, b"s")
        fee_b = Transaction(who.address, 2, SetTestingFee(cid, 200), 0, b"s")
        s1 = _fresh_state([who], [100])
        s2 = _fresh_state([who], [100])
        for tx in (deploy, fee_a, fee_b):
            apply_transaction(s1, tx)
        for tx in (deploy, fee_b, fee_a):
            apply_transaction(s2, tx)
        assert s1.root() != s2.root()

    run_criterion("3 determinism/replay (100 logs x2)", 30.0, body, capfd)


# -- criterion 4: currency conservation --------------------------------------


def test_criterion_4_currency_conservation(capfd):
    def body():
        for seed in range(100):
            rng = random.Random(40_000 + seed)
            actors = [Actor(bytes([i + 1]) * 32) for i in range(3)]
            state = _fresh_state(actors, [rng.randrange(2000) for _ in actors])
            issuance = total_currency(state)
            ops = _random_workload(rng, actors, n_ops=30)
            for i in range(len(ops)):
                _apply_ops(state, ops[i : i + 1])
                assert total_currency(state) == issuance, (
                    f"conservation broken in run {seed} after op {i}"
                )

    run_criterion("4 currency conservation (100 runs)", 60.0, body, capfd)


# -- criterion 5: consensus safety and liveness ------------------------------


def _random_fault_scenario(seed):
    rng = random.Random(seed)
    n = rng.choice([4, 7])
    max_crash = (n - 1) // 3  # strictly fewer than n/3 crash faults
    crash_nodes = rng.sample(range(n), rng.randrange(0, max_crash + 1))
    partitions = []
    if rng.random() < 0.5:
        cut = rng.randrange(1, n)
        nodes = list(range(n))
        rng.shuffle(nodes)
        start = rng.randrange(50, 150)
        partitions.append({
            "from_tick": start,
            "to_tick": start + rng.randrange(50, 200),
            "sides": [sorted(nodes[:cut]), sorted(nodes[cut:])],
        })
    return {
        "seed": seed,
        "n_validators": n,
        "latency": [1, 3],
        "drop_probability": round(rng.uniform(0.0, 0.2), 3),
        "partitions": partitions,
        "crash_faults": [
            {"node": node, "tick": rng.randrange(150, 650)} for node in crash_nodes
        ],
        "accounts": [1000, 1000],
        "max_ticks": 700,
        "workload": [
            {"tick": 5, "sender": 0, "op": "deploy_customer_agreement"},
            {"tick": 15, "sender": 0, "op": "set_testing_fee", "contract": {"ref": 0}, "fee": 9},
            {"tick": 25, "sender": 1, "op": "deploy_developer_agreement"},
        ],
    }


def test_criterion_5_consensus_safety_liveness(capfd):
    # every byte of the 200 traces, in order, full and masked: a change to
    # message scheduling that alters any of them fails here
    digests = TraceDigests()

    def body():
        for seed in range(200):
            scenario = SimScenario.from_dict(_random_fault_scenario(seed))
            trace = run_simulation(scenario)
            digests.update(trace.events)
            by_height = {}
            for e in trace.events:
                if e["type"] == "commit":
                    prev = by_height.setdefault(e["h"], e["hash"])
                    assert prev == e["hash"], (
                        f"scenario {seed}: conflicting commits at height {e['h']}"
                    )
            summary = trace.summary
            assert summary["truncated"] is False, (
                f"scenario {seed}: a live node missed submitted transactions"
            )
            live = [n for n in summary["nodes"] if not n["crashed"]]
            assert len({n["state_root"] for n in live}) == 1, (
                f"scenario {seed}: live nodes diverged"
            )

    run_criterion("5 consensus safety+liveness (200 scenarios)", 300.0, body, capfd)
    assert digests.full.digest() == fixture_hex("sim_trace_criterion5.hex")
    assert digests.masked.digest() == fixture_hex("sim_trace_criterion5_masked.hex")


# -- criterion 6: workflow oracle equivalence --------------------------------


def test_criterion_6_workflow_oracle_equivalence(capfd):
    from testingplus.workflow import compute_compensation

    def body():
        for seed in range(100):
            rng = random.Random(60_000 + seed)
            local = fresh_local()
            _, tx = local.submit(
                CUSTOMER, DeployAcceptanceTest(CUSTOMER.address, DEVELOPER.address, 0)
            )
            cid = created_id(tx.payload, tx.sender, tx.nonce)
            cases = []
            for _ in range(rng.randrange(2, 10)):
                if not cases or rng.random() < 0.35:
                    expected = bytes([rng.randrange(256)]) * 32
                    _, tx = local.submit(
                        CUSTOMER, RegisterTestCase(cid, b"c", b"\x01" * 32, expected)
                    )
                    cases.append(created_id(tx.payload, tx.sender, tx.nonce))
                else:
                    case_id = rng.choice(cases)
                    actual = bytes([rng.randrange(256)]) * 32
                    local.submit(
                        rng.choice([TESTER, DEVELOPER]), RecordExecution(case_id, actual)
                    )

            # raw chain dump: decode every committed payload back out of the blocks
            dump = []
            expected_by_case = {}
            for block in local.chain.blocks:
                for btx in block.transactions:
                    p = btx.payload
                    if isinstance(p, RegisterTestCase):
                        case_id = manual_created_id(p, btx.sender, btx.nonce)
                        expected_by_case[case_id] = p.expected_output_digest
                        dump.append((block.header.height, btx.sender, "register",
                                     (case_id, p.expected_output_digest)))
                    elif isinstance(p, RecordExecution):
                        dump.append((block.header.height, btx.sender, "execute",
                                     (p.case_id, p.actual_output_digest)))

            state = local.chain.state
            head = state.height
            lo = rng.randrange(0, head + 1)
            hi = rng.randrange(lo, head + 1)
            base, bonus = rng.randrange(1, 20), rng.randrange(0, 10)
            stmt = compute_compensation(state, TESTER.address, lo, hi, base, bonus)
            oracle = rescan_compensation(dump, TESTER.address, lo, hi, base, bonus)
            assert (stmt.executed, stmt.matched, stmt.amount, stmt.contribution_ppm) == oracle, (
                f"scenario {seed}: statement disagrees with rescan oracle"
            )
            # verdict assignment must match the oracle's recomputation
            for e in state.executions:
                should_pass = e.actual_output_digest == expected_by_case[e.case_id]
                assert (e.verdict == VERDICT_PASS) == should_pass, (
                    f"scenario {seed}: verdict mismatch for {e.exec_id.hex()[:8]}"
                )

    run_criterion("6 workflow oracle equivalence (100 scenarios)", 120.0, body, capfd)


# -- criterion 7: settlement gating ------------------------------------------


def test_criterion_7_settlement_gating(capfd):
    def body():
        # per-case execution outcome alphabets: P = matching run, F = mismatch
        outcomes = ["", "F", "P", "FF", "FP", "PP", "FFF", "FFP"]
        import itertools

        checked = 0
        for n_cases in range(0, 4 + 1):
            alphabet = outcomes if n_cases <= 3 else ["", "F", "P", "FP"]
            for combo in itertools.product(alphabet, repeat=n_cases):
                actors = [CUSTOMER, DEVELOPER, TESTER]
                state = _fresh_state(actors, [500, 500, 500])
                deploy = DeployAcceptanceTest(CUSTOMER.address, DEVELOPER.address, 50)
                _apply_ops(state, [(CUSTOMER, deploy, 0, "x")])
                cid = created_id(deploy, CUSTOMER.address, 0)
                _apply_ops(state, [(CUSTOMER, InitiateTest(cid), 50, "x")])
                expected = b"\x02" * 32
                for runs in combo:
                    nonce = state.accounts[CUSTOMER.address].nonce
                    register = RegisterTestCase(cid, b"c", b"\x01" * 32, expected)
                    _apply_ops(state, [(CUSTOMER, register, 0, "x")])
                    case_id = created_id(register, CUSTOMER.address, nonce)
                    for r in runs:
                        actual = expected if r == "P" else b"\xee" * 32
                        _apply_ops(state, [(TESTER, RecordExecution(case_id, actual), 0, "x")])
                receipts = _apply_ops(state, [(DEVELOPER, CompleteTest(cid), 0, "x")])
                should_succeed = all("P" in runs for runs in combo)
                assert receipts[0].ok == should_succeed, (
                    f"cases {combo}: completion {'succeeded' if receipts[0].ok else 'failed'}"
                    f" but oracle says {'allowed' if should_succeed else 'blocked'}"
                )
                if not should_succeed:
                    assert receipts[0].reason == b"results not verified"
                checked += 1
        assert checked > 500  # exhaustive table actually enumerated

    run_criterion("7 settlement gating (truth table)", 60.0, body, capfd)


# -- criterion 8: harness sweeps ---------------------------------------------


def test_criterion_8_harness_sweeps(capfd):
    import csv
    import io

    def body():
        base = {
            "seed": 80,
            "n_validators": 4,
            "latency": [1, 2],
            "drop_probability": 0.0,
            "accounts": [1000],
            "max_ticks": 400,
            "workload": [
                {"tick": 1 + 15 * i, "sender": 0, "op": "deploy_customer_agreement"}
                for i in range(6)
            ],
        }
        spec = SweepSpec.from_dict(
            {"base": base, "axis": "n_validators", "values": [1, 4, 8, 16]}
        )
        rows = list(csv.reader(io.StringIO(run_sweep(spec))))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 5
        for row in rows[1:]:
            assert len(row) == len(CSV_HEADER) and row[4] == "ok"
            assert int(row[6]) + int(row[7]) == int(row[5])
            float(row[8])  # throughput parses

        drop_spec = SweepSpec.from_dict(
            {"base": dict(base, max_ticks=900), "axis": "drop_probability",
             "values": [0.0, 0.3], "repetitions": 3}
        )
        rows = list(csv.reader(io.StringIO(run_sweep(drop_spec))))[1:]
        tp = {}
        for row in rows:
            tp.setdefault(row[1], []).append(float(row[8]))
        mean = {k: sum(v) / len(v) for k, v in tp.items()}
        assert mean["0.0"] >= mean["0.3"], f"throughput not monotone: {mean}"

    run_criterion("8 harness sweeps {1,4,8,16} + drop monotonicity", 60.0, body, capfd)
