"""Contract semantics: the three agreement contracts, nonce sequencing,
revert atomicity, currency conservation, and determinism."""

import random

import pytest

from testingplus.state import WorldState
from testingplus.tx import (
    CompleteTest,
    DeployAcceptanceTest,
    DeployCustomerAgreement,
    DeployDeveloperAgreement,
    InitiateTest,
    PostFeedback,
    RecordExecution,
    RegisterTestCase,
    SetReward,
    SetTestingFee,
    Transaction,
)
from testingplus import vm
from testingplus.vm import apply_transaction, created_id

from conftest import Actor
from oracles import total_currency


def balance(local, actor):
    return local.chain.state.accounts[actor.address].balance


def deploy_acceptance(local, customer, developer, fee):
    receipt, tx = local.submit(
        customer, DeployAcceptanceTest(customer.address, developer.address, fee)
    )
    assert receipt.ok
    return created_id(tx.payload, tx.sender, tx.nonce)


class TestCustomerAgreement:
    def test_deploy_sets_customer_and_zero_fee(self, local, customer):
        receipt, tx = local.submit(customer, DeployCustomerAgreement())
        assert receipt.ok
        cid = created_id(tx.payload, tx.sender, tx.nonce)
        c = local.chain.state.customer_agreements[cid]
        assert c.customer == customer.address
        assert c.testing_fee == 0

    def test_two_deploys_get_distinct_ids(self, local, customer):
        _, t1 = local.submit(customer, DeployCustomerAgreement())
        _, t2 = local.submit(customer, DeployCustomerAgreement())
        assert len(local.chain.state.customer_agreements) == 2

    def test_customer_sets_fee(self, local, customer):
        _, tx = local.submit(customer, DeployCustomerAgreement())
        cid = created_id(tx.payload, tx.sender, tx.nonce)
        receipt, _ = local.submit(customer, SetTestingFee(cid, 100))
        assert receipt.ok
        assert local.chain.state.customer_agreements[cid].testing_fee == 100

    def test_non_customer_cannot_set_fee(self, local, customer, developer):
        _, tx = local.submit(customer, DeployCustomerAgreement())
        cid = created_id(tx.payload, tx.sender, tx.nonce)
        receipt, _ = local.submit(developer, SetTestingFee(cid, 100))
        assert receipt.status == "Reverted"
        assert receipt.reason == b"Only customer can set the fee"
        assert local.chain.state.customer_agreements[cid].testing_fee == 0

    def test_zero_fee_permitted(self, local, customer):
        _, tx = local.submit(customer, DeployCustomerAgreement())
        cid = created_id(tx.payload, tx.sender, tx.nonce)
        receipt, _ = local.submit(customer, SetTestingFee(cid, 0))
        assert receipt.ok

    def test_unknown_contract(self, local, customer):
        receipt, _ = local.submit(customer, SetTestingFee(b"\x0f" * 32, 5))
        assert receipt.reason == b"unknown contract"


class TestDeveloperAgreement:
    def test_developer_sets_reward(self, local, developer):
        _, tx = local.submit(developer, DeployDeveloperAgreement())
        cid = created_id(tx.payload, tx.sender, tx.nonce)
        assert local.chain.state.developer_agreements[cid].reward == 0
        receipt, _ = local.submit(developer, SetReward(cid, 50))
        assert receipt.ok
        assert local.chain.state.developer_agreements[cid].reward == 50

    def test_non_developer_cannot_set_reward(self, local, customer, developer):
        _, tx = local.submit(developer, DeployDeveloperAgreement())
        cid = created_id(tx.payload, tx.sender, tx.nonce)
        receipt, _ = local.submit(customer, SetReward(cid, 50))
        assert receipt.status == "Reverted"
        assert receipt.reason == b"Only developer can set the reward"


class TestAcceptanceTest:
    def test_constructor_fields(self, local, customer, developer):
        cid = deploy_acceptance(local, customer, developer, 100)
        t = local.chain.state.acceptance_tests[cid]
        assert (t.customer, t.developer, t.testing_fee) == (
            customer.address, developer.address, 100,
        )
        assert t.escrow == 0 and not t.is_test_completed

    def test_customer_may_equal_developer(self, local, customer):
        receipt, _ = local.submit(
            customer, DeployAcceptanceTest(customer.address, customer.address, 10)
        )
        assert receipt.ok

    def test_unknown_party_rejected(self, local, customer):
        receipt, _ = local.submit(
            customer, DeployAcceptanceTest(customer.address, b"\x42" * 20, 10)
        )
        assert receipt.reason == b"unknown account"

    def test_initiate_escrows_fee(self, local, customer, developer):
        cid = deploy_acceptance(local, customer, developer, 100)
        before = balance(local, customer)
        receipt, _ = local.submit(customer, InitiateTest(cid), value=100)
        assert receipt.ok
        assert balance(local, customer) == before - 100
        assert local.chain.state.acceptance_tests[cid].escrow == 100

    def test_only_customer_initiates(self, local, customer, developer):
        cid = deploy_acceptance(local, customer, developer, 100)
        receipt, _ = local.submit(developer, InitiateTest(cid), value=100)
        assert receipt.reason == b"Only customer can initiate the acceptance test"

    def test_wrong_value_rejected(self, local, customer, developer):
        cid = deploy_acceptance(local, customer, developer, 100)
        receipt, _ = local.submit(customer, InitiateTest(cid), value=99)
        assert receipt.reason == b"Testing fee should be paid"

    def test_insufficient_balance(self, local, customer, developer):
        cid = deploy_acceptance(local, customer, developer, 5000)
        receipt, _ = local.submit(customer, InitiateTest(cid), value=5000)
        assert receipt.reason == b"insufficient balance"

    def test_refunding_while_escrowed_rejected(self, local, customer, developer):
        cid = deploy_acceptance(local, customer, developer, 100)
        local.submit(customer, InitiateTest(cid), value=100)
        receipt, _ = local.submit(customer, InitiateTest(cid), value=100)
        assert receipt.reason == b"test already funded"

    def test_zero_fee_initiation(self, local, customer, developer):
        cid = deploy_acceptance(local, customer, developer, 0)
        receipt, _ = local.submit(customer, InitiateTest(cid), value=0)
        assert receipt.ok

    def test_complete_pays_developer(self, local, customer, developer, tester):
        cid = deploy_acceptance(local, customer, developer, 100)
        local.submit(customer, InitiateTest(cid), value=100)
        _, reg = local.submit(
            customer, RegisterTestCase(cid, b"case", b"\x01" * 32, b"\x02" * 32)
        )
        case_id = created_id(reg.payload, reg.sender, reg.nonce)
        local.submit(tester, RecordExecution(case_id, b"\x02" * 32))
        before = balance(local, developer)
        receipt, _ = local.submit(developer, CompleteTest(cid))
        assert receipt.ok
        t = local.chain.state.acceptance_tests[cid]
        assert t.is_test_completed and t.escrow == 0
        assert balance(local, developer) == before + 100

    def test_only_developer_completes(self, local, customer, developer):
        cid = deploy_acceptance(local, customer, developer, 100)
        local.submit(customer, InitiateTest(cid), value=100)
        receipt, _ = local.submit(customer, CompleteTest(cid))
        assert receipt.reason == b"Only developer can complete the acceptance test"

    def test_unfunded_completion_rejected(self, local, customer, developer):
        cid = deploy_acceptance(local, customer, developer, 100)
        receipt, _ = local.submit(developer, CompleteTest(cid))
        assert receipt.reason == b"test not funded"

    def test_completion_gated_on_pass_verdicts(self, local, customer, developer, tester):
        cid = deploy_acceptance(local, customer, developer, 100)
        local.submit(customer, InitiateTest(cid), value=100)
        _, reg = local.submit(
            customer, RegisterTestCase(cid, b"case", b"\x01" * 32, b"\x02" * 32)
        )
        case_id = created_id(reg.payload, reg.sender, reg.nonce)
        local.submit(tester, RecordExecution(case_id, b"\xff" * 32))  # Fail verdict
        receipt, _ = local.submit(developer, CompleteTest(cid))
        assert receipt.reason == b"results not verified"
        # a later passing run unlocks settlement
        local.submit(tester, RecordExecution(case_id, b"\x02" * 32))
        receipt, _ = local.submit(developer, CompleteTest(cid))
        assert receipt.ok

    def test_reinitiation_after_completion_rejected(self, local, customer, developer):
        cid = deploy_acceptance(local, customer, developer, 100)
        local.submit(customer, InitiateTest(cid), value=100)
        receipt, _ = local.submit(developer, CompleteTest(cid))
        assert receipt.ok
        receipt, _ = local.submit(customer, InitiateTest(cid), value=100)
        assert receipt.reason == b"test already completed"
        assert local.chain.state.acceptance_tests[cid].is_test_completed


class TestApplyTransaction:
    def test_nonce_sequence(self, local, customer):
        receipt, _ = local.submit(customer, DeployCustomerAgreement(), nonce=0)
        assert receipt.ok
        assert local.chain.state.accounts[customer.address].nonce == 1

    def test_replay_reverts_without_nonce_bump(self, local, customer):
        local.submit(customer, DeployCustomerAgreement(), nonce=0)
        receipt, _ = local.submit(customer, DeployCustomerAgreement(), nonce=0)
        assert receipt.reason == b"bad nonce"
        assert local.chain.state.accounts[customer.address].nonce == 1

    def test_reverted_tx_changes_nothing_but_nonce(self, local, customer):
        pre = local.chain.state.copy()
        receipt, _ = local.submit(customer, SetTestingFee(b"\x0a" * 32, 3))
        assert receipt.status == "Reverted"
        post = local.chain.state
        pre.bump_nonce(customer.address)
        pre.height = post.height
        assert pre.root() == post.root()

    def test_value_on_non_initiate_rejected(self, local, customer):
        receipt, _ = local.submit(customer, DeployCustomerAgreement(), value=5)
        assert receipt.reason == b"value not accepted"

    def test_oversize_payload_rejected(self, local, customer, developer):
        cid = deploy_acceptance(local, customer, developer, 10)
        big = b"x" * (vm.MAX_TEXT_BYTES + 1)
        receipt, _ = local.submit(
            customer, RegisterTestCase(cid, big, b"\x01" * 32, b"\x02" * 32)
        )
        assert receipt.reason == b"payload too large"


def _fee_with_id_of(length):
    """A SetTestingFee whose contract id is `length` bytes: its encoding is
    the tag, the id's length prefix and the id, then the u64 fee."""
    return SetTestingFee(b"\x0f" * length, 5)


class TestRevertRules:
    """Each limit at its edge and each pair of checks in its order, so that a
    refactor of the VM keeps every receipt's reason."""

    def test_value_of_one_on_a_non_initiate_payload_rejected(self, local, customer):
        receipt, _ = local.submit(customer, DeployCustomerAgreement(), value=1)
        assert receipt.reason == b"value not accepted"

    def test_description_of_exactly_max_text_bytes_accepted(self, local, customer, developer):
        cid = deploy_acceptance(local, customer, developer, 10)
        text = b"x" * vm.MAX_TEXT_BYTES
        receipt, _ = local.submit(customer, RegisterTestCase(cid, text, b"\x01" * 32, b"\x02" * 32))
        assert receipt.ok

    def test_feedback_body_of_exactly_max_text_bytes_accepted(self, local, customer, developer):
        cid = deploy_acceptance(local, customer, developer, 10)
        _, reg = local.submit(customer, RegisterTestCase(cid, b"case", b"\x01" * 32, b"\x02" * 32))
        case_id = created_id(reg.payload, reg.sender, reg.nonce)
        receipt, _ = local.submit(developer, PostFeedback(case_id, b"x" * vm.MAX_TEXT_BYTES))
        assert receipt.ok

    def test_payload_of_exactly_max_payload_bytes_is_executed(self, customer):
        state = _fresh_state([customer], [500])
        at_limit, over = _fee_with_id_of(65523), _fee_with_id_of(65524)
        assert len(at_limit.encoded) == vm.MAX_PAYLOAD_BYTES
        receipt = apply_transaction(state, Transaction(customer.address, 0, at_limit, 0, b"s"))
        assert receipt.reason == b"unknown contract"
        receipt = apply_transaction(state, Transaction(customer.address, 1, over, 0, b"s"))
        assert receipt.reason == b"payload too large"

    def test_unknown_customer_rejected(self, local, customer, developer):
        receipt, _ = local.submit(
            customer, DeployAcceptanceTest(b"\x42" * 20, developer.address, 10)
        )
        assert receipt.reason == b"unknown account"

    def test_zero_fee_test_completes_once(self, local, customer, developer):
        cid = deploy_acceptance(local, customer, developer, 0)
        receipt, _ = local.submit(developer, CompleteTest(cid))
        assert receipt.ok
        first = local.chain.state.acceptance_tests[cid]
        receipt, _ = local.submit(developer, CompleteTest(cid))
        assert receipt.reason == b"test not funded"
        again = local.chain.state.acceptance_tests[cid]
        assert again.is_test_completed
        assert (again.completed_tick, again.completed_height, again.completed_tx_hash) == (
            first.completed_tick, first.completed_height, first.completed_tx_hash)

    def test_unknown_contract_comes_before_an_oversize_description(self, local, customer):
        big = b"x" * (vm.MAX_TEXT_BYTES + 1)
        receipt, _ = local.submit(
            customer, RegisterTestCase(b"\x0e" * 32, big, b"\x01" * 32, b"\x02" * 32)
        )
        assert receipt.reason == b"unknown contract"

    def test_an_oversize_body_comes_before_an_unknown_subject(self, local, customer):
        big = b"x" * (vm.MAX_TEXT_BYTES + 1)
        receipt, _ = local.submit(customer, PostFeedback(b"\x0e" * 32, big))
        assert receipt.reason == b"payload too large"

    def test_an_oversize_payload_comes_before_its_value(self, customer):
        state = _fresh_state([customer], [500])
        tx = Transaction(customer.address, 0, _fee_with_id_of(65524), 1, b"s")
        assert apply_transaction(state, tx).reason == b"payload too large"

    def test_a_sender_without_an_account_changes_nothing(self, customer):
        # a chain never gets here, as check_block refuses an unknown sender
        state = _fresh_state([customer], [500])
        pre = state.root()
        stranger = Actor(b"\x55" * 32)
        tx = Transaction(stranger.address, 0, DeployCustomerAgreement(), 0, b"s")
        receipt = apply_transaction(state, tx)
        assert (receipt.status, receipt.reason) == ("Reverted", b"unknown account")
        assert state.root() == pre

    def test_a_payload_without_a_rule_reverts_after_the_nonce_bump(self, customer):
        from testingplus.state import AccountState

        state = _fresh_state([customer], [500])
        payload = AccountState(customer.address, 10**6, 0)
        receipt = apply_transaction(state, Transaction(customer.address, 0, payload, 0, b"s"))
        assert receipt.reason == b"unknown payload"
        assert state.accounts[customer.address] == AccountState(customer.address, 500, 1)


def _random_workload(rng, actors, n_ops=40):
    """Random but well-formed op stream against a fresh state."""
    ops = []
    contracts = []
    cases = []
    for _ in range(n_ops):
        kind = rng.choice(["deploy", "initiate", "complete", "register", "execute", "fee"])
        actor = rng.choice(actors)
        other = rng.choice(actors)
        if kind == "deploy":
            ops.append((actor, DeployAcceptanceTest(actor.address, other.address, rng.randrange(0, 200)), 0, "deploy"))
        elif kind == "initiate" and contracts:
            cid, fee = rng.choice(contracts)
            ops.append((actor, InitiateTest(cid), fee if rng.random() < 0.8 else rng.randrange(300), "other"))
        elif kind == "complete" and contracts:
            cid, _ = rng.choice(contracts)
            ops.append((actor, CompleteTest(cid), 0, "other"))
        elif kind == "register" and contracts:
            cid, _ = rng.choice(contracts)
            expected = bytes([rng.randrange(256)]) * 32
            ops.append((actor, RegisterTestCase(cid, b"c", b"\x01" * 32, expected), 0, "register"))
        elif kind == "execute" and cases:
            case_id, expected = rng.choice(cases)
            actual = expected if rng.random() < 0.5 else bytes([rng.randrange(256)]) * 32
            ops.append((actor, RecordExecution(case_id, actual), 0, "other"))
        else:
            ops.append((actor, DeployCustomerAgreement(), 0, "deploy_ca"))
        # track created ids using the same derivation the VM uses
        actor_nonce = sum(1 for a, *_ in ops[:-1] if a is ops[-1][0])
        a, payload, _, tag = ops[-1]
        if tag == "deploy":
            contracts.append((created_id(payload, a.address, actor_nonce), payload.fee))
        elif tag == "register":
            cases.append((created_id(payload, a.address, actor_nonce), payload.expected_output_digest))
    return ops


def _fresh_state(actors, balances):
    state = WorldState()
    from testingplus.state import AccountState

    for actor, bal in zip(actors, balances):
        state.put(AccountState(actor.address, bal, 0))
    return state


def _apply_ops(state, ops):
    receipts = []
    for actor, payload, value, _ in ops:
        nonce = state.accounts[actor.address].nonce
        tx = Transaction(actor.address, nonce, payload, value, b"sig-not-checked-by-vm")
        receipts.append(apply_transaction(state, tx))
    return receipts


@pytest.mark.parametrize("seed", range(20))
def test_currency_conservation_random_sequences(seed):
    rng = random.Random(seed)
    actors = [Actor(bytes([i + 1]) * 32) for i in range(3)]
    balances = [rng.randrange(0, 1000) for _ in actors]
    state = _fresh_state(actors, balances)
    issuance = total_currency(state)
    ops = _random_workload(rng, actors)
    for i in range(len(ops)):
        _apply_ops(state, ops[i : i + 1])
        assert total_currency(state) == issuance


@pytest.mark.parametrize("seed", range(10))
def test_determinism_same_log_same_root(seed):
    rng = random.Random(1000 + seed)
    actors = [Actor(bytes([i + 1]) * 32) for i in range(3)]
    ops = _random_workload(rng, actors)
    s1 = _fresh_state(actors, [500, 500, 500])
    s2 = _fresh_state(actors, [500, 500, 500])
    _apply_ops(s1, ops)
    _apply_ops(s2, ops)
    assert s1.root() == s2.root()


def test_conflicting_reorder_changes_root(customer):
    actors = [customer]
    _, tx0_payload = 0, SetTestingFee
    s1 = _fresh_state(actors, [500])
    s2 = _fresh_state(actors, [500])
    deploy = Transaction(customer.address, 0, DeployCustomerAgreement(), 0, b"s")
    cid = created_id(deploy.payload, deploy.sender, deploy.nonce)
    fee_a = Transaction(customer.address, 1, SetTestingFee(cid, 100), 0, b"s")
    fee_b = Transaction(customer.address, 2, SetTestingFee(cid, 200), 0, b"s")
    for tx in (deploy, fee_a, fee_b):
        apply_transaction(s1, tx)
    for tx in (deploy, fee_b, fee_a):  # fee_b now has a bad nonce and reverts
        apply_transaction(s2, tx)
    assert s1.root() != s2.root()
    assert s1.customer_agreements[cid].testing_fee == 200
    assert s2.customer_agreements[cid].testing_fee == 100


@pytest.mark.parametrize("seed", range(15))
def test_authorization_only_owner_mutates(seed):
    """Random non-owner callers never mutate owner-guarded fields and get the
    exact owner-guard revert message."""
    rng = random.Random(2000 + seed)
    owner = Actor(b"\x01" * 32)
    intruder = Actor(b"\x02" * 32)
    state = _fresh_state([owner, intruder], [500, 500])
    _apply_ops(state, [(owner, DeployCustomerAgreement(), 0, "x")])
    _apply_ops(state, [(owner, DeployDeveloperAgreement(), 0, "x")])
    _apply_ops(state, [(owner, DeployAcceptanceTest(owner.address, owner.address, 50), 0, "x")])
    ca = created_id(DeployCustomerAgreement(), owner.address, 0)
    da = created_id(DeployDeveloperAgreement(), owner.address, 1)
    at = created_id(DeployAcceptanceTest(owner.address, owner.address, 50), owner.address, 2)
    attacks = [
        (SetTestingFee(ca, rng.randrange(999)), 0, b"Only customer can set the fee"),
        (SetReward(da, rng.randrange(999)), 0, b"Only developer can set the reward"),
        (InitiateTest(at), 50, b"Only customer can initiate the acceptance test"),
        (CompleteTest(at), 0, b"Only developer can complete the acceptance test"),
    ]
    rng.shuffle(attacks)
    pre = state.root()
    for payload, value, reason in attacks:
        nonce = state.accounts[intruder.address].nonce
        receipt = apply_transaction(
            state, Transaction(intruder.address, nonce, payload, value, b"s")
        )
        assert receipt.status == "Reverted"
        assert receipt.reason == reason
    assert state.customer_agreements[ca].testing_fee == 0
    assert state.developer_agreements[da].reward == 0
    assert state.acceptance_tests[at].escrow == 0


def test_completion_monotone(local, customer, developer):
    cid = deploy_acceptance(local, customer, developer, 10)
    local.submit(customer, InitiateTest(cid), value=10)
    local.submit(developer, CompleteTest(cid))
    assert local.chain.state.acceptance_tests[cid].is_test_completed
    # no payload sequence flips the flag back
    for payload, actor, value in [
        (InitiateTest(cid), customer, 10),
        (CompleteTest(cid), developer, 0),
        (SetTestingFee(cid, 0), customer, 0),
    ]:
        local.submit(actor, payload, value=value)
        assert local.chain.state.acceptance_tests[cid].is_test_completed


def test_state_root_insertion_order_independent(customer, developer):
    from testingplus.state import AccountState

    s1 = WorldState()
    s2 = WorldState()
    a = AccountState(customer.address, 10, 0)
    b = AccountState(developer.address, 20, 0)
    s1.put(a)
    s1.put(b)
    s2.put(b)
    s2.put(a)
    assert s1.root() == s2.root()


def test_genesis_state_root_matches_independent_serialization(validator, customer):
    from conftest import fixture_hex, make_genesis

    g = make_genesis(validator, [(customer, 500)])
    assert g.genesis_state().root() == fixture_hex("genesis_state_root.hex")


def test_balance_change_changes_root(local, customer):
    pre = local.chain.state.root()
    local.chain.state.credit(customer.address, 1)
    assert local.chain.state.root() != pre
