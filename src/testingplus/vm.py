"""Deterministic state-transition machine for the three agreement contracts
and the testing-workflow payloads.

Each payload type is one row of `_RULES`: its handler, and the salt of the
id of the record it creates. Every handler validates all of its requirements
before touching state, so a revert needs no rollback: a Reverted receipt
leaves the world unchanged except for the sender's nonce increment. Revert
reasons are byte-exact. The four handlers that change a contract find it and
check its owner with one helper, `_contract`; a payload whose `.encoded`
bytes exceed MAX_PAYLOAD_BYTES reverts before any handler runs.
"""

from __future__ import annotations

from .codec import enc_u64, hash256, record
from .state import (
    AcceptanceTestState,
    CustomerAgreementState,
    DeveloperAgreementState,
    ExecutionRecord,
    Feedback,
    TestCase,
    VERDICT_FAIL,
    VERDICT_PASS,
    WorldState,
)
from .tx import (
    CompleteTest,
    DeployAcceptanceTest,
    DeployCustomerAgreement,
    DeployDeveloperAgreement,
    InitiateTest,
    MAX_PAYLOAD_BYTES,
    MAX_TEXT_BYTES,
    Payload,
    PostFeedback,
    RecordExecution,
    RegisterTestCase,
    SetReward,
    SetTestingFee,
    Transaction,
)

REASON_ONLY_CUSTOMER_FEE = b"Only customer can set the fee"
REASON_ONLY_DEVELOPER_REWARD = b"Only developer can set the reward"
REASON_ONLY_CUSTOMER_INITIATE = b"Only customer can initiate the acceptance test"
REASON_ONLY_DEVELOPER_COMPLETE = b"Only developer can complete the acceptance test"
REASON_FEE_NOT_PAID = b"Testing fee should be paid"
REASON_UNKNOWN_CONTRACT = b"unknown contract"
REASON_UNKNOWN_ACCOUNT = b"unknown account"
REASON_UNKNOWN_CASE = b"unknown test case"
REASON_UNKNOWN_SUBJECT = b"unknown subject"
REASON_BAD_NONCE = b"bad nonce"
REASON_INSUFFICIENT_BALANCE = b"insufficient balance"
REASON_ALREADY_FUNDED = b"test already funded"
REASON_ALREADY_COMPLETED = b"test already completed"
REASON_NOT_FUNDED = b"test not funded"
REASON_NOT_VERIFIED = b"results not verified"
REASON_PAYLOAD_TOO_LARGE = b"payload too large"
REASON_VALUE_NOT_ACCEPTED = b"value not accepted"
REASON_UNKNOWN_PAYLOAD = b"unknown payload"

STATUS_SUCCESS = "Success"
STATUS_REVERTED = "Reverted"


@record("tx_hash", "status", "reason")  # reason: empty on success
class Receipt:
    @property
    def ok(self) -> bool:
        return self.status == STATUS_SUCCESS


class _Revert(Exception):
    def __init__(self, reason: bytes):
        self.reason = reason


def _tag(payload: Payload) -> bytes:
    return bytes([payload.TAG])


def created_id(payload: Payload, sender: bytes, nonce: int) -> bytes | None:
    """Id of the contract, test case, execution or feedback that `payload`
    creates when `sender` submits it at `nonce`; None for the other payloads."""
    _, salt = _RULES.get(type(payload), (None, None))
    return None if salt is None else hash256(sender + enc_u64(nonce) + salt(payload))


def _put_history(state: WorldState, tx: Transaction, height: int, tick: int, record_type,
                 *fields) -> None:
    """Put a history record: the id `tx` creates, `fields`, then the tick,
    block and transaction that made it and its number in commit order."""
    state.put(record_type(created_id(tx.payload, tx.sender, tx.nonce), *fields,
                          tick, height, tx.hash(), state.next_seq))
    state.next_seq += 1


def _contract(section, tx: Transaction, owner: str, reason: bytes):
    """The contract in `section` that `tx`'s payload names, if `tx`'s sender
    is the contract's `owner` field; else a revert, `unknown contract` first."""
    c = section.get(tx.payload.contract_id)
    if c is None:
        raise _Revert(REASON_UNKNOWN_CONTRACT)
    if tx.sender != getattr(c, owner):
        raise _Revert(reason)
    return c


def _deploy(record_type):
    """The handler of an agreement deploy: a `record_type` with the created
    id, the sender as its owner and a zero amount."""
    def deploy(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
        state.put(record_type(created_id(tx.payload, tx.sender, tx.nonce), tx.sender, 0))
    return deploy


def _set_testing_fee(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    c = _contract(state.customer_agreements, tx, "customer", REASON_ONLY_CUSTOMER_FEE)
    state.put(c.replace(testing_fee=tx.payload.fee))


def _set_reward(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    d = _contract(state.developer_agreements, tx, "developer", REASON_ONLY_DEVELOPER_REWARD)
    state.put(d.replace(reward=tx.payload.amount))


def _deploy_acceptance_test(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    p = tx.payload
    if p.customer not in state.accounts or p.developer not in state.accounts:
        raise _Revert(REASON_UNKNOWN_ACCOUNT)
    cid = created_id(p, tx.sender, tx.nonce)
    state.put(AcceptanceTestState(cid, p.customer, p.developer, p.fee))


def _initiate_test(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    t = _contract(state.acceptance_tests, tx, "customer", REASON_ONLY_CUSTOMER_INITIATE)
    if tx.value != t.testing_fee:
        raise _Revert(REASON_FEE_NOT_PAID)
    if t.is_test_completed:
        # re-funding a settled engagement would flip the completion flag back
        raise _Revert(REASON_ALREADY_COMPLETED)
    if t.escrow != 0:
        raise _Revert(REASON_ALREADY_FUNDED)
    if state.account(tx.sender).balance < tx.value:
        raise _Revert(REASON_INSUFFICIENT_BALANCE)
    state.debit(tx.sender, tx.value)
    state.put(t.replace(escrow=tx.value, is_test_completed=False))


def _complete_test(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    t = _contract(state.acceptance_tests, tx, "developer", REASON_ONLY_DEVELOPER_COMPLETE)
    if t.escrow != t.testing_fee or (t.testing_fee == 0 and t.is_test_completed):
        raise _Revert(REASON_NOT_FUNDED)
    passed = state.passed
    if any(c not in passed for c in state.cases_by_contract.get(t.contract_id, ())):
        raise _Revert(REASON_NOT_VERIFIED)
    state.credit(t.developer, t.escrow)
    state.put(t.replace(
        is_test_completed=True,
        escrow=0,
        completed_tick=tick,
        completed_height=height,
        completed_tx_hash=tx.hash(),
    ))


def _register_test_case(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    p = tx.payload
    if p.acceptance_contract not in state.acceptance_tests:
        raise _Revert(REASON_UNKNOWN_CONTRACT)
    if len(p.description) > MAX_TEXT_BYTES:
        raise _Revert(REASON_PAYLOAD_TOO_LARGE)
    _put_history(state, tx, height, tick, TestCase, p.acceptance_contract, tx.sender,
                 p.description, p.input_digest, p.expected_output_digest)


def _record_execution(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    p = tx.payload
    case = state.test_cases.get(p.case_id)
    if case is None:
        raise _Revert(REASON_UNKNOWN_CASE)
    # the verdict is recomputed here, never taken from the submitter
    verdict = VERDICT_PASS if p.actual_output_digest == case.expected_output_digest else VERDICT_FAIL
    _put_history(state, tx, height, tick, ExecutionRecord, case.case_id, tx.sender,
                 p.actual_output_digest, verdict)


def _post_feedback(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    p = tx.payload
    if len(p.body_text) > MAX_TEXT_BYTES:
        raise _Revert(REASON_PAYLOAD_TOO_LARGE)
    known = p.subject in state.test_cases or p.subject in state.exec_ids
    if not known:
        raise _Revert(REASON_UNKNOWN_SUBJECT)
    _put_history(state, tx, height, tick, Feedback, p.subject, tx.sender, p.body_text)


# Each payload type's handler, and its salt: the bytes hashed after sender ‖
# u64(nonce) to give the id of the record it creates (None: it creates none),
# one rule for every created record, as Ethereum derives the address of what a
# transaction creates from (sender, nonce).
_RULES = {
    DeployCustomerAgreement: (_deploy(CustomerAgreementState), _tag),
    SetTestingFee: (_set_testing_fee, None),
    DeployDeveloperAgreement: (_deploy(DeveloperAgreementState), _tag),
    SetReward: (_set_reward, None),
    DeployAcceptanceTest: (_deploy_acceptance_test, _tag),
    InitiateTest: (_initiate_test, None),
    CompleteTest: (_complete_test, None),
    RegisterTestCase: (_register_test_case, lambda p: p.expected_output_digest),
    RecordExecution: (_record_execution, lambda p: p.actual_output_digest + _tag(p)),
    PostFeedback: (_post_feedback, lambda p: p.subject + _tag(p)),
}


def apply_transaction(state: WorldState, tx: Transaction, height: int = 0, tick: int = 0) -> Receipt:
    """Apply one signature-checked transaction in place and return its receipt.

    Nonce mismatch reverts without any state change at all; every other
    revert still advances the sender's nonce (the attempt is on record).
    The receipt carries a status and no state root (as in EIP-658): the
    block's state root is taken once, after its last transaction.
    """
    tx_hash = tx.hash()

    def receipt(reason: bytes) -> Receipt:
        return Receipt(tx_hash, STATUS_SUCCESS if reason == b"" else STATUS_REVERTED, reason)

    acct = state.account(tx.sender)
    if acct is None:
        return receipt(REASON_UNKNOWN_ACCOUNT)
    if tx.nonce != acct.nonce:
        return receipt(REASON_BAD_NONCE)
    state.bump_nonce(tx.sender)

    handler, _ = _RULES.get(type(tx.payload), (None, None))
    if handler is None:
        return receipt(REASON_UNKNOWN_PAYLOAD)
    if len(tx.payload.encoded) > MAX_PAYLOAD_BYTES:
        return receipt(REASON_PAYLOAD_TOO_LARGE)
    if tx.value != 0 and not isinstance(tx.payload, InitiateTest):
        return receipt(REASON_VALUE_NOT_ACCEPTED)
    try:
        handler(state, tx, height, tick)
    except _Revert as rv:
        return receipt(rv.reason)
    return receipt(b"")
