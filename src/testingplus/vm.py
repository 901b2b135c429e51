"""Deterministic state-transition machine for the three agreement contracts
and the testing-workflow payloads.

Every handler validates all of its requirements before touching state, so a
revert needs no rollback: a Reverted receipt leaves the world unchanged
except for the sender's nonce increment. Revert reasons are byte-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .codec import enc_u64, hash256
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
    encode_payload,
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


@dataclass(frozen=True)
class Receipt:
    tx_hash: bytes
    status: str
    reason: bytes  # empty on success

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SUCCESS


class _Revert(Exception):
    def __init__(self, reason: bytes):
        self.reason = reason


def contract_id_for(sender: bytes, nonce: int, tag: int) -> bytes:
    return hash256(sender + enc_u64(nonce) + bytes([tag]))


def case_id_for(sender: bytes, nonce: int, expected_output_digest: bytes) -> bytes:
    return hash256(sender + enc_u64(nonce) + expected_output_digest)


def created_id(payload: Payload, sender: bytes, nonce: int) -> bytes | None:
    """Id of the contract, test case or execution that `payload` creates
    when `sender` submits it at `nonce`; None for the other payloads."""
    if isinstance(
        payload, (DeployCustomerAgreement, DeployDeveloperAgreement, DeployAcceptanceTest)
    ):
        return contract_id_for(sender, nonce, payload.TAG)
    if isinstance(payload, RegisterTestCase):
        return case_id_for(sender, nonce, payload.expected_output_digest)
    if isinstance(payload, RecordExecution):
        return hash256(sender + enc_u64(nonce) + payload.actual_output_digest + b"\x11")
    return None


def _feedback_id_for(sender: bytes, nonce: int, subject: bytes) -> bytes:
    return hash256(sender + enc_u64(nonce) + subject + b"\x12")


def _deploy_customer_agreement(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    cid = created_id(tx.payload, tx.sender, tx.nonce)
    state.put(CustomerAgreementState(cid, tx.sender, 0))


def _set_testing_fee(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    c = state.customer_agreements.get(tx.payload.contract_id)
    if c is None:
        raise _Revert(REASON_UNKNOWN_CONTRACT)
    if tx.sender != c.customer:
        raise _Revert(REASON_ONLY_CUSTOMER_FEE)
    state.put(replace(c, testing_fee=tx.payload.fee))


def _deploy_developer_agreement(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    cid = created_id(tx.payload, tx.sender, tx.nonce)
    state.put(DeveloperAgreementState(cid, tx.sender, 0))


def _set_reward(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    d = state.developer_agreements.get(tx.payload.contract_id)
    if d is None:
        raise _Revert(REASON_UNKNOWN_CONTRACT)
    if tx.sender != d.developer:
        raise _Revert(REASON_ONLY_DEVELOPER_REWARD)
    state.put(replace(d, reward=tx.payload.amount))


def _deploy_acceptance_test(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    p = tx.payload
    if p.customer not in state.accounts or p.developer not in state.accounts:
        raise _Revert(REASON_UNKNOWN_ACCOUNT)
    cid = created_id(p, tx.sender, tx.nonce)
    state.put(AcceptanceTestState(cid, p.customer, p.developer, p.fee))


def _initiate_test(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    t = state.acceptance_tests.get(tx.payload.contract_id)
    if t is None:
        raise _Revert(REASON_UNKNOWN_CONTRACT)
    if tx.sender != t.customer:
        raise _Revert(REASON_ONLY_CUSTOMER_INITIATE)
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
    state.put(replace(t, escrow=tx.value, is_test_completed=False))


def _complete_test(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    t = state.acceptance_tests.get(tx.payload.contract_id)
    if t is None:
        raise _Revert(REASON_UNKNOWN_CONTRACT)
    if tx.sender != t.developer:
        raise _Revert(REASON_ONLY_DEVELOPER_COMPLETE)
    if t.escrow != t.testing_fee or (t.testing_fee == 0 and t.is_test_completed):
        raise _Revert(REASON_NOT_FUNDED)
    history = state.history()
    if any(c not in history.passed for c in history.cases_by_contract.get(t.contract_id, ())):
        raise _Revert(REASON_NOT_VERIFIED)
    state.credit(t.developer, t.escrow)
    state.put(replace(
        t,
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
    cid = created_id(p, tx.sender, tx.nonce)
    state.put(
        TestCase(
            case_id=cid,
            acceptance_contract=p.acceptance_contract,
            author=tx.sender,
            description=p.description,
            input_digest=p.input_digest,
            expected_output_digest=p.expected_output_digest,
            tick=tick,
            block_height=height,
            tx_hash=tx.hash(),
            seq=state.next_seq,
        )
    )
    state.next_seq += 1


def _record_execution(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    p = tx.payload
    case = state.test_cases.get(p.case_id)
    if case is None:
        raise _Revert(REASON_UNKNOWN_CASE)
    # the verdict is recomputed here, never taken from the submitter
    verdict = VERDICT_PASS if p.actual_output_digest == case.expected_output_digest else VERDICT_FAIL
    state.put(
        ExecutionRecord(
            exec_id=created_id(p, tx.sender, tx.nonce),
            case_id=case.case_id,
            tester=tx.sender,
            actual_output_digest=p.actual_output_digest,
            verdict=verdict,
            tick=tick,
            block_height=height,
            tx_hash=tx.hash(),
            seq=state.next_seq,
        )
    )
    state.next_seq += 1


def _post_feedback(state: WorldState, tx: Transaction, height: int, tick: int) -> None:
    p = tx.payload
    if len(p.body_text) > MAX_TEXT_BYTES:
        raise _Revert(REASON_PAYLOAD_TOO_LARGE)
    known = p.subject in state.test_cases or p.subject in state.history().exec_ids
    if not known:
        raise _Revert(REASON_UNKNOWN_SUBJECT)
    state.put(
        Feedback(
            feedback_id=_feedback_id_for(tx.sender, tx.nonce, p.subject),
            subject=p.subject,
            author=tx.sender,
            body=p.body_text,
            tick=tick,
            block_height=height,
            tx_hash=tx.hash(),
            seq=state.next_seq,
        )
    )
    state.next_seq += 1


_HANDLERS = {
    DeployCustomerAgreement: _deploy_customer_agreement,
    SetTestingFee: _set_testing_fee,
    DeployDeveloperAgreement: _deploy_developer_agreement,
    SetReward: _set_reward,
    DeployAcceptanceTest: _deploy_acceptance_test,
    InitiateTest: _initiate_test,
    CompleteTest: _complete_test,
    RegisterTestCase: _register_test_case,
    RecordExecution: _record_execution,
    PostFeedback: _post_feedback,
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

    handler = _HANDLERS.get(type(tx.payload))
    if handler is None:
        return receipt(REASON_UNKNOWN_PAYLOAD)
    if len(encode_payload(tx.payload)) > MAX_PAYLOAD_BYTES:
        return receipt(REASON_PAYLOAD_TOO_LARGE)
    if tx.value != 0 and not isinstance(tx.payload, InitiateTest):
        return receipt(REASON_VALUE_NOT_ACCEPTED)
    try:
        handler(state, tx, height, tick)
    except _Revert as rv:
        return receipt(rv.reason)
    return receipt(b"")
