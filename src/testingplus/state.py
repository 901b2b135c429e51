"""World state: accounts, contract instances, and the test registry.

The state root is the hash of a canonical serialization of every entry,
sorted by (section, key), so two states with the same content always agree
regardless of insertion order.

Records are frozen: a change replaces the record, so each record computes its
canonical encoding once and keeps it. Serializing a state joins the kept
encodings, and a direct write into one of the state's dicts stays correct
because the new record brings its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter

from .codec import ZERO_HASH, enc_bytes, enc_u64, hash256

VERDICT_PASS = "Pass"
VERDICT_FAIL = "Fail"


@dataclass(frozen=True)
class AccountState:
    address: bytes
    balance: int
    nonce: int

    @cached_property
    def encoded(self) -> bytes:
        return b"\xa1" + enc_bytes(self.address) + enc_u64(self.balance) + enc_u64(self.nonce)


@dataclass(frozen=True)
class CustomerAgreementState:
    contract_id: bytes
    customer: bytes
    testing_fee: int

    @cached_property
    def encoded(self) -> bytes:
        return (
            b"\xa2" + enc_bytes(self.contract_id) + enc_bytes(self.customer) + enc_u64(self.testing_fee)
        )


@dataclass(frozen=True)
class DeveloperAgreementState:
    contract_id: bytes
    developer: bytes
    reward: int

    @cached_property
    def encoded(self) -> bytes:
        return b"\xa3" + enc_bytes(self.contract_id) + enc_bytes(self.developer) + enc_u64(self.reward)


@dataclass(frozen=True)
class AcceptanceTestState:
    contract_id: bytes
    customer: bytes
    developer: bytes
    testing_fee: int
    is_test_completed: bool = False
    escrow: int = 0
    # settlement provenance, zero until completion
    completed_tick: int = 0
    completed_height: int = 0
    completed_tx_hash: bytes = ZERO_HASH

    @cached_property
    def encoded(self) -> bytes:
        return (
            b"\xa4"
            + enc_bytes(self.contract_id)
            + enc_bytes(self.customer)
            + enc_bytes(self.developer)
            + enc_u64(self.testing_fee)
            + (b"\x01" if self.is_test_completed else b"\x00")
            + enc_u64(self.escrow)
            + enc_u64(self.completed_tick)
            + enc_u64(self.completed_height)
            + enc_bytes(self.completed_tx_hash)
        )


@dataclass(frozen=True)
class TestCase:
    case_id: bytes
    acceptance_contract: bytes
    author: bytes
    description: bytes
    input_digest: bytes
    expected_output_digest: bytes
    tick: int
    block_height: int
    tx_hash: bytes
    seq: int

    @cached_property
    def encoded(self) -> bytes:
        return (
            b"\xa5"
            + enc_bytes(self.case_id)
            + enc_bytes(self.acceptance_contract)
            + enc_bytes(self.author)
            + enc_bytes(self.description)
            + enc_bytes(self.input_digest)
            + enc_bytes(self.expected_output_digest)
            + enc_u64(self.tick)
            + enc_u64(self.block_height)
            + enc_bytes(self.tx_hash)
            + enc_u64(self.seq)
        )


@dataclass(frozen=True)
class ExecutionRecord:
    exec_id: bytes
    case_id: bytes
    tester: bytes
    actual_output_digest: bytes
    verdict: str  # VERDICT_PASS | VERDICT_FAIL
    tick: int
    block_height: int
    tx_hash: bytes
    seq: int

    @cached_property
    def encoded(self) -> bytes:
        return (
            b"\xa6"
            + enc_bytes(self.exec_id)
            + enc_bytes(self.case_id)
            + enc_bytes(self.tester)
            + enc_bytes(self.actual_output_digest)
            + (b"\x01" if self.verdict == VERDICT_PASS else b"\x00")
            + enc_u64(self.tick)
            + enc_u64(self.block_height)
            + enc_bytes(self.tx_hash)
            + enc_u64(self.seq)
        )


@dataclass(frozen=True)
class Feedback:
    feedback_id: bytes
    subject: bytes  # case_id or exec_id
    author: bytes
    body: bytes
    tick: int
    block_height: int
    tx_hash: bytes
    seq: int

    @cached_property
    def encoded(self) -> bytes:
        return (
            b"\xa7"
            + enc_bytes(self.feedback_id)
            + enc_bytes(self.subject)
            + enc_bytes(self.author)
            + enc_bytes(self.body)
            + enc_u64(self.tick)
            + enc_u64(self.block_height)
            + enc_bytes(self.tx_hash)
            + enc_u64(self.seq)
        )


@dataclass
class HistoryIndex:
    """Lookups the VM makes into the test history: the cases of each
    acceptance contract, the cases with a passing run, and execution ids."""

    n_cases: int = 0
    n_executions: int = 0
    cases_by_contract: dict[bytes, tuple[bytes, ...]] = field(default_factory=dict)
    passed: set[bytes] = field(default_factory=set)
    exec_ids: set[bytes] = field(default_factory=set)

    def add_case(self, case: TestCase) -> None:
        contract = case.acceptance_contract
        self.cases_by_contract[contract] = self.cases_by_contract.get(contract, ()) + (case.case_id,)
        self.n_cases += 1

    def add_execution(self, ex: ExecutionRecord) -> None:
        self.exec_ids.add(ex.exec_id)
        if ex.verdict == VERDICT_PASS:
            self.passed.add(ex.case_id)
        self.n_executions += 1

    def copy(self) -> "HistoryIndex":
        return HistoryIndex(
            self.n_cases,
            self.n_executions,
            dict(self.cases_by_contract),
            set(self.passed),
            set(self.exec_ids),
        )


@dataclass
class WorldState:
    accounts: dict[bytes, AccountState] = field(default_factory=dict)
    customer_agreements: dict[bytes, CustomerAgreementState] = field(default_factory=dict)
    developer_agreements: dict[bytes, DeveloperAgreementState] = field(default_factory=dict)
    acceptance_tests: dict[bytes, AcceptanceTestState] = field(default_factory=dict)
    test_cases: dict[bytes, TestCase] = field(default_factory=dict)
    executions: list[ExecutionRecord] = field(default_factory=list)
    feedbacks: list[Feedback] = field(default_factory=list)
    next_seq: int = 0
    height: int = 0  # last applied block height; not part of the root
    _history: HistoryIndex | None = field(default=None, init=False, repr=False, compare=False)

    def copy(self) -> "WorldState":
        # records are frozen, so shallow container copies are enough
        clone = WorldState(
            accounts=dict(self.accounts),
            customer_agreements=dict(self.customer_agreements),
            developer_agreements=dict(self.developer_agreements),
            acceptance_tests=dict(self.acceptance_tests),
            test_cases=dict(self.test_cases),
            executions=list(self.executions),
            feedbacks=list(self.feedbacks),
            next_seq=self.next_seq,
            height=self.height,
        )
        if self._history is not None:
            clone._history = self._history.copy()
        return clone

    def history(self) -> HistoryIndex:
        """The test-history lookups, rebuilt from test_cases and executions
        when a write that bypassed add_test_case/add_execution changed the
        size of either."""
        h = self._history
        if h is None or (h.n_cases, h.n_executions) != (len(self.test_cases), len(self.executions)):
            h = self._history = HistoryIndex()
            for case in self.test_cases.values():
                h.add_case(case)
            for ex in self.executions:
                h.add_execution(ex)
        return h

    def add_test_case(self, case: TestCase) -> None:
        history = self.history()
        self.test_cases[case.case_id] = case
        history.add_case(case)

    def add_execution(self, ex: ExecutionRecord) -> None:
        history = self.history()
        self.executions.append(ex)
        history.add_execution(ex)

    def account(self, address: bytes) -> AccountState | None:
        return self.accounts.get(address)

    def credit(self, address: bytes, amount: int) -> None:
        acct = self.accounts[address]
        self.accounts[address] = replace(acct, balance=acct.balance + amount)

    def debit(self, address: bytes, amount: int) -> None:
        acct = self.accounts[address]
        if acct.balance < amount:
            raise ValueError("balance underflow")
        self.accounts[address] = replace(acct, balance=acct.balance - amount)

    def bump_nonce(self, address: bytes) -> None:
        acct = self.accounts[address]
        self.accounts[address] = replace(acct, nonce=acct.nonce + 1)

    def total_currency(self) -> int:
        """Circulating balances plus funds held in acceptance-test escrow."""
        return sum(a.balance for a in self.accounts.values()) + sum(
            t.escrow for t in self.acceptance_tests.values()
        )

    def serialize(self) -> bytes:
        encoded = attrgetter("encoded")
        out: list[bytes] = []
        for section in (
            self.accounts,
            self.customer_agreements,
            self.developer_agreements,
            self.acceptance_tests,
            self.test_cases,
        ):
            out += map(encoded, map(section.__getitem__, sorted(section)))
        out += map(encoded, self.executions)
        out += map(encoded, self.feedbacks)
        return b"".join(out)

    def root(self) -> bytes:
        return hash256(self.serialize())
