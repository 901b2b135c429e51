"""World state: accounts, contract instances, and the test registry.

The state root is the hash of a canonical serialization of every entry,
sorted by (section, key), so two states with the same content always agree
regardless of insertion order.

Records are frozen: a change replaces the record, so each record computes its
canonical encoding once and keeps it. Each section of the state keeps the
joined encoding of its records in turn and drops it when the section is
written, so serializing a state re-encodes only the sections written since
the last time and joins seven kept byte strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

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


class KeyedSection(dict):
    """A keyed section of the world state that keeps its canonical encoding,
    the encodings of its records in key order joined. Every mutator drops
    it, so the next read re-encodes this section alone."""

    _encoded: bytes | None = None

    @property
    def encoded(self) -> bytes:
        enc = self._encoded
        if enc is None:
            enc = self._encoded = b"".join([self[k].encoded for k in sorted(self)])
        return enc

    def copy(self) -> "KeyedSection":
        clone = KeyedSection(self)
        clone._encoded = self._encoded  # bytes are immutable, so both may hold them
        return clone


class LogSection(list):
    """An append-only section of the world state (executions, feedbacks) that
    keeps the joined encoding of its first `_count` records. An append leaves
    those records in place, so the next read only encodes what was appended;
    every other mutator drops the encoding."""

    _encoded: bytes | None = None
    _count = 0

    @property
    def encoded(self) -> bytes:
        enc, count = self._encoded, self._count
        if enc is None:
            enc, count = b"", 0
        if count != len(self):
            enc += b"".join([r.encoded for r in self[count:]])
            self._encoded, self._count = enc, len(self)
        return enc

    def copy(self) -> "LogSection":
        clone = LogSection(self)
        clone._encoded, clone._count = self._encoded, self._count
        return clone


def _dropping(method):
    def mutator(self, *args, **kwargs):
        self._encoded = None
        return method(self, *args, **kwargs)

    mutator.__name__ = mutator.__qualname__ = method.__name__
    return mutator


for _cls, _names in (
    (KeyedSection, ("__setitem__", "__delitem__", "pop", "popitem", "setdefault", "update",
                    "clear", "__ior__")),
    # append, extend and += only add records at the end
    (LogSection, ("__setitem__", "__delitem__", "insert", "pop", "remove", "sort", "reverse",
                  "clear", "__imul__")),
):
    for _name in _names:
        setattr(_cls, _name, _dropping(getattr(_cls.__base__, _name)))
del _cls, _names, _name


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
    # any dict or list given for a section becomes its tracked type (__setattr__)
    accounts: dict[bytes, AccountState] = field(default_factory=KeyedSection)
    customer_agreements: dict[bytes, CustomerAgreementState] = field(default_factory=KeyedSection)
    developer_agreements: dict[bytes, DeveloperAgreementState] = field(default_factory=KeyedSection)
    acceptance_tests: dict[bytes, AcceptanceTestState] = field(default_factory=KeyedSection)
    test_cases: dict[bytes, TestCase] = field(default_factory=KeyedSection)
    executions: list[ExecutionRecord] = field(default_factory=LogSection)
    feedbacks: list[Feedback] = field(default_factory=LogSection)
    next_seq: int = 0
    height: int = 0  # last applied block height; not part of the root
    _history: HistoryIndex | None = field(default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        kind = _SECTION_TYPES.get(name)
        if kind is not None and not isinstance(value, kind):
            value = kind(value)
        object.__setattr__(self, name, value)

    def copy(self) -> "WorldState":
        # records are frozen, so shallow container copies are enough, and
        # each copy starts from its section's kept encoding
        clone = WorldState(
            accounts=self.accounts.copy(),
            customer_agreements=self.customer_agreements.copy(),
            developer_agreements=self.developer_agreements.copy(),
            acceptance_tests=self.acceptance_tests.copy(),
            test_cases=self.test_cases.copy(),
            executions=self.executions.copy(),
            feedbacks=self.feedbacks.copy(),
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
        return b"".join([
            self.accounts.encoded,
            self.customer_agreements.encoded,
            self.developer_agreements.encoded,
            self.acceptance_tests.encoded,
            self.test_cases.encoded,
            self.executions.encoded,
            self.feedbacks.encoded,
        ])

    def root(self) -> bytes:
        return hash256(self.serialize())


# section name -> the tracked type WorldState.__setattr__ turns a container into
_SECTION_TYPES = {
    "accounts": KeyedSection,
    "customer_agreements": KeyedSection,
    "developer_agreements": KeyedSection,
    "acceptance_tests": KeyedSection,
    "test_cases": KeyedSection,
    "executions": LogSection,
    "feedbacks": LogSection,
}
