"""World state: accounts, contract instances, and the test registry.

The state root is the hash of a canonical serialization of every entry,
sorted by (section, key), so two states with the same content always agree
regardless of insertion order.

Each record type declares its tag and field kinds with codec.schema. Records
are frozen: a change replaces the record, so each record computes its
canonical encoding once and keeps it. Each section of the state keeps the
joined encoding of its records in turn and drops it when the section is
written, so serializing a state re-encodes only the sections written since
the last time and joins seven kept byte strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter

from .codec import BYTES, FLAG, U64, ZERO_HASH, flag, hash256, schema

VERDICT_PASS = "Pass"
VERDICT_FAIL = "Fail"


@schema(0xA1, BYTES, U64, U64)
@dataclass(frozen=True)
class AccountState:
    address: bytes
    balance: int
    nonce: int


@schema(0xA2, BYTES, BYTES, U64)
@dataclass(frozen=True)
class CustomerAgreementState:
    contract_id: bytes
    customer: bytes
    testing_fee: int


@schema(0xA3, BYTES, BYTES, U64)
@dataclass(frozen=True)
class DeveloperAgreementState:
    contract_id: bytes
    developer: bytes
    reward: int


@schema(0xA4, BYTES, BYTES, BYTES, U64, FLAG, U64, U64, U64, BYTES)
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


@schema(0xA5, BYTES, BYTES, BYTES, BYTES, BYTES, BYTES, U64, U64, BYTES, U64)
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


@schema(0xA6, BYTES, BYTES, BYTES, BYTES, flag(VERDICT_FAIL, VERDICT_PASS), U64, U64, BYTES, U64)
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


@schema(0xA7, BYTES, BYTES, BYTES, BYTES, U64, U64, BYTES, U64)
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


class KeyedSection(dict):
    """A keyed section of the world state that keeps its canonical encoding,
    the encodings of its records in key order joined. Every mutator drops
    it, so the next read re-encodes this section alone, and counts `_writes`."""

    _encoded: bytes | None = None
    _writes = 0

    @property
    def encoded(self) -> bytes:
        enc = self._encoded
        if enc is None:
            enc = self._encoded = b"".join([self[k].encoded for k in sorted(self)])
        return enc

    def copy(self) -> "KeyedSection":
        clone = KeyedSection(self)
        clone.__dict__.update(self.__dict__)  # kept bytes are immutable, so both may hold them
        return clone


class LogSection(list):
    """An append-only section of the world state (executions, feedbacks) that
    keeps the joined encoding of its first `_count` records. An append leaves
    those records in place, so the next read only encodes what was appended;
    every other mutator drops the encoding. Every mutator counts `_writes`."""

    _encoded: bytes | None = None
    _count = 0
    _writes = 0

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
        clone.__dict__.update(self.__dict__)
        return clone


def _tracking(method, drops: bool):
    def mutator(self, *args, **kwargs):
        if drops:
            self._encoded = None
        self._writes += 1
        return method(self, *args, **kwargs)

    mutator.__name__ = mutator.__qualname__ = method.__name__
    return mutator


for _cls, _drops, _names in (
    (KeyedSection, True, ("__setitem__", "__delitem__", "pop", "popitem", "setdefault", "update",
                          "clear", "__ior__")),
    (LogSection, True, ("__setitem__", "__delitem__", "insert", "pop", "remove", "sort",
                        "reverse", "clear", "__imul__")),
    # append, extend and += only add records at the end
    (LogSection, False, ("append", "extend", "__iadd__")),
):
    for _name in _names:
        setattr(_cls, _name, _tracking(getattr(_cls.__base__, _name), _drops))
del _cls, _drops, _names, _name


@dataclass
class HistoryIndex:
    """Lookups the VM makes into the test history: the cases of each
    acceptance contract, the cases with a passing run, and execution ids."""

    writes: tuple[int, int] = (0, 0)  # the `_writes` of test_cases and executions it reflects
    cases_by_contract: dict[bytes, tuple[bytes, ...]] = field(default_factory=dict)
    passed: set[bytes] = field(default_factory=set)
    exec_ids: set[bytes] = field(default_factory=set)

    def add_case(self, case: TestCase) -> None:
        contract = case.acceptance_contract
        self.cases_by_contract[contract] = self.cases_by_contract.get(contract, ()) + (case.case_id,)

    def add_execution(self, ex: ExecutionRecord) -> None:
        self.exec_ids.add(ex.exec_id)
        if ex.verdict == VERDICT_PASS:
            self.passed.add(ex.case_id)

    def copy(self) -> "HistoryIndex":
        return HistoryIndex(self.writes, dict(self.cases_by_contract), set(self.passed),
                            set(self.exec_ids))


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
        if kind is not None:
            if not isinstance(value, kind):
                value = kind(value)
            if name in _HISTORY_SOURCES:  # the index was built from the section replaced
                object.__setattr__(self, "_history", None)
        object.__setattr__(self, name, value)

    def copy(self) -> "WorldState":
        # records are frozen, so shallow container copies are enough, and
        # each copy starts from its section's kept encoding
        clone = WorldState(
            **{name: section.copy() for name, section in zip(_SECTION_TYPES, _sections(self))},
            next_seq=self.next_seq,
            height=self.height,
        )
        if self._history is not None:
            clone._history = self._history.copy()
        return clone

    def _history_writes(self) -> tuple[int, int]:
        return self.test_cases._writes, self.executions._writes

    def history(self) -> HistoryIndex:
        """The test-history lookups, rebuilt from test_cases and executions
        after any write to either that add_test_case/add_execution did not
        make."""
        h = self._history
        writes = self._history_writes()
        if h is None or h.writes != writes:
            h = self._history = HistoryIndex(writes)
            for case in self.test_cases.values():
                h.add_case(case)
            for ex in self.executions:
                h.add_execution(ex)
        return h

    def add_test_case(self, case: TestCase) -> None:
        history = self.history()
        new = case.case_id not in self.test_cases
        self.test_cases[case.case_id] = case
        if new:  # a replaced case may have moved contract: history() then rescans
            history.add_case(case)
            history.writes = self._history_writes()

    def add_execution(self, ex: ExecutionRecord) -> None:
        history = self.history()
        self.executions.append(ex)
        history.add_execution(ex)
        history.writes = self._history_writes()

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
        return b"".join([section.encoded for section in _sections(self)])

    def root(self) -> bytes:
        return hash256(self.serialize())


# section name -> the tracked type WorldState.__setattr__ turns a container
# into, in serialization order
_SECTION_TYPES = {
    "accounts": KeyedSection,
    "customer_agreements": KeyedSection,
    "developer_agreements": KeyedSection,
    "acceptance_tests": KeyedSection,
    "test_cases": KeyedSection,
    "executions": LogSection,
    "feedbacks": LogSection,
}
_sections = attrgetter(*_SECTION_TYPES)  # a state's sections, in that order
_HISTORY_SOURCES = ("test_cases", "executions")  # the sections HistoryIndex is built from
