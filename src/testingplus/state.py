"""World state: accounts, contract instances, and the test registry.

The state root is the hash of a canonical serialization of every entry,
sorted by (section, key), so two states with the same content always agree
regardless of insertion order.

Each record type declares its tag and field kinds with codec.schema. Records
are frozen: a change replaces the record, so each record computes its
canonical encoding once and keeps it.

WorldState.put(record) is the only way to write the state. The record's type
picks its section: a keyed record replaces the entry under its key, and the
key is noted; an execution or feedback record is appended to its log. Each
keyed section keeps its keys in key order beside their records' encodings,
and the next read splices in only the noted keys' encodings, so a write
costs in proportion to what it writes, not to the size of its section. A
log's kept encoding stays a prefix of the log, so the next read encodes only
the new records. Sections are read through read-only views, so a write that
bypasses put() fails instead of leaving a stale root.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from types import MappingProxyType

from .codec import (BYTES, FLAG, U64, ZERO_HASH, DecodeError, Reader, factory, flag, hash256,
                    record, schema)

VERDICT_PASS = "Pass"
VERDICT_FAIL = "Fail"


@schema(0xA1, address=BYTES, balance=U64, nonce=U64)
class AccountState:
    pass


@schema(0xA2, contract_id=BYTES, customer=BYTES, testing_fee=U64)
class CustomerAgreementState:
    pass


@schema(0xA3, contract_id=BYTES, developer=BYTES, reward=U64)
class DeveloperAgreementState:
    pass


# completed_*: settlement provenance, zero until completion
@schema(0xA4, contract_id=BYTES, customer=BYTES, developer=BYTES, testing_fee=U64,
        is_test_completed=FLAG, escrow=U64, completed_tick=U64, completed_height=U64,
        completed_tx_hash=BYTES)
class AcceptanceTestState:
    is_test_completed, escrow = False, 0
    completed_tick, completed_height, completed_tx_hash = 0, 0, ZERO_HASH


@schema(0xA5, case_id=BYTES, acceptance_contract=BYTES, author=BYTES, description=BYTES,
        input_digest=BYTES, expected_output_digest=BYTES, tick=U64, block_height=U64,
        tx_hash=BYTES, seq=U64)
class TestCase:
    pass


@schema(0xA6, exec_id=BYTES, case_id=BYTES, tester=BYTES, actual_output_digest=BYTES,
        verdict=flag(VERDICT_FAIL, VERDICT_PASS), tick=U64, block_height=U64, tx_hash=BYTES,
        seq=U64)
class ExecutionRecord:
    pass


# subject: a case_id or an exec_id
@schema(0xA7, feedback_id=BYTES, subject=BYTES, author=BYTES, body=BYTES, tick=U64,
        block_height=U64, tx_hash=BYTES, seq=U64)
class Feedback:
    pass


@record("cases_by_contract", "passed", "exec_ids")
class HistoryIndex:
    """Lookups the VM makes into the test history: the cases of each
    acceptance contract, the cases with a passing run, and execution ids."""

    cases_by_contract, passed, exec_ids = factory(dict), factory(set), factory(set)

    def add_case(self, case: TestCase) -> None:
        contract = case.acceptance_contract
        self.cases_by_contract[contract] = self.cases_by_contract.get(contract, ()) + (case.case_id,)

    def add_execution(self, ex: ExecutionRecord) -> None:
        self.exec_ids.add(ex.exec_id)
        if ex.verdict == VERDICT_PASS:
            self.passed.add(ex.case_id)

    def copy(self) -> "HistoryIndex":
        return HistoryIndex(dict(self.cases_by_contract), set(self.passed), set(self.exec_ids))


# section name -> (record type, key field or None for an append-only log),
# in serialization order
_SECTIONS = {
    "accounts": (AccountState, "address"),
    "customer_agreements": (CustomerAgreementState, "contract_id"),
    "developer_agreements": (DeveloperAgreementState, "contract_id"),
    "acceptance_tests": (AcceptanceTestState, "contract_id"),
    "test_cases": (TestCase, "case_id"),
    "executions": (ExecutionRecord, None),
    "feedbacks": (Feedback, None),
}
# record type -> (its section, the getter of its key or None)
_SECTION_OF = {rtype: (name, key and attrgetter(key)) for name, (rtype, key) in _SECTIONS.items()}
# record tag -> record type
_TYPE_OF_TAG = {rtype.TAG: rtype for rtype, _ in _SECTIONS.values()}


class WorldState:
    """Every section is read through a read-only view named after it; put()
    is the only write."""

    __slots__ = ("_records", "_order", "_noted", "_encoded", "next_seq", "height", "_history")

    def __init__(self) -> None:
        # section name -> its records: a dict by key, or a list in append order
        self._records = {name: {} if key else [] for name, (_, key) in _SECTIONS.items()}
        # keyed section name -> (its keys in key order, their records'
        # encodings in the same order), as of the last read; a read splices
        # into copies, so these lists are never changed and copies share them
        self._order = {name: ([], []) for name, (_, key) in _SECTIONS.items() if key}
        # keyed section name -> the keys put since the last read, as dict keys
        self._noted: dict[str, dict] = {name: {} for name in self._order}
        # section name -> its kept joined encoding as of the last read; for a
        # log, (that encoding, the number of records it covers)
        self._encoded: dict = {name: b"" if key else (b"", 0) for name, (_, key) in _SECTIONS.items()}
        self.next_seq = 0
        self.height = 0  # last applied block height; not part of the root
        self._history: HistoryIndex | None = None

    def put(self, record) -> None:
        """Write `record` into the section of its type: a keyed record
        replaces the entry under its key, a log record is appended."""
        try:
            name, key_of = _SECTION_OF[type(record)]
        except KeyError:
            raise TypeError(f"no section of the state holds a {type(record).__name__}") from None
        records = self._records[name]
        history = self._history
        if key_of is None:
            records.append(record)  # the kept encoding stays a prefix of the log
            if history is not None and name == "executions":
                history.add_execution(record)
            return
        key = key_of(record)
        if history is not None and name == "test_cases":
            if key in records:  # a replaced case may have moved contract: history() rescans
                self._history = None
            else:
                history.add_case(record)
        records[key] = record
        self._noted[name][key] = None

    def copy(self) -> "WorldState":
        # records are frozen, so shallow container copies are enough, and
        # kept bytes are immutable, so both states may hold them
        clone = object.__new__(WorldState)
        clone._records = {name: records.copy() for name, records in self._records.items()}
        clone._order = self._order.copy()
        clone._noted = {name: noted.copy() for name, noted in self._noted.items()}
        clone._encoded = self._encoded.copy()
        clone.next_seq = self.next_seq
        clone.height = self.height
        clone._history = None if self._history is None else self._history.copy()
        return clone

    def history(self) -> HistoryIndex:
        """The test-history lookups, kept in step by put() and rebuilt from
        test_cases and executions after put() replaced a case."""
        h = self._history
        if h is None:
            h = self._history = HistoryIndex()
            for case in self._records["test_cases"].values():
                h.add_case(case)
            for ex in self._records["executions"]:
                h.add_execution(ex)
        return h

    def account(self, address: bytes) -> AccountState | None:
        return self._records["accounts"].get(address)

    # the account writes build the new record directly: replace() costs more
    def credit(self, address: bytes, amount: int) -> None:
        acct = self._records["accounts"][address]
        self.put(AccountState(address, acct.balance + amount, acct.nonce))

    def debit(self, address: bytes, amount: int) -> None:
        acct = self._records["accounts"][address]
        if acct.balance < amount:
            raise ValueError("balance underflow")
        self.put(AccountState(address, acct.balance - amount, acct.nonce))

    def bump_nonce(self, address: bytes) -> None:
        acct = self._records["accounts"][address]
        self.put(AccountState(address, acct.balance, acct.nonce + 1))

    def total_currency(self) -> int:
        """Circulating balances plus funds held in acceptance-test escrow."""
        return sum(a.balance for a in self._records["accounts"].values()) + sum(
            t.escrow for t in self._records["acceptance_tests"].values()
        )

    def _encoding(self, name: str) -> bytes:
        """A section's canonical encoding: its records joined, a keyed
        section's in key order. A keyed section splices in the encodings of
        the keys put since the last read, in key order, so that each search
        starts where the last one ended and in-order puts only append; a log
        encodes only what was appended since the last read."""
        records = self._records[name]
        kept = self._encoded[name]
        if name not in self._noted:
            enc, count = kept
            if count == len(records):
                return enc
            enc += b"".join([r.encoded for r in records[count:]])
            self._encoded[name] = (enc, len(records))
            return enc
        noted = self._noted[name]
        if not noted:
            return kept
        keys, encs = (lst.copy() for lst in self._order[name])
        i = 0
        for key in sorted(noted):
            i = bisect_left(keys, key, i)
            if i < len(keys) and keys[i] == key:
                encs[i] = records[key].encoded
            else:
                keys.insert(i, key)
                encs.insert(i, records[key].encoded)
        noted.clear()
        self._order[name] = keys, encs
        enc = self._encoded[name] = b"".join(encs)
        return enc

    def serialize(self) -> bytes:
        return b"".join([self._encoding(name) for name in _SECTIONS])

    def root(self) -> bytes:
        return hash256(self.serialize())

    @classmethod
    def decode(cls, data: bytes) -> "WorldState":
        """The state that `serialize` wrote as `data`, or DecodeError. Each
        record must carry the tag of a section's type and decode exactly, and
        the records must come in the order and number that `serialize` writes,
        so that the state serializes back to `data`. Each record keeps the
        bytes it was read from as its `encoded`: every kind reads strictly, so
        they are its canonical encoding. `next_seq`, which the root does not
        cover, is one past the largest `seq` of the history records: each took
        the `next_seq` of its time. `height` is left at 0."""
        state = cls()
        r = Reader(data)
        while (start := r.pos) < len(data):
            rtype = _TYPE_OF_TAG.get(r.peek_u8())
            if rtype is None:
                raise DecodeError(f"no section of the state holds tag 0x{r.peek_u8():02x}")
            record = rtype.decode(r)
            record.__dict__["encoded"] = data[start:r.pos]
            state.put(record)
        if state.serialize() != data:
            raise DecodeError("records out of serialization order, or repeated")
        history = [*state.test_cases.values(), *state.executions, *state.feedbacks]
        state.next_seq = 1 + max((rec.seq for rec in history), default=-1)
        return state


def _view(name: str, read_only) -> property:
    # built on each read: a mappingproxy can be neither deep-copied nor pickled
    return property(lambda self: read_only(self._records[name]),
                    doc=f"The {name} section, read-only; write it through put().")


for _name, (_, _key) in _SECTIONS.items():
    setattr(WorldState, _name, _view(_name, MappingProxyType if _key else tuple))
del _name, _key
