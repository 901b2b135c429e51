"""World state: accounts, contract instances, and the test registry.

The state root is the SHA-256 of a canonical serialization: first the
history, every record that carries a `seq` (test cases, executions and
feedbacks) in the order it was written, which for a state the VM built is
ascending `seq`; then the accounts, customer agreements, developer
agreements and acceptance tests, each section in key order. Two states
with the same keyed entries and the same history agree, whatever order the
keyed entries were written in.

Each record type declares its tag and field kinds with codec.schema. Records
are frozen: a change replaces the record, so each record computes its
canonical encoding once and keeps it.

WorldState.put(record) is the only way to write the state. The record's type
picks its section: a keyed record replaces the entry under its key, and the
key is noted; a history record is appended to the history, which only grows.
Case ids come from (sender, nonce), so the VM never writes a case id twice,
and a test case put under a case id the state holds is refused before
anything is written. Each keyed section keeps its keys in key order beside
their records' encodings, and the next read splices in only the noted keys'
encodings, so a write costs in proportion to what it writes, not to the size
of its section. Since the history only grows, root() keeps a SHA-256 midstate
over the history records already hashed, feeds it only the ones written
since, and hashes a copy of it together with the keyed sections: a root
costs the new history and the keyed sections, not the whole history. put()
also keeps the VM's lookups into the history as tables: the cases of each
acceptance contract, the cases with a passing run, and the execution ids.
Every table is read through a read-only view, so a write that bypasses put()
fails instead of leaving a stale root or lookup.

copy() shares what it can: the history list, which each state reads only up
to its own length and which a write past that length forks, and every table,
which the first write on either side copies. A state cannot be pickled: its
midstate is a hashlib object.
"""

from __future__ import annotations

from bisect import bisect_left
from hashlib import sha256
from operator import attrgetter
from types import MappingProxyType

from .codec import BYTES, FLAG, U64, ZERO_HASH, DecodeError, Reader, flag, schema

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


# keyed section name -> (record type, key field), in serialization order,
# after the history
_KEYED = {
    "accounts": (AccountState, "address"),
    "customer_agreements": (CustomerAgreementState, "contract_id"),
    "developer_agreements": (DeveloperAgreementState, "contract_id"),
    "acceptance_tests": (AcceptanceTestState, "contract_id"),
}
# record type -> its keyed section, or None for the history records, which
# carry a `seq` and are serialized first, all together, in write order
_SECTION_OF = {TestCase: None, ExecutionRecord: None, Feedback: None,
               **{rtype: name for name, (rtype, _) in _KEYED.items()}}
_KEY_OF = {name: attrgetter(key) for name, (_, key) in _KEYED.items()}
# every table of the state: the keyed sections, the test cases by case id,
# and the VM's lookups into the history
_TABLES = (*_KEYED, "test_cases", "cases_by_contract", "passed", "exec_ids")
# record tag -> record type
_TYPE_OF_TAG = {rtype.TAG: rtype for rtype in _SECTION_OF}


class WorldState:
    """Every table is read through a read-only view named after it, and the
    history through `history`; put() is the only write."""

    __slots__ = ("_tables", "_owned", "_log", "_logged", "_mid", "_hashed", "_order", "_noted",
                 "_encoded", "next_seq", "height")

    def __init__(self) -> None:
        # table name -> its entries by key: the keyed sections, the test
        # cases, and the VM's lookups (contract -> its case ids in history
        # order; the passed case ids and the execution ids, as keys)
        self._tables = {name: {} for name in _TABLES}
        # the names of the tables that no copy shares, so that this state may
        # write them in place
        self._owned = set(_TABLES)
        # the history is self._log[:self._logged]: a copy shares the list,
        # and a state appends in place only while it holds the whole list
        self._log: list = []
        self._logged = 0
        # SHA-256 midstate over the first self._hashed history records
        self._mid = sha256()
        self._hashed = 0
        # keyed section name -> (its keys in key order, their records'
        # encodings in the same order), as of the last read; a read splices
        # into copies, so these lists are never changed and copies share them
        self._order = {name: ([], []) for name in _KEYED}
        # keyed section name -> the keys put since the last read, as dict keys
        self._noted: dict[str, dict] = {name: {} for name in _KEYED}
        # keyed section name -> its kept joined encoding as of the last read
        self._encoded = dict.fromkeys(_KEYED, b"")
        self.next_seq = 0
        self.height = 0  # last applied block height; not part of the root

    def put(self, record) -> None:
        """Write `record` into the section of its type: a keyed record
        replaces the entry under its key, and a history record is appended
        to the history. A test case under a case id the state holds raises
        ValueError, and nothing is written."""
        try:
            name = _SECTION_OF[type(record)]
        except KeyError:
            raise TypeError(f"no section of the state holds a {type(record).__name__}") from None
        if name is None:
            self._put_history(record)
            return
        key = _KEY_OF[name](record)
        self._writable(name)[key] = record
        self._noted[name][key] = None

    def _put_history(self, rec) -> None:
        if rec.__class__ is TestCase:
            if rec.case_id in self._tables["test_cases"]:
                raise ValueError(f"the state holds test case {rec.case_id.hex()}: "
                                 "the history is append-only")
            self._writable("test_cases")[rec.case_id] = rec
            by_contract = self._writable("cases_by_contract")
            contract = rec.acceptance_contract
            by_contract[contract] = by_contract.get(contract, ()) + (rec.case_id,)
        elif rec.__class__ is ExecutionRecord:
            self._writable("exec_ids")[rec.exec_id] = None
            if rec.verdict == VERDICT_PASS:
                self._writable("passed")[rec.case_id] = None
        log = self._log
        if len(log) != self._logged:  # a copy has appended to the shared list
            log = self._log = log[:self._logged]
        log.append(rec)
        self._logged += 1

    def _writable(self, name: str) -> dict:
        """The table `name`, copied first if a copy of this state shares it."""
        table = self._tables[name]
        if name not in self._owned:
            table = self._tables[name] = table.copy()
            self._owned.add(name)
        return table

    def copy(self) -> "WorldState":
        # records are frozen and kept bytes immutable, so both states may hold
        # them; the tables are shared until either side writes
        clone = object.__new__(WorldState)
        clone._tables = self._tables.copy()
        clone._owned = set()
        self._owned.clear()
        clone._log, clone._logged = self._log, self._logged
        clone._mid, clone._hashed = self._mid.copy(), self._hashed
        clone._order = self._order.copy()
        clone._noted = {name: noted.copy() for name, noted in self._noted.items()}
        clone._encoded = self._encoded.copy()
        clone.next_seq = self.next_seq
        clone.height = self.height
        return clone

    # copy.copy must not share the midstate, and nothing a copy shares is
    # written in place, so a deep copy is a copy too
    __copy__ = copy

    def __deepcopy__(self, memo) -> "WorldState":
        return self.copy()

    @property
    def history(self) -> tuple:
        """The history records in the order they were written, read-only."""
        return tuple(self._log[:self._logged])

    def account(self, address: bytes) -> AccountState | None:
        return self._tables["accounts"].get(address)

    # the account writes build the new record directly: replace() costs more
    def credit(self, address: bytes, amount: int) -> None:
        acct = self._tables["accounts"][address]
        self.put(AccountState(address, acct.balance + amount, acct.nonce))

    def debit(self, address: bytes, amount: int) -> None:
        acct = self._tables["accounts"][address]
        if acct.balance < amount:
            raise ValueError("balance underflow")
        self.put(AccountState(address, acct.balance - amount, acct.nonce))

    def bump_nonce(self, address: bytes) -> None:
        acct = self._tables["accounts"][address]
        self.put(AccountState(address, acct.balance, acct.nonce + 1))

    def _encoding(self, name: str) -> bytes:
        """A keyed section's canonical encoding: its records joined in key
        order. It splices in the encodings of the keys put since the last
        read, in key order, so that each search starts where the last one
        ended and in-order puts only append."""
        noted = self._noted[name]
        if not noted:
            return self._encoded[name]
        records = self._tables[name]
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
        return b"".join([rec.encoded for rec in self._log[:self._logged]]
                        + [self._encoding(name) for name in _KEYED])

    def root(self) -> bytes:
        """SHA-256 of serialize(): the midstate takes in the history records
        written since the last root, and a copy of it then takes in the
        keyed sections."""
        n = self._logged
        if self._hashed < n:
            self._mid.update(b"".join([rec.encoded for rec in self._log[self._hashed:n]]))
            self._hashed = n
        digest = self._mid.copy()
        for name in _KEYED:
            digest.update(self._encoding(name))
        return digest.digest()

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
            try:
                state.put(record)
            except ValueError as exc:  # a case id repeated
                raise DecodeError("records out of serialization order, or repeated") from exc
        if state.serialize() != data:
            raise DecodeError("records out of serialization order, or repeated")
        state.next_seq = 1 + max((rec.seq for rec in state._log), default=-1)
        return state


def _table_view(name: str) -> property:
    # built on each read: a mappingproxy cannot be deep-copied
    return property(lambda self: MappingProxyType(self._tables[name]),
                    doc=f"The {name} table, read-only; write it through put().")


def _log_view(name: str, rtype) -> property:
    return property(lambda self: tuple([r for r in self._log[:self._logged] if r.__class__ is rtype]),
                    doc=f"The {name} section, in history order, read-only; write it through put().")


for _name in _TABLES:
    setattr(WorldState, _name, _table_view(_name))
WorldState.executions = _log_view("executions", ExecutionRecord)
WorldState.feedbacks = _log_view("feedbacks", Feedback)
del _name
