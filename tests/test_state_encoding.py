"""State serialization against an independent field-by-field encoder.

Each record keeps its own canonical encoding; these tests check that the
joined result is byte-for-byte the layout below, on random states built and
edited through WorldState.put, and that the VM's history lookups follow
those writes too. The history is append-only: a test case put under a case
id the state holds is refused, so the strategies put each case under a case
id of its own.
"""

import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from testingplus.codec import DecodeError
from testingplus.state import (
    AcceptanceTestState,
    AccountState,
    CustomerAgreementState,
    DeveloperAgreementState,
    ExecutionRecord,
    Feedback,
    TestCase as CaseRecord,  # aliased so that pytest does not collect it
    VERDICT_FAIL,
    VERDICT_PASS,
    WorldState,
)


def u64(v):
    return struct.pack(">Q", v)


def lb(b):
    return struct.pack(">I", len(b)) + b


def encode_history_record(r) -> bytes:
    if isinstance(r, CaseRecord):
        return (b"\xa5" + lb(r.case_id) + lb(r.acceptance_contract) + lb(r.author)
                + lb(r.description) + lb(r.input_digest) + lb(r.expected_output_digest)
                + u64(r.tick) + u64(r.block_height) + lb(r.tx_hash) + u64(r.seq))
    if isinstance(r, ExecutionRecord):
        return (b"\xa6" + lb(r.exec_id) + lb(r.case_id) + lb(r.tester)
                + lb(r.actual_output_digest) + bytes([1 if r.verdict == VERDICT_PASS else 0])
                + u64(r.tick) + u64(r.block_height) + lb(r.tx_hash) + u64(r.seq))
    assert isinstance(r, Feedback)
    return (b"\xa7" + lb(r.feedback_id) + lb(r.subject) + lb(r.author) + lb(r.body)
            + u64(r.tick) + u64(r.block_height) + lb(r.tx_hash) + u64(r.seq))


def reference_serialize(s: WorldState) -> bytes:
    """The history in the order it was written, then the keyed sections,
    each in key order. The history view must hold exactly the records of
    the three history sections, each section's in its own order."""
    history = s.history
    assert [r for r in history if isinstance(r, CaseRecord)] == list(s.test_cases.values())
    assert tuple(r for r in history if isinstance(r, ExecutionRecord)) == s.executions
    assert tuple(r for r in history if isinstance(r, Feedback)) == s.feedbacks
    assert len(history) == len(s.test_cases) + len(s.executions) + len(s.feedbacks)
    out = b"".join(encode_history_record(r) for r in history)
    for k in sorted(s.accounts):
        a = s.accounts[k]
        out += b"\xa1" + lb(a.address) + u64(a.balance) + u64(a.nonce)
    for k in sorted(s.customer_agreements):
        c = s.customer_agreements[k]
        out += b"\xa2" + lb(c.contract_id) + lb(c.customer) + u64(c.testing_fee)
    for k in sorted(s.developer_agreements):
        d = s.developer_agreements[k]
        out += b"\xa3" + lb(d.contract_id) + lb(d.developer) + u64(d.reward)
    for k in sorted(s.acceptance_tests):
        t = s.acceptance_tests[k]
        out += (b"\xa4" + lb(t.contract_id) + lb(t.customer) + lb(t.developer)
                + u64(t.testing_fee) + bytes([1 if t.is_test_completed else 0])
                + u64(t.escrow) + u64(t.completed_tick) + u64(t.completed_height)
                + lb(t.completed_tx_hash))
    return out


ids = st.binary(min_size=1, max_size=4)  # short ids so that writes collide
blobs = st.binary(max_size=12)
ints = st.integers(min_value=0, max_value=2**64 - 1)
small = st.integers(min_value=0, max_value=1000)

accounts = st.builds(AccountState, ids, ints, small)
customer_agreements = st.builds(CustomerAgreementState, ids, blobs, ints)
developer_agreements = st.builds(DeveloperAgreementState, ids, blobs, ints)
acceptance_tests = st.builds(AcceptanceTestState, ids, blobs, blobs, ints, st.booleans(),
                             ints, small, small, blobs)
test_cases = st.builds(CaseRecord, ids, ids, blobs, blobs, blobs, blobs, small, small, blobs, small)
executions = st.builds(ExecutionRecord, ids, ids, blobs, blobs,
                       st.sampled_from([VERDICT_PASS, VERDICT_FAIL]), small, small, blobs, small)
feedbacks = st.builds(Feedback, ids, ids, blobs, blobs, small, small, blobs, small)

SECTIONS = {
    "accounts": (accounts, lambda r: r.address),
    "customer_agreements": (customer_agreements, lambda r: r.contract_id),
    "developer_agreements": (developer_agreements, lambda r: r.contract_id),
    "acceptance_tests": (acceptance_tests, lambda r: r.contract_id),
    "test_cases": (test_cases, lambda r: r.case_id),
}


LOGS = {"executions": executions, "feedbacks": feedbacks}
RECORDS = {**{name: strat for name, (strat, _) in SECTIONS.items()}, **LOGS}
# the keyed sections, serialized after the history, each in key order
KEYED = ("accounts", "customer_agreements", "developer_agreements", "acceptance_tests")


@st.composite
def puts(draw):
    """A record of any section: a new key, a replaced key or a log append."""
    return draw(RECORDS[draw(st.sampled_from(list(RECORDS)))])


def fresh(state, record):
    """`record`, or, for a test case, the case under a case id that `state`
    does not hold: the VM never writes a case id twice, and put refuses it."""
    if not isinstance(record, CaseRecord):
        return record
    case_id = record.case_id
    while case_id in state.test_cases:
        case_id += b"+"
    return record.replace(case_id=case_id)


@st.composite
def world_states(draw):
    """A state built by puts of every section in any order, so that the
    history interleaves its three sections."""
    state = WorldState()
    for record in draw(st.lists(puts(), max_size=30)):
        state.put(fresh(state, record))
    return state


@settings(max_examples=200, deadline=None)
@given(world_states(), st.lists(puts(), max_size=8))
def test_serialize_matches_reference_encoder(state, records):
    assert state.serialize() == reference_serialize(state)
    snapshot = state.copy()
    for record in records:
        state.put(fresh(state, record))
        assert state.serialize() == reference_serialize(state)
        assert state.root() == hashlib.sha256(reference_serialize(state)).digest()
    # a copy taken before the writes is untouched by them
    assert snapshot.serialize() == reference_serialize(snapshot)


def rekeyed(state, record, index=0):
    """`record` moved under an existing key of its keyed section (the
    index-th in key order, wrapping), so that putting it replaces that
    entry; else `fresh(state, record)`, as for a history record or an empty
    section."""
    name = {AccountState: "accounts", CustomerAgreementState: "customer_agreements",
            DeveloperAgreementState: "developer_agreements",
            AcceptanceTestState: "acceptance_tests"}.get(type(record))
    keys = sorted(getattr(state, name)) if name else []
    if not keys:
        return fresh(state, record)
    field = "address" if name == "accounts" else "contract_id"
    return record.replace(**{field: keys[index % len(keys)]})


def rescan(s):
    """The VM's lookups worked out from the history alone."""
    by_contract = {}
    for r in s.history:
        if isinstance(r, CaseRecord):
            contract = r.acceptance_contract
            by_contract[contract] = by_contract.get(contract, ()) + (r.case_id,)
    passed = {e.case_id for e in s.executions if e.verdict == VERDICT_PASS}
    return by_contract, passed, {e.exec_id for e in s.executions}


def lookups(s):
    return dict(s.cases_by_contract), set(s.passed), set(s.exec_ids)


@settings(max_examples=100, deadline=None)
@given(world_states(), st.lists(st.tuples(puts(), st.booleans(), st.integers(0, 20)), max_size=8))
def test_history_lookups_follow_writes(state, writes):
    """The VM's lookups, read through their views, agree with a rescan after
    puts that add entries and after puts that replace a keyed entry, on the
    state and on copies of it, each written after copies were taken from
    it: a write on either side of a copy changes no lookup of the other."""
    states = [state]
    assert lookups(state) == rescan(state)
    for record, replacing, pick in writes:
        s = states[pick % len(states)]
        s.put(rekeyed(s, record) if replacing else fresh(s, record))
        states.append(s.copy())
        for t in states:
            assert lookups(t) == rescan(t)
    for name in ("cases_by_contract", "passed", "exec_ids"):
        with pytest.raises(TypeError):
            getattr(state, name)[b"k"] = ()


@settings(max_examples=100, deadline=None)
@given(world_states(), test_cases, test_cases)
def test_a_repeated_case_id_is_refused(state, case, other):
    """put of a test case under a case id the state holds raises and writes
    nothing, on a state and on a copy that shares its tables: both keep
    their serialization, root and lookups, and still share every table."""
    case = fresh(state, case)
    state.put(case)
    repeat = other.replace(case_id=case.case_id)
    clone = state.copy()
    for s in (state, clone):
        before = s.serialize(), s.root(), lookups(s), s.history
        with pytest.raises(ValueError, match="append-only"):
            s.put(repeat)
        assert (s.serialize(), s.root(), lookups(s), s.history) == before
    assert all(state._tables[name] is clone._tables[name] for name in state._tables)


@settings(max_examples=200, deadline=None)
@given(world_states())
def test_decode_reads_back_what_serialize_wrote(state):
    data = reference_serialize(state)
    decoded = WorldState.decode(data)
    assert decoded.serialize() == data
    for name in RECORDS:
        assert getattr(decoded, name) == getattr(state, name)
    assert decoded.history == state.history
    assert decoded.next_seq == max([r.seq for r in state.history], default=-1) + 1


def test_decode_refuses_what_serialize_never_writes():
    a, b = (AccountState(bytes([i]) * 20, i, 0) for i in (1, 2))
    run = ExecutionRecord(b"e1", b"c1", b"t", b"o", VERDICT_FAIL, 2, 2, b"h", 0)
    case = CaseRecord(b"c1", b"contract-a", b"u", b"d", b"i", b"o", 1, 1, b"h", 1)
    for data, message in [
        (case.encode() + case.encode(), "records out of serialization order, or repeated"),
        (a.encode() + b"\xff", "no section of the state holds tag 0xff"),
        (b.encode() + a.encode(), "records out of serialization order, or repeated"),
        (a.encode() + a.encode(), "records out of serialization order, or repeated"),
        (a.encode() + run.encode(), "records out of serialization order, or repeated"),
        (a.encode()[:-1], "unexpected end of input"),
    ]:
        with pytest.raises(DecodeError, match=message):
            WorldState.decode(data)
