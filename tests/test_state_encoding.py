"""State serialization against an independent field-by-field encoder.

Each record keeps its own canonical encoding; these tests check that the
joined result is byte-for-byte the layout below, on random states built
through the constructor and edited through direct writes to the dicts, and
that the VM's history lookups follow such writes too.
"""

import hashlib
import struct
from dataclasses import replace

from hypothesis import given, settings, strategies as st

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


def reference_serialize(s: WorldState) -> bytes:
    out = b""
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
    for k in sorted(s.test_cases):
        c = s.test_cases[k]
        out += (b"\xa5" + lb(c.case_id) + lb(c.acceptance_contract) + lb(c.author)
                + lb(c.description) + lb(c.input_digest) + lb(c.expected_output_digest)
                + u64(c.tick) + u64(c.block_height) + lb(c.tx_hash) + u64(c.seq))
    for e in s.executions:
        out += (b"\xa6" + lb(e.exec_id) + lb(e.case_id) + lb(e.tester)
                + lb(e.actual_output_digest) + bytes([1 if e.verdict == VERDICT_PASS else 0])
                + u64(e.tick) + u64(e.block_height) + lb(e.tx_hash) + u64(e.seq))
    for f in s.feedbacks:
        out += (b"\xa7" + lb(f.feedback_id) + lb(f.subject) + lb(f.author) + lb(f.body)
                + u64(f.tick) + u64(f.block_height) + lb(f.tx_hash) + u64(f.seq))
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


@st.composite
def world_states(draw):
    state = WorldState(
        **{name: {key(r): r for r in draw(st.lists(strat, max_size=6))}
           for name, (strat, key) in SECTIONS.items()},
        executions=draw(st.lists(executions, max_size=6)),
        feedbacks=draw(st.lists(feedbacks, max_size=6)),
    )
    return state


@st.composite
def direct_writes(draw):
    """(section, record) pairs written straight into the state's dict, or
    appended to its list."""
    name = draw(st.sampled_from(list(SECTIONS) + ["executions", "feedbacks"]))
    strat = {"executions": executions, "feedbacks": feedbacks}.get(name)
    return name, draw(strat if strat is not None else SECTIONS[name][0])


def _write(state, name, record):
    if name in SECTIONS:
        getattr(state, name)[SECTIONS[name][1](record)] = record
    else:
        getattr(state, name).append(record)


@settings(max_examples=200, deadline=None)
@given(world_states(), st.lists(direct_writes(), max_size=8))
def test_serialize_matches_reference_encoder(state, writes):
    assert state.serialize() == reference_serialize(state)
    snapshot = state.copy()
    for name, record in writes:
        _write(state, name, record)
        assert state.serialize() == reference_serialize(state)
        assert state.root() == hashlib.sha256(reference_serialize(state)).digest()
    # a copy taken before the writes is untouched by them
    assert snapshot.serialize() == reference_serialize(snapshot)


def _replace_in_place(state, name, record):
    """Overwrite an entry of a non-empty section with `record`, so that
    the section keeps its size; False if the section is empty."""
    section = getattr(state, name)
    if not section:
        return False
    if name == "executions" or name == "feedbacks":
        section[len(section) // 2] = record
    else:
        key = sorted(section)[0]
        field = {"test_cases": "case_id", "accounts": "address"}.get(name, "contract_id")
        section[key] = replace(record, **{field: key})
    return True


@settings(max_examples=100, deadline=None)
@given(world_states(),
       st.lists(st.tuples(direct_writes(), st.sampled_from(["api", "direct", "replace"])), max_size=8))
def test_history_lookups_follow_writes(state, writes):
    """The VM's lookups agree with a rescan after writes through
    add_test_case/add_execution, after direct writes that add entries and
    after direct writes that replace one and keep the section's size."""
    def rescan(s):
        by_contract = {}
        for c in s.test_cases.values():
            by_contract.setdefault(c.acceptance_contract, set()).add(c.case_id)
        passed = {e.case_id for e in s.executions if e.verdict == VERDICT_PASS}
        return by_contract, passed, {e.exec_id for e in s.executions}

    def lookups(s):
        h = s.history()
        return {k: set(v) for k, v in h.cases_by_contract.items()}, h.passed, h.exec_ids

    assert lookups(state) == rescan(state)
    for (name, record), how in writes:
        if how == "replace" and _replace_in_place(state, name, record):
            pass
        elif name == "test_cases" and (how == "api" or record.case_id in state.test_cases):
            state.add_test_case(record)
        elif name == "executions" and how == "api":
            state.add_execution(record)
        else:
            _write(state, name, record)
        clone = state.copy()
        assert lookups(state) == rescan(state)
        assert lookups(clone) == rescan(clone)


def test_same_size_replacements_refresh_history():
    case = CaseRecord(b"c1", b"contract-a", b"u", b"d", b"i", b"o", 1, 1, b"h", 0)
    run = ExecutionRecord(b"e1", b"c1", b"t", b"o", VERDICT_FAIL, 2, 2, b"h", 1)
    state = WorldState()
    state.add_test_case(case)
    state.add_execution(run)
    assert state.history().passed == set()

    state.executions[0] = replace(run, verdict=VERDICT_PASS)
    assert state.history().passed == {b"c1"}
    state.test_cases[b"c1"] = replace(case, acceptance_contract=b"contract-b")
    assert state.history().cases_by_contract == {b"contract-b": (b"c1",)}
    state.add_test_case(replace(case, acceptance_contract=b"contract-c"))
    assert state.history().cases_by_contract == {b"contract-c": (b"c1",)}

    # sections replaced whole, by ones of the same size and write count
    state = WorldState(test_cases={b"c1": case}, executions=[run])
    assert state.history().cases_by_contract == {b"contract-a": (b"c1",)}
    state.test_cases = {b"c1": replace(case, acceptance_contract=b"contract-b")}
    state.executions = [replace(run, verdict=VERDICT_PASS)]
    assert state.history().cases_by_contract == {b"contract-b": (b"c1",)}
    assert state.history().passed == {b"c1"}
    assert state.copy().history() == state.history()
