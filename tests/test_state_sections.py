"""Each world-state section keeps its joined encoding and drops it when it
is written.

Every mutator of the keyed sections (dicts) and of the append-only sections
(executions, feedbacks) is run on random states, and after each step
`serialize()` must equal the field-by-field reference encoder. Copies,
deep copies, pickles and plain containers written into a state must keep
that true, and a transaction that touches neither the test registry nor the
history must leave those sections' kept bytes as they were.
"""

import copy
import dataclasses
import hashlib
import pickle

from hypothesis import given, settings, strategies as st

from testingplus.state import KeyedSection, LogSection, WorldState
from testingplus.tx import DeployCustomerAgreement, SetTestingFee
from testingplus.vm import apply_transaction, contract_id_for

from test_execution_cache import CUSTOMER, Engagement
from test_state_encoding import SECTIONS, executions, feedbacks, reference_serialize, world_states

LOGS = {"executions": executions, "feedbacks": feedbacks}
KEYED_OPS = ["setitem", "delitem", "pop", "popitem", "setdefault", "update", "clear", "ior"]
LOG_OPS = ["append", "extend", "iadd", "setitem", "setslice", "delitem", "delslice", "insert",
           "pop", "remove", "sort", "reverse", "imul", "clear"]


@st.composite
def edits(draw):
    """(section, op, records, index, read afterwards): one mutator call on
    one section; `index` picks an existing key or position."""
    name = draw(st.sampled_from(list(SECTIONS) + list(LOGS)))
    records = draw(st.lists(LOGS[name] if name in LOGS else SECTIONS[name][0],
                            min_size=1, max_size=3))
    op = draw(st.sampled_from(LOG_OPS if name in LOGS else KEYED_OPS))
    return name, op, records, draw(st.integers(0, 50)), draw(st.booleans())


def apply_edit(state, name, op, records, index):
    section = getattr(state, name)
    if name in LOGS:
        at = index % len(section) if section else 0
        if op == "append":
            section.append(records[0])
        elif op == "extend":
            section.extend(records)
        elif op == "iadd":
            section += records
        elif op == "setitem" and section:
            section[at] = records[0]
        elif op == "setslice":
            section[at:at + 2] = records
        elif op == "delitem" and section:
            del section[at]
        elif op == "delslice":
            del section[at:]
        elif op == "insert":
            section.insert(at, records[0])
        elif op == "pop" and section:
            section.pop(at)
        elif op == "remove" and section:
            section.remove(section[at])
        elif op == "sort":
            section.sort(key=lambda r: r.encoded)
        elif op == "reverse":
            section.reverse()
        elif op == "imul":  # repeated doubling would outgrow the reference encoder
            section *= index % 3 if len(section) < 10 else 1
        elif op == "clear":
            section.clear()
        return
    key_of = SECTIONS[name][1]
    keys = sorted(section)
    key = keys[index % len(keys)] if keys and index % 2 else key_of(records[0])
    if op == "setitem":
        section[key] = records[0]
    elif op == "delitem" and key in section:
        del section[key]
    elif op == "pop":
        section.pop(key, None)
    elif op == "popitem" and section:
        section.popitem()
    elif op == "setdefault":
        section.setdefault(key, records[0])
    elif op == "update":
        section.update({key_of(r): r for r in records})
    elif op == "clear":
        section.clear()
    elif op == "ior":
        section |= {key_of(r): r for r in records}


def assert_matches_reference(state):
    expected = reference_serialize(state)
    assert state.serialize() == expected
    assert state.root() == hashlib.sha256(expected).digest()


@settings(max_examples=200, deadline=None)
@given(world_states(), st.lists(edits(), max_size=12))
def test_every_mutator_keeps_serialize_exact(state, steps):
    assert_matches_reference(state)
    for name, op, records, index, read in steps:
        apply_edit(state, name, op, records, index)
        if read:  # unread steps pile several writes onto one kept encoding
            assert_matches_reference(state)
    assert_matches_reference(state)


@settings(max_examples=100, deadline=None)
@given(world_states(), st.lists(edits(), min_size=1, max_size=6),
       st.lists(edits(), min_size=1, max_size=6))
def test_clone_and_original_do_not_share_writes(state, clone_steps, original_steps):
    before = state.serialize()
    clone = state.copy()
    for name, op, records, index, _ in clone_steps:
        apply_edit(clone, name, op, records, index)
        assert_matches_reference(clone)
        assert state.serialize() == before
    clone_bytes = clone.serialize()
    for name, op, records, index, _ in original_steps:
        apply_edit(state, name, op, records, index)
        assert_matches_reference(state)
        assert clone.serialize() == clone_bytes


@settings(max_examples=60, deadline=None)
@given(world_states(), st.lists(edits(), max_size=6), executions, feedbacks)
def test_deepcopy_and_pickle_round_trips_keep_the_root(state, steps, ex, fb):
    for name, op, records, index, _ in steps:
        apply_edit(state, name, op, records, index)
    root = state.root()  # every kept encoding is filled
    for twin in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert twin.root() == root
        assert_matches_reference(twin)
        assert all(type(getattr(twin, n)) is KeyedSection for n in SECTIONS)
        assert all(type(getattr(twin, n)) is LogSection for n in LOGS)
    for twin in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        twin.executions.append(ex)
        twin.feedbacks.append(fb)
        assert_matches_reference(twin)
    assert state.root() == root


@settings(max_examples=60, deadline=None)
@given(world_states(), world_states())
def test_plain_containers_written_to_a_state_serialize_exactly(state, other):
    state.serialize()
    plain = {name: dict(getattr(other, name)) for name in SECTIONS}
    plain.update({name: list(getattr(other, name)) for name in LOGS})
    for name, value in plain.items():
        setattr(state, name, value)
        assert_matches_reference(state)
    assert state.serialize() == other.serialize()
    for name, value in plain.items():
        assert type(getattr(state, name)) is (LogSection if name in LOGS else KeyedSection)
        assert getattr(state, name) == value
    assert dataclasses.replace(other, **plain).serialize() == other.serialize()
    assert WorldState(**plain).serialize() == other.serialize()


def test_transaction_outside_the_history_keeps_its_encodings():
    """A set_testing_fee writes accounts and customer agreements only, so the
    test cases, executions and feedbacks keep the very same bytes objects:
    the re-encoding per transaction does not grow with the test history."""
    eng = Engagement()
    for _ in range(5):
        eng.append(eng.next_txs())
    nonce = eng.nonces[CUSTOMER.address]
    eng.append([eng.tx(CUSTOMER, DeployCustomerAgreement())])
    contract = contract_id_for(CUSTOMER.address, nonce, DeployCustomerAgreement.TAG)

    state = eng.chain.state.copy()
    history = ("test_cases", "executions", "feedbacks")
    written = ("accounts", "customer_agreements")
    kept = {name: getattr(state, name).encoded for name in history + written}
    assert all(len(getattr(state, name)) == 5 for name in history)

    receipt = apply_transaction(state, eng.tx(CUSTOMER, SetTestingFee(contract, 25)))
    assert receipt.ok
    for name in history:
        assert getattr(state, name).encoded is kept[name]
    for name in written:
        assert getattr(state, name).encoded != kept[name]
    assert_matches_reference(state)
