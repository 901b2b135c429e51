"""WorldState.put is the only write into the world state.

Random sequences of puts (new keys, replaced keys, log appends) with reads
in between must keep `serialize()` equal to the field-by-field reference
encoder, and `root()` equal to its SHA-256, on the state, its copies, deep
copies and decodes, with the history in the order it was written.
Every container mutator on a section view is refused and leaves the root as
it was, and a transaction that writes no history record feeds none of the
history to the next root's hash.
"""

import copy
import hashlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from testingplus.state import (AccountState, ExecutionRecord, Feedback, TestCase as CaseRecord,
                               WorldState)
from testingplus.tx import DeployCustomerAgreement, SetTestingFee
from testingplus.vm import apply_transaction, created_id

from test_execution_cache import CUSTOMER, Engagement
from test_state_encoding import (LOGS, RECORDS, SECTIONS, fresh, lookups, reference_serialize,
                                 rekeyed, world_states)

# every way to write a dict or a list, as a caller would write it into a
# section; `k` is a key or index and `r` a record of the section
KEYED_WRITES = [
    "state.{name}[k] = r", "del state.{name}[k]", "state.{name}.pop(k)",
    "state.{name}.popitem()", "state.{name}.setdefault(k, r)", "state.{name}.update({{k: r}})",
    "state.{name}.clear()", "state.{name} |= {{k: r}}", "state.{name} = {{k: r}}",
]
LOG_WRITES = [
    "state.{name}.append(r)", "state.{name}.extend([r])", "state.{name} += [r]",
    "state.{name} += (r,)", "state.{name}[k] = r", "state.{name}[k:k + 2] = [r]",
    "del state.{name}[k]", "del state.{name}[k:]", "state.{name}.insert(k, r)",
    "state.{name}.pop(k)", "state.{name}.remove(r)", "state.{name}.sort(key=lambda x: x.seq)",
    "state.{name}.reverse()", "state.{name} *= 2", "state.{name}.clear()",
    "state.{name} = [r]",
]


def writes(name):
    return LOG_WRITES if name in LOGS else KEYED_WRITES


@st.composite
def puts(draw):
    """(section, record, replacing, index): with `replacing`, the record is
    moved under an existing key of its keyed section, if it has one, so that
    putting it replaces that entry. A test case is put under a case id of
    its own either way."""
    name = draw(st.sampled_from(list(RECORDS)))
    return name, draw(RECORDS[name]), draw(st.booleans()), draw(st.integers(0, 50))


def put(state, name, record, replacing, index):
    state.put(rekeyed(state, record, index) if replacing else fresh(state, record))


def refused(state, name, write, record):
    """Run one write that bypasses put(); the view must refuse it: item
    writes raise TypeError, and the view lacks the other mutators and has no
    setter (AttributeError). The state must stay exactly as it was."""
    before = state.serialize()
    key = min(getattr(state, name), default=0) if name in SECTIONS else 0
    with pytest.raises((TypeError, AttributeError)):
        exec(write.format(name=name), {"state": state, "k": key, "r": record})
    assert_matches_reference(state)
    assert state.serialize() == before


def assert_matches_reference(state):
    expected = reference_serialize(state)
    assert state.serialize() == expected
    assert state.root() == hashlib.sha256(expected).digest()


@st.composite
def steps(draw):
    """A put, or (with a write) that record written past put() instead."""
    name, record, replacing, index = draw(puts())
    write = draw(st.none() | st.sampled_from(writes(name)))
    return name, record, replacing, index, write, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(world_states(), st.lists(steps(), max_size=12))
def test_every_mutator_keeps_serialize_exact(state, edits):
    assert_matches_reference(state)
    for name, record, replacing, index, write, read in edits:
        if write is None:
            put(state, name, record, replacing, index)
        else:
            refused(state, name, write, record)
        if read:  # unread steps pile several puts onto one kept encoding
            assert_matches_reference(state)
    assert_matches_reference(state)


@settings(max_examples=100, deadline=None)
@given(world_states(), st.lists(puts(), min_size=1, max_size=6),
       st.lists(puts(), min_size=1, max_size=6))
def test_clone_and_original_do_not_share_writes(state, clone_puts, original_puts):
    before = state.serialize()
    clone = state.copy()
    for args in clone_puts:
        put(clone, *args)
        assert_matches_reference(clone)
        assert state.serialize() == before
    clone_bytes = clone.serialize()
    for args in original_puts:
        put(state, *args)
        assert_matches_reference(state)
        assert clone.serialize() == clone_bytes


@settings(max_examples=60, deadline=None)
@given(world_states(), st.lists(puts(), max_size=6), st.lists(puts(), min_size=1, max_size=6))
def test_copies_and_deep_copies_keep_the_root(state, before, after):
    for args in before:
        put(state, *args)
    root = state.root()  # every kept encoding is filled
    for twin in (copy.copy(state), copy.deepcopy(state)):
        assert twin.root() == root
        assert_matches_reference(twin)
        assert lookups(twin) == lookups(state)
        for args in after:
            put(twin, *args)
            assert_matches_reference(twin)
    assert state.root() == root


def test_a_state_cannot_be_pickled():
    """A state's midstate is a hashlib object, which pickle refuses, so no
    pickle can drop it or share tables between states it was taken from."""
    state = WorldState()
    state.put(AccountState(b"a", 1, 0))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(TypeError, match="pickle"):
            pickle.dumps(state, protocol)


TWINS = {
    "copy": WorldState.copy,
    "copy.copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "decode": lambda s: WorldState.decode(s.serialize()),
}


@settings(max_examples=150, deadline=None)
@given(world_states(), st.lists(st.tuples(st.sampled_from(["put", *TWINS]), st.integers(0, 20),
                                          puts(), st.booleans()), max_size=25))
def test_root_hashes_serialize_through_copies_and_decodes(state, steps):
    """States made from one another by copy, copy.copy, deepcopy and decode,
    and written by put, each keep their own history in write order, and
    each root is the SHA-256 of its serialization. The copies keep the
    midstate, and a decode starts it afresh."""
    states = [(state, list(state.history))]
    for op, pick, (name, record, replacing, index), read in steps:
        s, history = states[pick % len(states)]
        if op == "put":
            record = rekeyed(s, record, index) if replacing else fresh(s, record)
            s.put(record)
            if isinstance(record, (CaseRecord, ExecutionRecord, Feedback)):
                history.append(record)
        else:
            twin = TWINS[op](s)
            assert twin._hashed == (0 if op == "decode" else s._hashed)
            states.append((twin, list(history)))
        assert s.history == tuple(history)
        if read:  # the midstate then covers the whole history
            assert_matches_reference(s)
            assert s._hashed == len(history)
    for s, history in states:
        assert s.history == tuple(history)
        assert_matches_reference(s)


@settings(max_examples=20, deadline=None)
@given(world_states(), st.fixed_dictionaries(RECORDS))
def test_every_write_past_put_is_refused(state, records):
    for name, record in records.items():
        for write in writes(name):
            refused(state, name, write, record)
        state.put(fresh(state, record))  # so that the next pass sees the section non-empty
        for write in writes(name):
            refused(state, name, write, record)
    with pytest.raises(TypeError):
        WorldState(accounts={})
    with pytest.raises(TypeError, match="no section"):
        state.put(object())


def test_transaction_outside_the_history_keeps_its_encodings():
    """A set_testing_fee writes accounts and customer agreements only, so the
    history is not written and the next root feeds none of it to the hash:
    the work per transaction does not grow with the test history."""
    eng = Engagement()
    for _ in range(5):
        eng.append(eng.next_txs())
    deploy = eng.tx(CUSTOMER, DeployCustomerAgreement())
    eng.append([deploy])
    contract = created_id(deploy.payload, deploy.sender, deploy.nonce)

    state = eng.chain.state.copy()
    written = ("accounts", "customer_agreements")
    kept = {name: state._encoding(name) for name in written}
    history = state.history
    assert len(history) == 15 and state._hashed == 15  # the head's root covered all of it

    receipt = apply_transaction(state, eng.tx(CUSTOMER, SetTestingFee(contract, 25)))
    assert receipt.ok
    state.root()
    assert state.history == history and state._hashed == 15
    for name in written:
        assert state._encoding(name) != kept[name]
    assert_matches_reference(state)
