"""The record schema in codec: every state record, transaction, block
header and block decodes back from the encoding its schema builds and keeps
that encoding, every kind reads strictly, so that any bytes that decode are
the canonical encoding of what they decode to, and the builder refuses an
unknown kind, a field named twice and a field that is also a kept value."""

import pytest
from hypothesis import given, settings, strategies as st

from testingplus import tx as tx_mod
from testingplus.block import Block, BlockHeader, decode_chain, encode_chain
from testingplus.codec import (BYTES, FLAG, U64, DecodeError, Reader, enc_bytes, flag, kept,
                               nested, record, record_json, schema)
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
)

B = st.binary(max_size=40)
U = st.integers(0, 2**64 - 1)
RECORDS = st.one_of(
    st.builds(AccountState, B, U, U),
    st.builds(CustomerAgreementState, B, B, U),
    st.builds(DeveloperAgreementState, B, B, U),
    st.builds(AcceptanceTestState, B, B, B, U, st.booleans(), U, U, U, B),
    st.builds(CaseRecord, B, B, B, B, B, B, U, U, B, U),
    st.builds(ExecutionRecord, B, B, B, B, st.sampled_from([VERDICT_PASS, VERDICT_FAIL]),
              U, U, B, U),
    st.builds(Feedback, B, B, B, B, U, U, B, U),
    st.builds(BlockHeader, U, B, B, B, U, B),
)
PAYLOADS = st.one_of([
    st.builds(cls, *[U if kind == tx_mod.U64 else B for _, _, kind in cls.FIELDS])
    for cls in tx_mod.PAYLOAD_TYPES
])
TRANSACTIONS = st.builds(tx_mod.Transaction, B, U, PAYLOADS, U, B)
BLOCKS = st.builds(
    Block,
    st.builds(BlockHeader, U, B, B, B, U, B),
    st.lists(TRANSACTIONS, max_size=3).map(tuple),
    st.lists(st.tuples(B, B), max_size=3).map(tuple),
)


@given(RECORDS)
def test_every_record_decodes_back_from_its_encoding(record):
    encoded = record.encode()
    if not isinstance(record, BlockHeader):
        assert encoded == record.encoded
    r = Reader(encoded)
    assert type(record).decode(r) == record
    r.expect_end()


@pytest.mark.parametrize("cls,tag", [
    (AccountState, 0xA1), (CustomerAgreementState, 0xA2), (DeveloperAgreementState, 0xA3),
    (AcceptanceTestState, 0xA4), (CaseRecord, 0xA5), (ExecutionRecord, 0xA6), (Feedback, 0xA7),
])
def test_a_record_refuses_another_records_tag(cls, tag):
    encoded = AccountState(b"\x01" * 20, 5, 0).encoded
    wrong = bytes([tag ^ 0x0F]) + encoded[1:]
    with pytest.raises(DecodeError, match=f"is not {cls.__name__}'s 0x{tag:02x}"):
        cls.decode(Reader(wrong))


def test_verdict_is_written_as_a_flag_and_read_back_as_its_string():
    passed = ExecutionRecord(b"e", b"c", b"t", b"d", VERDICT_PASS, 1, 2, b"h", 3)
    failed = ExecutionRecord(b"e", b"c", b"t", b"d", VERDICT_FAIL, 1, 2, b"h", 3)
    at = 1 + 4 * (4 + 1)  # the tag, then four one-byte strings
    assert passed.encoded[at] == 1 and failed.encoded[at] == 0
    assert ExecutionRecord.decode(Reader(failed.encoded)).verdict == VERDICT_FAIL


@pytest.mark.parametrize("kind", [FLAG, flag(VERDICT_FAIL, VERDICT_PASS)])
@pytest.mark.parametrize("byte", [0x02, 0xFF])
def test_flag_byte_other_than_zero_or_one_is_a_decode_error(kind, byte):
    _, read = kind
    with pytest.raises(DecodeError, match="neither 0 nor 1"):
        read(Reader(bytes([byte])))


def test_flag_byte_in_a_record_is_checked():
    encoded = bytearray(AcceptanceTestState(b"c", b"u", b"d", 7).encoded)
    at = 1 + 3 * (4 + 1) + 8  # the tag, three one-byte strings, the fee
    assert encoded[at] == 0
    encoded[at] = 2
    with pytest.raises(DecodeError):
        AcceptanceTestState.decode(Reader(bytes(encoded)))


def test_truncated_record_is_a_decode_error():
    encoded = CaseRecord(b"c", b"a", b"u", b"d", b"i", b"o", 1, 2, b"h", 3).encoded
    with pytest.raises(DecodeError):
        CaseRecord.decode(Reader(encoded[:-1]))


@pytest.mark.parametrize("kind", [int, "u64", (U64,), (b"", b""), (U64, BYTES)])
def test_schema_refuses_an_unknown_kind(kind):
    with pytest.raises(TypeError, match="'b': .* is not a kind"):
        schema(0x01, a=U64, b=kind)


def test_record_refuses_a_field_named_twice():
    with pytest.raises(TypeError, match="a field is named twice"):
        @record("a", "b", "a")
        class Pair:
            pass


@pytest.mark.parametrize("name", ["_a", "a b", ""])
def test_record_refuses_a_field_name_that_is_not_a_public_identifier(name):
    with pytest.raises(TypeError, match="is not a public identifier"):
        record("b", name)(type("Pair", (), {}))


def test_record_refuses_a_kept_value_named_as_a_field():
    with pytest.raises(TypeError, match=r"Pair\.b is both a field and a kept value"):
        @record("a", "b")
        class Pair:
            @kept
            def b(self):
                return 1


def test_schema_refuses_a_field_named_encoded():
    """`encoded` is the kept encoding that the schema gives."""
    with pytest.raises(TypeError, match="encoded is both a field and a kept value"):
        schema(0x01, a=U64, encoded=BYTES)(type("Pair", (), {}))


def test_header_has_no_tag():
    header = BlockHeader(1, b"p", b"m", b"s", 2, b"v")
    assert header.encode()[:8] == (1).to_bytes(8, "big")


def test_record_json_is_the_fields_in_order_with_bytes_in_hex():
    header = BlockHeader(1, b"\x0a", b"\x0b", b"\x0c", 2, b"\x0d")
    assert list(record_json(header).items()) == [
        ("height", 1), ("prev_hash", "0a"), ("merkle_root", "0b"), ("state_root", "0c"),
        ("timestamp", 2), ("proposer", "0d"),
    ]


@given(st.one_of(TRANSACTIONS, BLOCKS))
def test_transactions_and_blocks_decode_back_and_keep_their_encoding(value):
    encoded = value.encode()
    assert value.encoded == encoded
    r = Reader(encoded)
    assert type(value).decode(r) == value
    r.expect_end()


def _mutate(data: bytes, draw) -> bytes:
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["flip", "insert", "delete"]))
        if how == "insert" or not out:
            out.insert(draw(st.integers(0, len(out))), draw(st.integers(0, 255)))
        elif how == "delete":
            del out[draw(st.integers(0, len(out) - 1))]
        else:
            out[draw(st.integers(0, len(out) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(out)


def _assert_canonical(frame: bytes) -> bool:
    """Decode one stored block frame; if it decodes, its kept and rebuilt
    encodings are exactly the bytes it was read from."""
    try:
        (block,) = decode_chain(enc_bytes(frame))
    except DecodeError:
        return False
    assert block.encoded == frame
    assert block.encode() == frame
    assert all(t.encode() == t.encoded for t in block.transactions)
    return True


@settings(max_examples=300)
@given(BLOCKS, st.data())
def test_mutated_block_that_still_decodes_re_encodes_to_its_bytes(block, data):
    _assert_canonical(_mutate(block.encode(), data.draw))


def test_every_single_bit_flip_of_a_stored_block_that_decodes_is_canonical(local, customer):
    local.submit(customer, tx_mod.DeployCustomerAgreement())
    encoded = local.chain.head.encoded
    decoded = 0
    for i in range(len(encoded) * 8):
        mutated = bytearray(encoded)
        mutated[i // 8] ^= 1 << (i % 8)
        decoded += _assert_canonical(bytes(mutated))
    assert decoded > len(encoded)  # flips inside byte strings and integers still decode


def test_nested_record_refuses_trailing_bytes(customer):
    t = customer.sign(tx_mod.Transaction(customer.address, 0, tx_mod.DeployCustomerAgreement(), 0))
    _, read = nested(tx_mod.Transaction)
    assert read(Reader(enc_bytes(t.encoded))).encoded == t.encoded
    with pytest.raises(DecodeError, match="4 trailing bytes"):
        read(Reader(enc_bytes(t.encoded + b"junk")))


def test_stored_chain_is_length_prefixed_block_frames(local, customer):
    local.submit(customer, tx_mod.DeployCustomerAgreement())
    blocks = local.chain.blocks
    data = encode_chain(blocks)
    assert data == b"".join(len(b.encode()).to_bytes(4, "big") + b.encode() for b in blocks)
    assert decode_chain(data) == blocks
    with pytest.raises(DecodeError):
        decode_chain(data[:-1])
