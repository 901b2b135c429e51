"""Canonical encoding, hashing, and signature round trips."""

import pytest
from hypothesis import given, strategies as st

from testingplus.codec import Reader, enc_bytes, enc_u64, hash256
from testingplus.tx import (
    RegisterTestCase,
    SetTestingFee,
    Transaction,
    decode_transaction,
    sign_transaction,
    verify_transaction,
)

from conftest import Actor, fixture_hex


def test_sha256_empty_vector():
    assert hash256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_sha256_abc_vector():
    assert hash256(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_zero_nonce_encodes_as_eight_zero_bytes():
    assert enc_u64(0) == b"\x00" * 8


def test_u64_range_checked():
    with pytest.raises(ValueError):
        enc_u64(-1)
    with pytest.raises(ValueError):
        enc_u64(2**64)


def test_value_field_is_the_only_difference():
    a = Actor(b"\x55" * 32)
    t1 = Transaction(a.address, 3, SetTestingFee(b"\x00" * 32, 9), 1)
    t2 = Transaction(a.address, 3, SetTestingFee(b"\x00" * 32, 9), 2)
    e1, e2 = t1.encode_unsigned(), t2.encode_unsigned()
    assert e1 != e2
    # the trailing 8 bytes are the value field
    assert e1[:-8] == e2[:-8]
    assert e1[-8:] == enc_u64(1) and e2[-8:] == enc_u64(2)


def test_golden_transaction_encoding(validator):
    tx = Transaction(validator.address, 7, SetTestingFee(bytes(range(32)), 100), 0)
    assert tx.encode_unsigned() == fixture_hex("golden_tx_unsigned.hex")
    signed = validator.sign(tx)
    assert signed.encode() == fixture_hex("golden_tx.hex")


def test_transaction_roundtrip(customer):
    tx = customer.sign(
        Transaction(
            customer.address,
            5,
            RegisterTestCase(b"\x07" * 32, b"desc", b"\x01" * 32, b"\x02" * 32),
            0,
        )
    )
    decoded = decode_transaction(Reader(tx.encode()))
    assert decoded == tx


def test_sign_verify_roundtrip(customer):
    tx = customer.sign(Transaction(customer.address, 0, SetTestingFee(b"\x00" * 32, 1), 0))
    assert verify_transaction(tx, customer.pubkey)


def test_signature_binds_payload(customer):
    tx = customer.sign(Transaction(customer.address, 0, SetTestingFee(b"\x00" * 32, 1), 0))
    tampered = Transaction(tx.sender, tx.nonce, SetTestingFee(b"\x00" * 32, 2), tx.value, tx.signature)
    assert not verify_transaction(tampered, customer.pubkey)


def test_wrong_key_rejected(customer, developer):
    tx = customer.sign(Transaction(customer.address, 0, SetTestingFee(b"\x00" * 32, 1), 0))
    forged = Transaction(developer.address, 0, tx.payload, 0, tx.signature)
    assert not verify_transaction(forged, developer.pubkey)  # the key of the claimed sender


def test_key_sender_mismatch_refused(customer, developer):
    tx = Transaction(customer.address, 0, SetTestingFee(b"\x00" * 32, 1), 0)
    with pytest.raises(ValueError):
        sign_transaction(tx, developer.secret, developer.pubkey)


@given(
    st.tuples(st.binary(min_size=20, max_size=20), st.integers(0, 2**64 - 1),
              st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    st.tuples(st.binary(min_size=20, max_size=20), st.integers(0, 2**64 - 1),
              st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
)
def test_encoding_injective(a, b):
    ta = Transaction(a[0], a[1], SetTestingFee(b"\x00" * 32, a[2]), a[3])
    tb = Transaction(b[0], b[1], SetTestingFee(b"\x00" * 32, b[2]), b[3])
    if a != b:
        assert ta.encode_unsigned() != tb.encode_unsigned()
    else:
        assert ta.encode_unsigned() == tb.encode_unsigned()


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_length_prefix_framing_injective(x, y):
    if x != y:
        assert enc_bytes(x) != enc_bytes(y)
