"""Transactions and their payload variants.

Canonical layout of an unsigned transaction: sender, nonce, payload
(1-byte variant tag followed by the variant's fields), value. The detached
signature covers exactly those bytes; the signed encoding appends it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Union

from .codec import ADDRESS_LEN, HASH_LEN, Reader, U64_MAX, enc_bytes, enc_u64, hash256, DecodeError
from .keys import KeyRegistry, UnknownSenderError, address_from_pubkey, sign, verify

MAX_PAYLOAD_BYTES = 64 * 1024
MAX_TEXT_BYTES = 4 * 1024

# Field kinds of the payload table. Every kind but U64 is a length-prefixed
# byte string on chain; the kind says how a JSON op entry spells the field.
ID = "id"  # a contract, case or execution id, resolved by the caller
ACCOUNT = "account"  # an account address, resolved by the caller
DIGEST = "digest"  # hex at "<key>_digest", else the caller's digest of the text at <key>
TEXT = "text"  # text at <key>, empty if absent
U64 = "u64"  # a JSON integer or decimal string within u64
# byte length an id, account or digest field must have in an op entry
_SIZES = {ID: HASH_LEN, ACCOUNT: ADDRESS_LEN, DIGEST: HASH_LEN}

# Each payload class carries its tag, its op name in JSON and FIELDS: the
# JSON key and kind of each dataclass field, in encoding order.


@dataclass(frozen=True)
class DeployCustomerAgreement:
    TAG, OP, FIELDS = 0x01, "deploy_customer_agreement", ()


@dataclass(frozen=True)
class SetTestingFee:
    TAG, OP, FIELDS = 0x02, "set_testing_fee", (("contract", ID), ("fee", U64))
    contract_id: bytes
    fee: int


@dataclass(frozen=True)
class DeployDeveloperAgreement:
    TAG, OP, FIELDS = 0x03, "deploy_developer_agreement", ()


@dataclass(frozen=True)
class SetReward:
    TAG, OP, FIELDS = 0x04, "set_reward", (("contract", ID), ("amount", U64))
    contract_id: bytes
    amount: int


@dataclass(frozen=True)
class DeployAcceptanceTest:
    TAG, OP = 0x05, "deploy_acceptance_test"
    FIELDS = (("customer", ACCOUNT), ("developer", ACCOUNT), ("fee", U64))
    customer: bytes
    developer: bytes
    fee: int


@dataclass(frozen=True)
class InitiateTest:
    TAG, OP, FIELDS = 0x06, "initiate_test", (("contract", ID),)
    contract_id: bytes


@dataclass(frozen=True)
class CompleteTest:
    TAG, OP, FIELDS = 0x07, "complete_test", (("contract", ID),)
    contract_id: bytes


@dataclass(frozen=True)
class RegisterTestCase:
    TAG, OP = 0x10, "register_test_case"
    FIELDS = (("contract", ID), ("description", TEXT), ("input", DIGEST),
              ("expected_output", DIGEST))
    acceptance_contract: bytes
    description: bytes
    input_digest: bytes
    expected_output_digest: bytes


@dataclass(frozen=True)
class RecordExecution:
    TAG, OP, FIELDS = 0x11, "record_execution", (("case", ID), ("actual_output", DIGEST))
    case_id: bytes
    actual_output_digest: bytes


@dataclass(frozen=True)
class PostFeedback:
    TAG, OP, FIELDS = 0x12, "post_feedback", (("subject", ID), ("body", TEXT))
    subject: bytes
    body_text: bytes


PAYLOAD_TYPES = (
    DeployCustomerAgreement,
    SetTestingFee,
    DeployDeveloperAgreement,
    SetReward,
    DeployAcceptanceTest,
    InitiateTest,
    CompleteTest,
    RegisterTestCase,
    RecordExecution,
    PostFeedback,
)
Payload = Union[PAYLOAD_TYPES]
_BY_TAG = {cls.TAG: cls for cls in PAYLOAD_TYPES}
_BY_OP = {cls.OP: cls for cls in PAYLOAD_TYPES}
# class -> (tag byte, ((attribute, encoder), ...)) and class -> readers, built
# once: verify_transaction re-encodes the payload on every check
_ENCODERS = {
    cls: (
        bytes([cls.TAG]),
        tuple(
            (f.name, enc_u64 if kind == U64 else enc_bytes)
            for f, (_, kind) in zip(fields(cls), cls.FIELDS, strict=True)
        ),
    )
    for cls in PAYLOAD_TYPES
}
_READERS = {
    cls: tuple(Reader.read_u64 if kind == U64 else Reader.read_bytes for _, kind in cls.FIELDS)
    for cls in PAYLOAD_TYPES
}


def encode_payload(payload: Payload) -> bytes:
    tag, encoders = _ENCODERS[type(payload)]
    return tag + b"".join([enc(getattr(payload, name)) for name, enc in encoders])


def decode_payload(r: Reader) -> Payload:
    tag = r.read_u8()
    cls = _BY_TAG.get(tag)
    if cls is None:
        raise DecodeError(f"unknown payload tag 0x{tag:02x}")
    return cls(*[read(r) for read in _READERS[cls]])


def parse_u64(value) -> int:
    """A JSON integer or decimal string within u64; ValueError otherwise."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        value = int(value)
    if type(value) is not int or not 0 <= value <= U64_MAX:
        raise ValueError(f"not a u64: {value!r}")
    return value


def hex_bytes(value) -> bytes:
    if not isinstance(value, str):
        raise ValueError(f"not a hex string: {value!r}")
    return bytes.fromhex(value)


def payload_from_json(entry: dict, ident, account, digest) -> Payload:
    """The payload an op entry such as {"op": "set_testing_fee", "contract":
    "<hex>", "fee": 25} describes. `ident` and `account` resolve an id or
    account field's JSON value to bytes, `digest` maps text to its digest.
    Raises ValueError for an unknown op or a missing or malformed field, an
    id or digest that is not 32 bytes among them, or an account not 20."""
    op = entry.get("op")
    cls = _BY_OP.get(op)
    if cls is None:
        raise ValueError(f"unknown op {op!r}")
    values = []
    for key, kind in cls.FIELDS:
        if kind == TEXT:
            value = str(entry.get(key, "")).encode()
        elif kind == DIGEST:
            hex_key = key + "_digest"
            value = (hex_bytes(entry[hex_key]) if hex_key in entry
                     else digest(str(entry.get(key, "")).encode()))
        elif key not in entry:
            raise ValueError(f"{op} needs a {key!r} field")
        elif kind == U64:
            value = parse_u64(entry[key])
        else:
            value = (ident if kind == ID else account)(entry[key])
        size = _SIZES.get(kind)
        if size is not None and len(value) != size:
            raise ValueError(f"{op} field {key!r} must be {size} bytes, not {len(value)}")
        values.append(value)
    return cls(*values)


@dataclass(frozen=True)
class Transaction:
    sender: bytes
    nonce: int
    payload: Payload
    value: int
    signature: bytes = b""

    def encode_unsigned(self) -> bytes:
        return (
            enc_bytes(self.sender)
            + enc_u64(self.nonce)
            + encode_payload(self.payload)
            + enc_u64(self.value)
        )

    def encode(self) -> bytes:
        return self.encode_unsigned() + enc_bytes(self.signature)

    def hash(self) -> bytes:
        return self._hash

    @cached_property
    def _hash(self) -> bytes:
        # frozen, so the hash is computed once per object
        return hash256(self.encode())


def decode_transaction(r: Reader) -> Transaction:
    sender = r.read_bytes()
    nonce = r.read_u64()
    payload = decode_payload(r)
    value = r.read_u64()
    signature = r.read_bytes()
    return Transaction(sender, nonce, payload, value, signature)


def sign_transaction(tx: Transaction, secret: bytes, pubkey: bytes) -> Transaction:
    """Attach a signature; refuses if the key does not own tx.sender."""
    if address_from_pubkey(pubkey) != tx.sender:
        raise ValueError("signing key does not match transaction sender")
    sig = sign(secret, tx.encode_unsigned())
    return Transaction(tx.sender, tx.nonce, tx.payload, tx.value, sig)


def verify_transaction(tx: Transaction, registry: KeyRegistry) -> bool:
    """True iff the signature is valid for the sender's registered key.

    Raises UnknownSenderError for an unregistered sender address, which is a
    different outcome from a bad signature.
    """
    pubkey = registry.get(tx.sender)  # raises UnknownSenderError
    return verify(pubkey, tx.signature, tx.encode_unsigned())
