"""Transactions and their payload variants.

Canonical layout of a transaction, from its codec.schema: sender, nonce,
payload (1-byte variant tag followed by the variant's fields), value,
signature. The detached signature covers exactly the bytes before it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Union

from . import codec
from .codec import ADDRESS_LEN, Reader, hash256, DecodeError, kept, schema
from .keys import address_from_pubkey, sign, verify

MAX_PAYLOAD_BYTES = 64 * 1024
MAX_TEXT_BYTES = 4 * 1024

# Field kinds of the payload table. Every kind but U64 is a length-prefixed
# byte string on chain; the kind says how a JSON op entry spells the field.
ID = "id"  # a contract, case or execution id, resolved by the caller
ACCOUNT = "account"  # an account address, resolved by the caller
DIGEST = "digest"  # hex at "<key>_digest", else the caller's digest of the text at <key>
TEXT = "text"  # text at <key>, empty if absent
U64 = "u64"  # a JSON integer within u64

# Each payload class carries its tag, its op name in JSON and FIELDS: the
# name, JSON key and kind of each field, in encoding order. The class's
# fields and codec are built from the same table with codec.schema.


class DeployCustomerAgreement:
    TAG, OP, FIELDS = 0x01, "deploy_customer_agreement", ()


class SetTestingFee:
    TAG, OP = 0x02, "set_testing_fee"
    FIELDS = (("contract_id", "contract", ID), ("fee", "fee", U64))


class DeployDeveloperAgreement:
    TAG, OP, FIELDS = 0x03, "deploy_developer_agreement", ()


class SetReward:
    TAG, OP = 0x04, "set_reward"
    FIELDS = (("contract_id", "contract", ID), ("amount", "amount", U64))


class DeployAcceptanceTest:
    TAG, OP = 0x05, "deploy_acceptance_test"
    FIELDS = (("customer", "customer", ACCOUNT), ("developer", "developer", ACCOUNT),
              ("fee", "fee", U64))


class InitiateTest:
    TAG, OP, FIELDS = 0x06, "initiate_test", (("contract_id", "contract", ID),)


class CompleteTest:
    TAG, OP, FIELDS = 0x07, "complete_test", (("contract_id", "contract", ID),)


class RegisterTestCase:
    TAG, OP = 0x10, "register_test_case"
    FIELDS = (("acceptance_contract", "contract", ID), ("description", "description", TEXT),
              ("input_digest", "input", DIGEST),
              ("expected_output_digest", "expected_output", DIGEST))


class RecordExecution:
    TAG, OP = 0x11, "record_execution"
    FIELDS = (("case_id", "case", ID), ("actual_output_digest", "actual_output", DIGEST))


class PostFeedback:
    TAG, OP = 0x12, "post_feedback"
    FIELDS = (("subject", "subject", ID), ("body_text", "body", TEXT))


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
for _cls in PAYLOAD_TYPES:
    # on chain, a U64 field is a u64 and every other kind a byte string
    schema(_cls.TAG, **{name: codec.U64 if kind == U64 else codec.BYTES
                        for name, _, kind in _cls.FIELDS})(_cls)
del _cls


def decode_payload(r: Reader) -> Payload:
    tag = r.peek_u8()
    cls = _BY_TAG.get(tag)
    if cls is None:
        raise DecodeError(f"unknown payload tag 0x{tag:02x}")
    return cls.decode(r)


# an op entry, and a scenario's workload entry: an op entry plus the tick it
# is submitted at and the index of its sender's account
OP_ENTRY = codec.obj(op=codec.text, value=(codec.uint, 0))
WORKLOAD_ENTRY = codec.obj(op=codec.text, value=(codec.uint, 0), tick=codec.uint, sender=codec.uint)


def payload_from_json(entry, digest, ident=codec.HASH_HEX,
                      account=codec.hexbytes(ADDRESS_LEN), path: str = "") -> Payload:
    """The payload an op entry such as {"op": "set_testing_fee", "contract":
    "<hex>", "fee": 25} at JSON path `path` describes, or InputError. `ident`
    and `account` read an id and an account field (32 and 20 bytes of hex
    unless the caller resolves them otherwise); `digest` maps text to its digest."""
    prefix = f"{path}." if path else ""  # of each field's JSON path
    op = OP_ENTRY(entry, path)["op"]
    cls = _BY_OP.get(op)
    if cls is None:
        raise codec.InputError(prefix + "op", "a known op", op)
    kinds = {ID: ident, ACCOUNT: account, U64: codec.uint}
    values = []
    for _, key, kind in cls.FIELDS:
        if kind == TEXT:
            value = codec.text(entry.get(key, ""), prefix + key).encode()
        elif kind == DIGEST:
            hex_key = key + "_digest"
            value = (codec.HASH_HEX(entry[hex_key], prefix + hex_key) if hex_key in entry
                     else digest(codec.text(entry.get(key, ""), prefix + key).encode()))
        elif key not in entry:
            raise codec.InputError(prefix + key, "given")
        else:
            value = kinds[kind](entry[key], prefix + key)
        values.append(value)
    return cls(*values)


@schema(None, sender=codec.BYTES, nonce=codec.U64, payload=(attrgetter("encoded"), decode_payload),
        value=codec.U64, signature=codec.BYTES)
class Transaction:
    signature = b""  # the default: unsigned

    def encode_unsigned(self) -> bytes:
        # the encoding without its last field, the length-prefixed signature
        return self.encoded[: -4 - len(self.signature)]

    def hash(self) -> bytes:
        return self._hash

    @kept
    def _hash(self) -> bytes:
        # frozen, so the hash is computed once per object
        return hash256(self.encoded)


decode_transaction = Transaction.decode


def sign_transaction(tx: Transaction, secret: bytes, pubkey: bytes) -> Transaction:
    """Attach a signature; refuses if the key does not own tx.sender."""
    if address_from_pubkey(pubkey) != tx.sender:
        raise ValueError("signing key does not match transaction sender")
    sig = sign(secret, tx.encode_unsigned())
    return Transaction(tx.sender, tx.nonce, tx.payload, tx.value, sig)


def verify_transaction(tx: Transaction, pubkey: bytes) -> bool:
    """True iff the signature is valid for `pubkey`, the sender's key."""
    return verify(pubkey, tx.signature, tx.encode_unsigned())
