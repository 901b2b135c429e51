"""Transactions and their payload variants.

Canonical layout of an unsigned transaction: sender, nonce, payload
(1-byte variant tag followed by the variant's fields), value. The detached
signature covers exactly those bytes; the signed encoding appends it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .codec import Reader, enc_bytes, enc_u64, hash256, DecodeError
from .keys import KeyRegistry, UnknownSenderError, address_from_pubkey, sign, verify

MAX_PAYLOAD_BYTES = 64 * 1024
MAX_TEXT_BYTES = 4 * 1024


@dataclass(frozen=True)
class DeployCustomerAgreement:
    TAG = 0x01

    def body(self) -> bytes:
        return b""


@dataclass(frozen=True)
class SetTestingFee:
    TAG = 0x02
    contract_id: bytes
    fee: int

    def body(self) -> bytes:
        return enc_bytes(self.contract_id) + enc_u64(self.fee)


@dataclass(frozen=True)
class DeployDeveloperAgreement:
    TAG = 0x03

    def body(self) -> bytes:
        return b""


@dataclass(frozen=True)
class SetReward:
    TAG = 0x04
    contract_id: bytes
    amount: int

    def body(self) -> bytes:
        return enc_bytes(self.contract_id) + enc_u64(self.amount)


@dataclass(frozen=True)
class DeployAcceptanceTest:
    TAG = 0x05
    customer: bytes
    developer: bytes
    fee: int

    def body(self) -> bytes:
        return enc_bytes(self.customer) + enc_bytes(self.developer) + enc_u64(self.fee)


@dataclass(frozen=True)
class InitiateTest:
    TAG = 0x06
    contract_id: bytes

    def body(self) -> bytes:
        return enc_bytes(self.contract_id)


@dataclass(frozen=True)
class CompleteTest:
    TAG = 0x07
    contract_id: bytes

    def body(self) -> bytes:
        return enc_bytes(self.contract_id)


@dataclass(frozen=True)
class RegisterTestCase:
    TAG = 0x10
    acceptance_contract: bytes
    description: bytes
    input_digest: bytes
    expected_output_digest: bytes

    def body(self) -> bytes:
        return (
            enc_bytes(self.acceptance_contract)
            + enc_bytes(self.description)
            + enc_bytes(self.input_digest)
            + enc_bytes(self.expected_output_digest)
        )


@dataclass(frozen=True)
class RecordExecution:
    TAG = 0x11
    case_id: bytes
    actual_output_digest: bytes

    def body(self) -> bytes:
        return enc_bytes(self.case_id) + enc_bytes(self.actual_output_digest)


@dataclass(frozen=True)
class PostFeedback:
    TAG = 0x12
    subject: bytes
    body_text: bytes

    def body(self) -> bytes:
        return enc_bytes(self.subject) + enc_bytes(self.body_text)


Payload = (
    DeployCustomerAgreement
    | SetTestingFee
    | DeployDeveloperAgreement
    | SetReward
    | DeployAcceptanceTest
    | InitiateTest
    | CompleteTest
    | RegisterTestCase
    | RecordExecution
    | PostFeedback
)

_PAYLOAD_TYPES = {
    cls.TAG: cls
    for cls in (
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
}


def encode_payload(payload: Payload) -> bytes:
    return bytes([payload.TAG]) + payload.body()


def decode_payload(r: Reader) -> Payload:
    tag = r.read_u8()
    cls = _PAYLOAD_TYPES.get(tag)
    if cls is None:
        raise DecodeError(f"unknown payload tag 0x{tag:02x}")
    if cls is DeployCustomerAgreement or cls is DeployDeveloperAgreement:
        return cls()
    if cls is SetTestingFee or cls is SetReward:
        return cls(r.read_bytes(), r.read_u64())
    if cls is DeployAcceptanceTest:
        return cls(r.read_bytes(), r.read_bytes(), r.read_u64())
    if cls is InitiateTest or cls is CompleteTest:
        return cls(r.read_bytes())
    if cls is RegisterTestCase:
        return cls(r.read_bytes(), r.read_bytes(), r.read_bytes(), r.read_bytes())
    if cls is RecordExecution:
        return cls(r.read_bytes(), r.read_bytes())
    return PostFeedback(r.read_bytes(), r.read_bytes())


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
