"""Ed25519 key handling and the address <-> public key registry.

Addresses are the first 20 bytes of hash256(raw public key). Signature
verification is memoized because chain verification re-checks the same
(signature, message, key) triples many times.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .codec import ADDRESS_LEN, hash256


class UnknownSenderError(KeyError):
    """Address has no registered public key ("unknown identity")."""


def generate_keypair(seed: bytes | None = None) -> tuple[bytes, bytes]:
    """Return (secret, public) raw 32-byte key pair.

    With a 32-byte seed the pair is deterministic; without one it is random.
    """
    if seed is None:
        seed = os.urandom(32)
    if len(seed) != 32:
        raise ValueError("seed must be exactly 32 bytes")
    sk = Ed25519PrivateKey.from_private_bytes(seed)
    pk = sk.public_key().public_bytes_raw()
    return seed, pk


def address_from_pubkey(pubkey: bytes) -> bytes:
    return hash256(pubkey)[:ADDRESS_LEN]


def sign(secret: bytes, message: bytes) -> bytes:
    return Ed25519PrivateKey.from_private_bytes(secret).sign(message)


@lru_cache(maxsize=200_000)
def _verify_cached(pubkey: bytes, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(pubkey).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def verify(pubkey: bytes, signature: bytes, message: bytes) -> bool:
    return _verify_cached(pubkey, signature, message)


@dataclass
class KeyRegistry:
    """Maps addresses to the public keys they were derived from."""

    _keys: dict[bytes, bytes] = field(default_factory=dict)

    def register(self, pubkey: bytes) -> bytes:
        addr = address_from_pubkey(pubkey)
        self._keys[addr] = pubkey
        return addr

    def get(self, address: bytes) -> bytes:
        try:
            return self._keys[address]
        except KeyError:
            raise UnknownSenderError(address.hex()) from None
