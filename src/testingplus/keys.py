"""Ed25519 key handling: key pairs, addresses, signing and verification.

Addresses are the first 20 bytes of hash256(raw public key). Signature
verification is memoized because the same (signature, message, key) triples
are checked many times in one process: a block's transactions when it is
validated and again when it is appended, and all of it again by every
simulated validator that receives it. (A store load below its checkpoint
checks no signature at all.) Each secret's private key object is built once,
because loading one from raw bytes costs about as much as a signature.
"""

from __future__ import annotations

import os
from functools import lru_cache

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .codec import ADDRESS_LEN, hash256


def generate_keypair(seed: bytes | None = None) -> tuple[bytes, bytes]:
    """Return (secret, public) raw 32-byte key pair.

    With a 32-byte seed the pair is deterministic; without one it is random.
    """
    if seed is None:
        seed = os.urandom(32)
    if len(seed) != 32:
        raise ValueError("a secret key must be exactly 32 bytes")
    pk = _private_key(seed).public_key().public_bytes_raw()
    return seed, pk


def address_from_pubkey(pubkey: bytes) -> bytes:
    return hash256(pubkey)[:ADDRESS_LEN]


@lru_cache(maxsize=4096)
def _private_key(secret: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(secret)


def sign(secret: bytes, message: bytes) -> bytes:
    return _private_key(secret).sign(message)


@lru_cache(maxsize=200_000)
def _verify_cached(pubkey: bytes, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(pubkey).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def verify(pubkey: bytes, signature: bytes, message: bytes) -> bool:
    return _verify_cached(pubkey, signature, message)
