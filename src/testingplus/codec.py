"""Byte-level primitives shared by every on-chain structure.

All multi-byte integers are unsigned 64-bit big-endian; byte strings carry a
4-byte big-endian length prefix. Encodings are injective on their field
tuples, which is what makes hashing them meaningful.
"""

from __future__ import annotations

import hashlib
import struct

HASH_LEN = 32
ADDRESS_LEN = 20
ZERO_HASH = b"\x00" * HASH_LEN
ZERO_ADDRESS = b"\x00" * ADDRESS_LEN

U64_MAX = 2**64 - 1


class DecodeError(ValueError):
    """Raised when a byte stream does not parse as the expected structure."""


def hash256(data: bytes) -> bytes:
    """SHA-256 digest (the project-wide 32-byte hash)."""
    return hashlib.sha256(data).digest()


def enc_u64(value: int) -> bytes:
    if not 0 <= value <= U64_MAX:
        raise ValueError(f"value out of u64 range: {value}")
    return struct.pack(">Q", value)


def enc_bytes(data: bytes) -> bytes:
    if len(data) > 0xFFFFFFFF:
        raise ValueError("byte string too long for 4-byte length prefix")
    return struct.pack(">I", len(data)) + data


class Reader:
    """Cursor over a byte buffer for decoding canonical encodings."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError("unexpected end of input")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def read_u8(self) -> int:
        return self.take(1)[0]

    def read_u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def read_bytes(self) -> bytes:
        (n,) = struct.unpack(">I", self.take(4))
        return self.take(n)

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise DecodeError(f"{len(self.data) - self.pos} trailing bytes")
