"""A fixed piece of pure-Python work, timed next to the program's.

It encodes and hashes records much as the program's state serialization
does, but uses only the standard library, so its time tracks the machine's
speed and never the program's.
"""

from __future__ import annotations

import hashlib
import struct
import time

RECORDS = [(bytes([i % 251]) * 20, i, 7 * i) for i in range(400)]


def reference_ms(repeat: int = 4) -> float:
    """Wall time in ms of `repeat` passes over RECORDS."""
    t0 = time.perf_counter()
    for _ in range(repeat):
        out = []
        for addr, a, b in RECORDS:
            out.append(b"\xa1" + struct.pack(">I", len(addr)) + addr + struct.pack(">QQ", a, b))
        index = {rec: n for n, rec in enumerate(out)}
        hashlib.sha256(b"".join(out)).digest()
        index.clear()
    return (time.perf_counter() - t0) * 1000
