import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from testingplus.chain import Chain, GenesisConfig
from testingplus.keys import address_from_pubkey, generate_keypair
from testingplus.tx import Transaction, sign_transaction

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_hex(name: str) -> bytes:
    return bytes.fromhex((FIXTURES / name).read_text().strip())


# the keys of a trace or query result whose values are, or hash, a state root
ROOT_KEYS = ("hash", "state_root", "head", "chain_digest", "state_delta_digest")


def masked(value):
    """`value`, a JSON value such as a trace event, with the value under
    each of ROOT_KEYS, at any depth, replaced by "*": what a change to the
    state root's definition alone must leave as it was."""
    if isinstance(value, dict):
        return {k: "*" if k in ROOT_KEYS else masked(v) for k, v in value.items()}
    if isinstance(value, list):
        return [masked(v) for v in value]
    return value


def masked_digest(events) -> bytes:
    """SHA-256 of a trace's events, masked, in the form SimTrace.to_text writes."""
    text = "".join(json.dumps(masked(e), sort_keys=True) + "\n" for e in events)
    return hashlib.sha256(text.encode()).digest()


# each of ROOT_KEYS as json.dumps writes it as a key; a quote inside a string
# value is escaped, so only a key can match
_ROOT_KEY_TEXT = re.compile("|".join(f'"{k}": ' for k in ROOT_KEYS))


class TraceDigests:
    """Running SHA-256 over many traces, in the form SimTrace.to_text writes
    them: `full` of the events, `masked` of the events with `masked` over
    them, as `masked_digest` reads one trace. A line holding no key of
    ROOT_KEYS is its own masked form, so only the rest are masked anew."""

    def __init__(self):
        self.full, self.masked = hashlib.sha256(), hashlib.sha256()

    def update(self, events) -> None:
        encode = json.JSONEncoder(sort_keys=True).encode  # as json.dumps(e, sort_keys=True)
        has_root = _ROOT_KEY_TEXT.search
        full = [encode(e) for e in events]
        plain = [encode(masked(e)) if has_root(line) else line for e, line in zip(events, full)]
        self.full.update(("\n".join(full) + "\n").encode())
        self.masked.update(("\n".join(plain) + "\n").encode())


class Actor:
    def __init__(self, seed: bytes):
        self.secret, self.pubkey = generate_keypair(seed)
        self.address = address_from_pubkey(self.pubkey)

    def sign(self, tx: Transaction) -> Transaction:
        return sign_transaction(tx, self.secret, self.pubkey)


@pytest.fixture(scope="session")
def validator():
    return Actor(b"\x11" * 32)


@pytest.fixture(scope="session")
def customer():
    return Actor(b"\x22" * 32)


@pytest.fixture(scope="session")
def developer():
    return Actor(b"\x33" * 32)


@pytest.fixture(scope="session")
def tester():
    return Actor(b"\x44" * 32)


def make_genesis(validator, accounts, **kwargs) -> GenesisConfig:
    return GenesisConfig(
        chain_id=b"\x01" * 32,
        validator_pubkeys=[validator.pubkey],
        accounts=[(a.pubkey, bal) for a, bal in accounts],
        **kwargs,
    )


@pytest.fixture
def chain(validator, customer, developer, tester):
    g = make_genesis(validator, [(customer, 1000), (developer, 200), (tester, 300)])
    return Chain(g)


class LocalChain:
    """Single-validator chain with a one-tx-per-block submit helper."""

    def __init__(self, chain: Chain, validator: Actor):
        self.chain = chain
        self.validator = validator
        self.tick = 0

    def submit(self, actor: Actor, payload, value=0, nonce=None):
        state = self.chain.state
        if nonce is None:
            nonce = state.accounts[actor.address].nonce
        tx = actor.sign(Transaction(actor.address, nonce, payload, value))
        self.tick += 1
        block, _, receipts = self.chain.stage([tx], self.validator.address, self.tick)
        block = self.chain.seal(block, [(self.validator.address, self.validator.secret)])
        self.chain.append(block)
        return receipts[0], tx


@pytest.fixture
def local(chain, validator):
    return LocalChain(chain, validator)
