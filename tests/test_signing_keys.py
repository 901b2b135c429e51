"""The signing-key cache in `keys`: one private key object per secret.

Ed25519 signatures are deterministic, so every signature made through the
cache must equal one made with a key loaded afresh from the raw secret.
"""

from collections import Counter

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from testingplus import keys
from testingplus.sim import SimScenario, run_simulation
from testingplus.tx import DeployCustomerAgreement, Transaction, sign_transaction

from conftest import Actor, make_genesis
from test_consensus import make_cluster, only, scenario_dict

SECRETS = [bytes([i]) * 32 for i in range(1, 6)]


def fresh_sign(secret, message):
    return Ed25519PrivateKey.from_private_bytes(secret).sign(message)


def test_sign_matches_a_freshly_loaded_key():
    # interleave secrets so that a cache returning the wrong key would show
    for round_ in range(3):
        for secret in SECRETS:
            message = b"msg" + secret[:1] + bytes([round_])
            assert keys.sign(secret, message) == fresh_sign(secret, message)


def test_generate_keypair_unchanged():
    for secret in SECRETS:
        expected = Ed25519PrivateKey.from_private_bytes(secret).public_key().public_bytes_raw()
        assert keys.generate_keypair(secret) == (secret, expected)


def test_transaction_and_seal_signatures_unchanged(chain, validator, customer):
    tx = Transaction(customer.address, 0, DeployCustomerAgreement(), 0)
    signed = sign_transaction(tx, customer.secret, customer.pubkey)
    assert signed.signature == fresh_sign(customer.secret, tx.encode_unsigned())
    block, _, _ = chain.stage([signed], validator.address, 1)
    sealed = chain.seal(block, [(validator.address, validator.secret)])
    hh = block.header.hash()
    assert sealed.votes == ((validator.address, fresh_sign(validator.secret, hh)),)


def test_node_votes_unchanged():
    nodes = make_cluster()
    customer = Actor(b"\x22" * 32)
    nodes[1].submit(customer.sign(Transaction(customer.address, 0, DeployCustomerAgreement(), 0)))
    out = nodes[1].on_tick(0)
    prop, own_vote = only(out, "propose")[0], only(out, "vote")[0]
    hh = prop.block.header.hash()
    assert own_vote.signature == fresh_sign(nodes[1].secret, hh)
    vote = only(nodes[0].on_message(prop, 1, 1), "vote")[0]
    assert vote.signature == fresh_sign(nodes[0].secret, hh)


def test_simulation_loads_each_secret_once(monkeypatch):
    loaded = Counter()

    class CountingKey:
        @staticmethod
        def from_private_bytes(secret):
            loaded[secret] += 1
            return Ed25519PrivateKey.from_private_bytes(secret)

    keys._private_key.cache_clear()
    monkeypatch.setattr(keys, "Ed25519PrivateKey", CountingKey)
    try:
        scenario = SimScenario.from_dict(scenario_dict(max_ticks=120))
        trace = run_simulation(scenario)
    finally:
        keys._private_key.cache_clear()
    secrets = {sk for sk, _ in scenario.validator_keys + scenario.account_keys}
    assert len(secrets) == 4 + 2
    assert loaded == Counter({secret: 1 for secret in secrets})
    # blocks were voted on and transactions signed, all with the cached keys
    assert all(n["height"] >= 1 for n in trace.summary["nodes"])
