"""The simulator's delivery order, read back from its own trace.

Every message the trace records as `out: "ok"` is due at its `at` tick.
The simulator must deliver exactly those, each at its tick, and within a
tick by destination node id, each destination's messages in the order they
were sent: the order of their lines in the trace. `Node.on_message` is
wrapped to record what is delivered, over the pinned scenarios and a
derandomized sample of random ones.

The wrappers around `on_message`, `on_tick` and `submit` also check, after
each of them returns, every value a `Node` keeps against its definition,
and that a tick which sends nothing appends no block.
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from testingplus.consensus import Node, TxGossip, proposer_for
from testingplus.consensus import Height
from testingplus.sim import SimScenario, run_simulation

from test_golden_runs import PINNED_SCENARIOS


def check_kept_values(node: Node, scenario: SimScenario) -> None:
    chain, genesis = node.chain, node.chain.genesis
    assert node.validators is genesis.validators
    assert node.quorum == genesis.validators.quorum
    assert node.timeout_ticks == scenario.timeout_ticks
    assert node.empty_block_interval == scenario.empty_block_interval
    assert node.address == genesis.validators.members[node.index][0]
    assert node.next_height == chain.height + 1
    assert node.committed_txs == {h for block in chain.blocks for h in block.tx_hashes}
    assert node.at.proposer == proposer_for(chain.height + 1, node.at.round, genesis.validators)
    # the per-height record: a proposal only from the round's proposer, one
    # tally entry per (header hash, signer), and only proposals it can commit
    at = node.at
    assert type(at) is Height
    assert at.start <= at.entry
    assert not at.proposed or at.proposer == node.address
    keys = [(header_hash, signer) for header_hash, signer, _ in at.tallies]
    assert len(set(keys)) == len(keys)
    assert all(genesis.validators.pubkey_of(signer) is not None for _, signer in keys)
    if at.voted is not None:
        prop, vote = at.voted
        assert vote.signer == node.address and vote.height == node.next_height
        assert vote.header_hash == prop.block.header.hash()
        assert vote.header_hash in dict(at.proposals)
        assert (vote.header_hash, vote.signer, vote.signature) in at.tallies
    for header_hash, block in at.proposals:
        assert block.header.height == node.next_height and block.header.hash() == header_hash
    for h, gossip in node.mempool.items():
        assert type(gossip) is TxGossip and gossip.tx.hash() == h
        assert h not in node.committed_txs


@contextmanager
def observed_nodes(scenario: SimScenario):
    """Yield the list of (tick, destination, source, kind) deliveries, in the
    order `on_message` sees them, while every node event of a run of
    `scenario` is checked."""
    deliveries = []
    on_message, on_tick, submit = Node.on_message, Node.on_tick, Node.submit

    def observed_on_message(self, msg, src, tick):
        deliveries.append((tick, self.index, src, msg.kind))
        out = on_message(self, msg, src, tick)
        check_kept_values(self, scenario)
        return out

    def observed_on_tick(self, tick):
        height = self.next_height
        out = on_tick(self, tick)
        check_kept_values(self, scenario)
        # the simulator looks for commits only after a tick that sends something
        assert out or self.next_height == height
        return out

    def observed_submit(self, tx):
        out = submit(self, tx)
        check_kept_values(self, scenario)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Node, "on_message", observed_on_message)
        mp.setattr(Node, "on_tick", observed_on_tick)
        mp.setattr(Node, "submit", observed_submit)
        yield deliveries


def expected_deliveries(events, max_ticks):
    """The trace's ok messages due by `max_ticks`, by (tick, destination);
    the sort is stable, so each destination's keep their trace order."""
    ok = [(e["at"], e["dst"], e["src"], e["kind"])
          for e in events if e["type"] == "msg" and e["out"] == "ok" and e["at"] <= max_ticks]
    return sorted(ok, key=lambda m: m[:2])


def check_delivery_order(raw):
    scenario = SimScenario.from_dict(raw)
    with observed_nodes(scenario) as deliveries:
        trace = run_simulation(scenario)
    assert deliveries == expected_deliveries(trace.events, scenario.max_ticks)
    return deliveries


@pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS))
def test_pinned_deliveries_follow_the_trace(name):
    check_delivery_order(PINNED_SCENARIOS[name])


@st.composite
def fault_scenarios(draw):
    n = draw(st.integers(1, 7))
    lo = draw(st.integers(1, 3))
    max_ticks = draw(st.integers(20, 160))
    partitions = []
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        nodes = draw(st.permutations(range(n)))
        cut = draw(st.integers(1, n - 1))
        start = draw(st.integers(0, max_ticks))
        partitions.append({"from_tick": start, "to_tick": start + draw(st.integers(0, 60)),
                           "sides": [sorted(nodes[:cut]), sorted(nodes[cut:])]})
    crashed = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1))
    ticks = st.integers(0, max_ticks)
    return {
        "seed": draw(st.integers(0, 2**32)),
        "n_validators": n,
        "latency": [lo, lo + draw(st.integers(0, 3))],
        "drop_probability": draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
        "partitions": partitions,
        "crash_faults": [{"node": c, "tick": draw(ticks)} for c in crashed],
        "accounts": [1000, 1000],
        "workload": [{"tick": draw(ticks), "sender": draw(st.integers(0, 1)),
                      "op": "deploy_customer_agreement"}
                     for _ in range(draw(st.integers(0, 6)))],
        "max_ticks": max_ticks,
        "empty_block_interval": draw(st.sampled_from([5, 50, 10**6])),
        "timeout_ticks": draw(st.sampled_from([None, 4, 30])),
        "gossip_interval": draw(st.sampled_from([None, 1, 5])),
    }


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=fault_scenarios())
def test_random_deliveries_follow_the_trace(raw):
    check_delivery_order(raw)

