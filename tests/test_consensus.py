"""Proof-of-authority node behavior and whole-network simulations."""

import pytest

from testingplus.chain import GenesisConfig, ValidatorSet, proposer_for
from testingplus.consensus import Commit, Node, NodeConfig, Propose, Status, TxGossip, Vote
from testingplus.sim import SimScenario, run_simulation
from testingplus.tx import DeployCustomerAgreement, Transaction

from conftest import Actor

ACTORS = [Actor(bytes([0x50 + i]) * 32) for i in range(4)]
CUSTOMER = Actor(b"\x22" * 32)


def make_cluster(n=4, **cfg_kwargs):
    actors = ACTORS[:n]
    genesis = GenesisConfig(
        chain_id=b"\x01" * 32,
        validator_pubkeys=[a.pubkey for a in actors],
        accounts=[(CUSTOMER.pubkey, 1000)],
    )
    cfg = NodeConfig(**cfg_kwargs)
    return [Node(i, actors[i].secret, genesis, cfg) for i in range(n)]


def client_tx(nonce=0):
    return CUSTOMER.sign(
        Transaction(CUSTOMER.address, nonce, DeployCustomerAgreement(), 0)
    )


def only(msgs, kind):
    return [m for _, m in msgs if m.kind == kind]


class TestProposerRotation:
    def test_round_robin_by_height_plus_round(self):
        vs = ValidatorSet.from_pubkeys([a.pubkey for a in ACTORS])
        addrs = [a.address for a in ACTORS]
        assert proposer_for(0, 0, vs) == addrs[0]
        assert proposer_for(5, 0, vs) == addrs[1]
        assert proposer_for(5, 3, vs) == addrs[0]

    @pytest.mark.parametrize("n,quorum", [(1, 1), (2, 2), (3, 3), (4, 3), (7, 5), (10, 7)])
    def test_quorum_threshold(self, n, quorum):
        vs = ValidatorSet.from_pubkeys([Actor(bytes([i + 1]) * 32).pubkey for i in range(n)])
        assert vs.quorum == quorum


class TestNodeTick:
    def test_proposer_with_mempool_proposes(self):
        nodes = make_cluster()
        proposer = nodes[1]  # height 1, round 0 -> validator 1
        proposer.submit(client_tx())
        out = proposer.on_tick(0)
        props = only(out, "propose")
        # re-gossip may repeat the proposal, but only one distinct block exists
        assert len({p.block.header.hash() for p in props}) == 1
        assert props[0].block.header.height == 1
        assert [tx.hash() for tx in props[0].block.transactions] == [client_tx().hash()]
        # proposers vote for their own proposal immediately
        assert only(out, "vote")

    def test_non_proposer_stays_silent(self):
        nodes = make_cluster()
        nodes[0].submit(client_tx())
        out = nodes[0].on_tick(0)
        assert not only(out, "propose")

    def test_idle_proposer_waits_for_empty_block_interval(self):
        nodes = make_cluster(empty_block_interval=30)
        proposer = nodes[1]
        assert not only(proposer.on_tick(29), "propose")
        props = only(proposer.on_tick(30), "propose")
        assert len(props) == 1
        assert props[0].block.transactions == ()

    def test_no_duplicate_proposal_same_round(self):
        nodes = make_cluster()
        proposer = nodes[1]
        proposer.submit(client_tx())
        assert only(proposer.on_tick(0), "propose")
        assert not only(proposer.on_tick(1), "propose")

    def test_timeout_rotates_to_next_proposer(self):
        nodes = make_cluster(timeout_ticks=40)
        late = nodes[2]  # proposer for height 1 round 1
        late.submit(client_tx())
        assert not only(late.on_tick(39), "propose")
        assert only(late.on_tick(40), "propose")

    def test_status_gossip_is_periodic(self):
        nodes = make_cluster(gossip_interval=10)
        first = only(nodes[3].on_tick(0), "status")
        assert first == [Status(1)]  # genesis only
        assert not only(nodes[3].on_tick(5), "status")
        assert only(nodes[3].on_tick(10), "status")


class TestVoting:
    def _proposal(self, nodes):
        nodes[1].submit(client_tx())
        out = nodes[1].on_tick(0)
        return only(out, "propose")[0], only(out, "vote")[0]

    def test_valid_proposal_earns_one_vote(self):
        nodes = make_cluster()
        prop, _ = self._proposal(nodes)
        out = nodes[0].on_message(prop, 1, 1)
        votes = only(out, "vote")
        assert len(votes) == 1
        assert votes[0].signer == nodes[0].address
        assert votes[0].header_hash == prop.block.header.hash()

    def test_vote_at_most_once_per_height(self):
        nodes = make_cluster(timeout_ticks=5)
        prop, _ = self._proposal(nodes)
        assert only(nodes[0].on_message(prop, 1, 1), "vote")
        # a competing round-1 proposal for the same height gets no second vote
        nodes[2].submit(client_tx(nonce=0))
        for t in range(5, 11):
            rival = only(nodes[2].on_tick(t), "propose")
            if rival:
                break
        assert rival and rival[0].round == 1
        assert not only(nodes[0].on_message(rival[0], 2, 12), "vote")

    def test_corrupted_proposal_dropped_without_vote(self):
        nodes = make_cluster()
        prop, _ = self._proposal(nodes)
        tx = prop.block.transactions[0]
        bad_tx = Transaction(tx.sender, tx.nonce, tx.payload, tx.value, b"\x00" * 64)
        from testingplus.block import Block, merkle_root, BlockHeader

        h = prop.block.header
        bad_header = BlockHeader(
            h.height, h.prev_hash, merkle_root([bad_tx.hash()]), h.state_root,
            h.timestamp, h.proposer,
        )
        bad = Propose(Block(bad_header, (bad_tx,), ()), prop.round)
        before = nodes[0].invalid_dropped
        out = nodes[0].on_message(bad, 1, 1)
        assert not only(out, "vote")
        assert nodes[0].invalid_dropped == before + 1

    def test_wrong_round_proposer_rejected(self):
        nodes = make_cluster()
        prop, _ = self._proposal(nodes)
        assert not only(nodes[0].on_message(Propose(prop.block, 1), 1, 1), "vote")

    def test_quorum_crossing_commits(self):
        nodes = make_cluster()  # quorum 3
        prop, v1 = self._proposal(nodes)
        observer = nodes[0]
        out = observer.on_message(prop, 1, 1)  # own vote: tally = 1
        assert observer.chain.height == 0
        assert not only(observer.on_message(v1, 1, 1), "commit")  # tally = 2
        assert observer.chain.height == 0
        out = nodes[2].on_message(prop, 1, 1)
        v2 = only(out, "vote")[0]
        commits = only(observer.on_message(v2, 2, 1), "commit")  # tally = 3
        assert observer.chain.height == 1
        assert len(commits) == 1
        assert len(commits[0].block.votes) == 3

    def test_duplicate_votes_do_not_fake_quorum(self):
        nodes = make_cluster()
        prop, v1 = self._proposal(nodes)
        observer = nodes[0]
        observer.on_message(prop, 1, 1)
        for _ in range(5):
            observer.on_message(v1, 1, 1)
        assert observer.chain.height == 0

    def test_forged_vote_rejected(self):
        nodes = make_cluster()
        prop, _ = self._proposal(nodes)
        observer = nodes[0]
        observer.on_message(prop, 1, 1)
        outsider = Actor(b"\x99" * 32)
        from testingplus.keys import sign

        forged = Vote(
            prop.block.header.hash(), 1, outsider.address,
            sign(outsider.secret, prop.block.header.hash()),
        )
        before = observer.invalid_dropped
        observer.on_message(forged, 2, 1)
        assert observer.invalid_dropped == before + 1
        assert observer.chain.height == 0


class TestCommitsAndSync:
    def _sealed_block(self):
        nodes = make_cluster()
        nodes[1].submit(client_tx())
        prop = only(nodes[1].on_tick(0), "propose")[0]
        votes = [only(nodes[i].on_message(prop, 1, 1), "vote") for i in (0, 2)]
        commit = None
        for v in votes:
            out = nodes[1].on_message(v[0], 0, 1)
            commit = (only(out, "commit") or [commit and commit or None])[0] or commit
        assert nodes[1].chain.height == 1
        return commit

    def test_commit_appends_on_fresh_node(self):
        commit = self._sealed_block()
        fresh = make_cluster()[3]
        fresh.on_message(commit, 1, 2)
        assert fresh.chain.height == 1
        assert fresh.chain.head.header.hash() == commit.block.header.hash()

    def test_stale_commit_ignored(self):
        commit = self._sealed_block()
        node = make_cluster()[3]
        node.on_message(commit, 1, 2)
        node.on_message(commit, 1, 3)
        assert node.chain.height == 1

    def test_future_commit_buffered_until_gap_filled(self):
        nodes = make_cluster(1)  # single validator: quorum 1, seals alone
        node = nodes[0]
        commits = []
        for i in range(3):
            node.submit(client_tx(nonce=i))
            out = node.on_tick(i)
            commits += only(out, "commit")
        assert len(commits) == 3
        fresh = make_cluster(1)[0]
        fresh.on_message(commits[2], 0, 9)
        assert fresh.chain.height == 0  # buffered, parent missing
        fresh.on_message(commits[0], 0, 9)
        assert fresh.chain.height == 1
        fresh.on_message(commits[1], 0, 9)
        assert fresh.chain.height == 3  # drained the buffered block too

    def test_tampered_commit_rejected(self):
        commit = self._sealed_block()
        from testingplus.block import Block

        bad = Commit(Block(commit.block.header, commit.block.transactions, ()))
        node = make_cluster()[3]
        node.on_message(bad, 1, 2)
        assert node.chain.height == 0
        assert node.invalid_dropped == 1

    def test_status_triggers_targeted_replay(self):
        commit = self._sealed_block()
        ahead = make_cluster()[3]
        ahead.on_message(commit, 1, 2)
        out = ahead.on_message(Status(1), 0, 3)
        assert len(out) == 1
        dest, msg = out[0]
        assert dest == 0 and msg.kind == "commit"
        assert msg.block.header.height == 1

    def test_status_of_peer_in_sync_is_quiet(self):
        node = make_cluster()[0]
        assert node.on_message(Status(1), 2, 0) == []


# -- whole-network simulations ----------------------------------------------


def scenario_dict(**overrides):
    base = {
        "seed": 7,
        "n_validators": 4,
        "latency": [1, 2],
        "drop_probability": 0.0,
        "accounts": [1000, 1000],
        "max_ticks": 400,
        "workload": [
            {"tick": 5, "sender": 0, "op": "deploy_customer_agreement"},
            {"tick": 9, "sender": 0, "op": "set_testing_fee", "contract": {"ref": 0}, "fee": 25},
            {"tick": 14, "sender": 1, "op": "deploy_developer_agreement"},
        ],
    }
    base.update(overrides)
    return base


def test_failure_free_run_converges():
    trace = run_simulation(SimScenario.from_dict(scenario_dict()))
    summary = trace.summary
    assert summary["truncated"] is False
    digests = {n["chain_digest"] for n in summary["nodes"]}
    roots = {n["state_root"] for n in summary["nodes"]}
    assert len(digests) == 1 and len(roots) == 1
    assert all(n["height"] >= 1 for n in summary["nodes"])


def test_trace_is_deterministic():
    d = scenario_dict()
    t1 = run_simulation(SimScenario.from_dict(d))
    t2 = run_simulation(SimScenario.from_dict(d))
    assert t1.to_text() == t2.to_text()


def test_seed_changes_trace():
    t1 = run_simulation(SimScenario.from_dict(scenario_dict(seed=1)))
    t2 = run_simulation(SimScenario.from_dict(scenario_dict(seed=2)))
    assert t1.to_text() != t2.to_text()


def test_minority_partition_cannot_commit_then_heals():
    d = scenario_dict(
        max_ticks=600,
        partitions=[{"from_tick": 0, "to_tick": 300, "sides": [[0], [1, 2, 3]]}],
    )
    trace = run_simulation(SimScenario.from_dict(d))
    minority_commits = [
        e for e in trace.events
        if e["type"] == "commit" and e["node"] == 0 and e["t"] <= 300
    ]
    assert minority_commits == []
    summary = trace.summary
    assert summary["truncated"] is False
    assert len({n["chain_digest"] for n in summary["nodes"]}) == 1


def test_crash_fault_below_third_tolerated():
    d = scenario_dict(n_validators=4, crash_faults=[{"node": 3, "tick": 20}], max_ticks=500)
    trace = run_simulation(SimScenario.from_dict(d))
    summary = trace.summary
    assert summary["truncated"] is False
    live = [n for n in summary["nodes"] if not n["crashed"]]
    assert len({n["chain_digest"] for n in live}) == 1


def test_message_drops_slow_but_do_not_stop_progress():
    d = scenario_dict(drop_probability=0.2, max_ticks=800)
    trace = run_simulation(SimScenario.from_dict(d))
    assert trace.summary["truncated"] is False


def test_no_conflicting_commits_across_faults():
    """No two nodes ever commit different blocks at the same height."""
    d = scenario_dict(
        n_validators=7,
        accounts=[1000, 1000, 1000],
        drop_probability=0.15,
        partitions=[{"from_tick": 100, "to_tick": 250, "sides": [[0, 1], [2, 3, 4, 5, 6]]}],
        crash_faults=[{"node": 6, "tick": 400}],
        max_ticks=900,
    )
    trace = run_simulation(SimScenario.from_dict(d))
    by_height = {}
    for e in trace.events:
        if e["type"] == "commit":
            assert by_height.setdefault(e["h"], e["hash"]) == e["hash"]
    assert trace.summary["truncated"] is False


def all_crashed_scenario():
    return scenario_dict(
        n_validators=2,
        crash_faults=[{"node": 0, "tick": 5}, {"node": 1, "tick": 5}],
        max_ticks=50,
        workload=[{"tick": 10, "sender": 0, "op": "deploy_customer_agreement"}],
    )


def test_workload_after_every_validator_crashed_is_rejected():
    from testingplus.sim import ScenarioError

    with pytest.raises(ScenarioError, match="workload entry 0"):
        SimScenario.from_dict(all_crashed_scenario())
    # an entry before the last crash is still accepted
    ok = all_crashed_scenario()
    ok["crash_faults"][1]["tick"] = 20
    SimScenario.from_dict(ok)


@pytest.mark.parametrize("entry", [
    {"tick": 9, "sender": -1, "op": "deploy_customer_agreement"},
    {"tick": 9, "sender": 2, "op": "deploy_customer_agreement"},
    {"tick": 9, "sender": 0, "op": "deploy_acceptance_test", "customer": -1, "developer": 1, "fee": 5},
    {"tick": 9, "sender": 0, "op": "deploy_acceptance_test", "customer": 0, "developer": -2, "fee": 5},
    {"tick": 9, "sender": 0, "op": "set_testing_fee", "contract": {"ref": 0}, "fee": None},
    {"tick": 9, "sender": 0, "op": "set_testing_fee", "contract": {"ref": None}, "fee": 1},
    {"tick": None, "sender": 0, "op": "deploy_customer_agreement"},
    {"tick": 9, "sender": 0, "op": "set_testing_fee", "contract": "00", "fee": 1},
    {"tick": 9, "sender": 0, "op": "register_test_case", "contract": {"ref": 0},
     "input_digest": "08" * 16},
])
def test_malformed_workload_entry_is_rejected(entry):
    from testingplus.sim import ScenarioError

    d = scenario_dict(workload=[{"tick": 5, "sender": 0, "op": "deploy_customer_agreement"}, entry])
    with pytest.raises(ScenarioError, match="workload entry 1"):
        SimScenario.from_dict(d).build_workload()


def test_scenario_command_rejects_malformed_workload_entry(tmp_path, capsys):
    import json

    from testingplus.cli import main

    workload = [{"tick": 5, "sender": 0, "op": "set_testing_fee", "contract": "00" * 32,
                 "fee": None}]
    sfile = tmp_path / "scenario.json"
    sfile.write_text(json.dumps(scenario_dict(workload=workload)))
    assert main(["scenario", str(sfile), "--out", str(tmp_path / "t")]) == 2
    assert "workload entry 0" in capsys.readouterr().err


def test_scenario_command_errors_when_every_validator_crashed(tmp_path):
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    sfile = tmp_path / "scenario.json"
    sfile.write_text(json.dumps(all_crashed_scenario()))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "testingplus.cli", "scenario", str(sfile), "--out", str(tmp_path / "t")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2
    assert "workload entry 0" in proc.stderr


@pytest.mark.parametrize("tick", [-3, -1, 401, 10**6])
def test_workload_tick_outside_run_is_rejected(tick):
    from testingplus.sim import ScenarioError

    entries = [{"tick": 5, "sender": 0, "op": "deploy_customer_agreement"},
               {"tick": tick, "sender": 1, "op": "deploy_developer_agreement"}]
    with pytest.raises(ScenarioError, match=f"workload entry 1: tick {tick} outside 0..max_ticks"):
        SimScenario.from_dict(scenario_dict(workload=entries))


def test_workload_ticks_at_both_ends_of_run_are_submitted():
    entries = [{"tick": 0, "sender": 0, "op": "deploy_customer_agreement"},
               {"tick": 400, "sender": 1, "op": "deploy_developer_agreement"}]
    trace = run_simulation(SimScenario.from_dict(scenario_dict(workload=entries)))
    assert [e["t"] for e in trace.events if e["type"] == "submit"] == [0, 400]


def test_scenario_command_rejects_workload_tick_past_max_ticks(tmp_path, capsys):
    import json

    from testingplus.cli import main

    workload = [{"tick": 500, "sender": 0, "op": "deploy_customer_agreement"}]
    sfile = tmp_path / "scenario.json"
    sfile.write_text(json.dumps(scenario_dict(workload=workload, max_ticks=200)))
    assert main(["scenario", str(sfile), "--out", str(tmp_path / "t")]) == 2
    assert "workload entry 0: tick 500 outside 0..max_ticks" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_sweep_cell_respaced_past_max_ticks_is_an_error_row():
    import csv
    import io

    from testingplus.metrics import SweepSpec, run_sweep

    spec = SweepSpec.from_dict({"base": scenario_dict(max_ticks=120), "axis": "workload_interval",
                                "values": [10, 100]})
    rows = list(csv.DictReader(io.StringIO(run_sweep(spec))))
    assert [r["status"] for r in rows][0] == "ok"
    assert rows[1]["status"] == "error: workload entry 2: tick 201 outside 0..max_ticks (120)"


@pytest.mark.parametrize("faults,message", [
    ([{"node": 4, "tick": 20}], "crash fault for node 4 outside 0..3"),
    ([{"node": -1, "tick": 20}], "crash fault for node -1 outside 0..3"),
    ([{"node": 1, "tick": 20}, {"node": 1, "tick": 30}], "crash fault for node 1 listed twice"),
])
def test_crash_fault_that_cannot_happen_is_rejected(faults, message):
    from testingplus.sim import ScenarioError

    with pytest.raises(ScenarioError, match=message):
        SimScenario.from_dict(scenario_dict(crash_faults=faults))


def test_scenario_command_rejects_crash_fault_outside_validators(tmp_path, capsys):
    import json

    from testingplus.cli import main

    sfile = tmp_path / "scenario.json"
    sfile.write_text(json.dumps(scenario_dict(crash_faults=[{"node": 9, "tick": 20}])))
    assert main(["scenario", str(sfile), "--out", str(tmp_path / "t")]) == 2
    assert "crash fault for node 9 outside 0..3" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_validator_sweep_drops_crash_faults_beyond_each_size():
    import csv
    import io

    from testingplus.metrics import SweepSpec, run_sweep

    base = scenario_dict(max_ticks=150, crash_faults=[{"node": 5, "tick": 100}])
    spec = SweepSpec.from_dict({"base": base, "axis": "n_validators", "values": [4, 7]})
    rows = list(csv.DictReader(io.StringIO(run_sweep(spec))))
    assert [r["status"] for r in rows] == ["ok", "ok"]
