"""Proof-of-authority node behavior and whole-network simulations."""

import copy
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from testingplus.chain import GenesisConfig, ValidatorSet
from testingplus.codec import InputError, enc_u64, hash256
from testingplus.consensus import Commit, Node, Propose, Status, TxGossip, Vote, proposer_for
from testingplus.keys import generate_keypair
from testingplus.sim import SimScenario, run_simulation
from testingplus.tx import DeployCustomerAgreement, Transaction

from conftest import Actor
from oracles import manual_created_id

VALIDATORS = [Actor(bytes([0x50 + i]) * 32) for i in range(7)]
ACTORS = VALIDATORS[:4]
CUSTOMER = Actor(b"\x22" * 32)


def make_cluster(n=4, gossip_interval=10, timeout_ticks=50, empty_block_interval=50):
    actors = VALIDATORS[:n]
    genesis = GenesisConfig(
        chain_id=b"\x01" * 32,
        validator_pubkeys=[a.pubkey for a in actors],
        accounts=[(CUSTOMER.pubkey, 1000)],
    )
    return [Node(i, actors[i].secret, genesis, gossip_interval, timeout_ticks, empty_block_interval)
            for i in range(n)]


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

    def test_a_proposal_that_repeats_its_last_transaction_is_dropped(self):
        """[a, b, c, c] keeps the Merkle root, the header and the state root
        of [a, b, c]: the node drops it as invalid and votes for neither."""
        from testingplus.block import Block

        nodes = make_cluster()
        for nonce in range(3):
            nodes[1].submit(client_tx(nonce))
        prop = only(nodes[1].on_tick(0), "propose")[0]
        block = prop.block
        assert len(block.transactions) == 3
        twin = Block(block.header, block.transactions + block.transactions[-1:], ())
        before = nodes[0].invalid_dropped
        assert not only(nodes[0].on_message(Propose(twin, prop.round), 1, 1), "vote")
        assert nodes[0].invalid_dropped == before + 1
        assert only(nodes[0].on_message(prop, 1, 1), "vote")

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

    def test_a_proposal_or_vote_delivered_again_changes_nothing(self):
        nodes = make_cluster()
        prop, vote = self._proposal(nodes)
        observer = nodes[0]
        observer.on_message(prop, 1, 1)
        observer.on_message(vote, 1, 1)
        at, dropped = observer.at, observer.invalid_dropped
        assert observer.on_message(prop, 1, 2) == []
        assert observer.on_message(vote, 1, 2) == []
        assert observer.at is at and observer.invalid_dropped == dropped
        assert hash(at) == hash(copy.copy(at))

    def test_a_snapshot_twin_leaves_the_original_as_it_was(self):
        nodes = make_cluster()  # quorum 3
        prop, vote = self._proposal(nodes)
        observer = nodes[0]
        at = observer.at
        twin = copy.copy(observer)
        twin.on_message(TxGossip(client_tx(nonce=1)), 3, 1)
        twin.on_message(prop, 1, 1)  # its own vote: tally 1
        twin.on_message(vote, 1, 1)  # tally 2, short of the quorum
        assert len(twin.at.tallies) == 2 and twin.chain.height == 0
        assert observer.at is at and at.voted is None and not at.proposals and not at.tallies
        assert not observer.mempool

    def test_a_snapshot_that_commits_leaves_the_original_alone(self):
        nodes = make_cluster()  # quorum 3
        prop, v1 = self._proposal(nodes)
        v2 = only(nodes[2].on_message(prop, 1, 1), "vote")[0]
        observer = nodes[0]
        observer.submit(client_tx())  # the transaction the proposal carries
        chain, at, blocks = observer.chain, observer.at, observer.chain.blocks
        root, mempool = chain.state.root(), dict(observer.mempool)
        twin = copy.copy(observer)
        twin.on_message(prop, 1, 1)  # its own vote: tally 1
        twin.on_message(v1, 1, 1)  # tally 2
        assert only(twin.on_message(v2, 2, 1), "commit")  # tally 3
        assert twin.chain.height == 1 and twin.committed_txs == {client_tx().hash()}
        assert not twin.mempool and twin.chain.state.root() != root
        assert observer.at is at and observer.chain is chain
        assert chain.height == 0 and chain.blocks is blocks and len(blocks) == 1
        assert chain.state.root() == root and observer.committed_txs == set()
        assert observer.mempool == mempool and observer.invalid_dropped == 0
        # the original commits the same block by itself
        for msg, src in ((prop, 1), (v1, 1), (v2, 2)):
            observer.on_message(msg, src, 2)
        assert chain.blocks is blocks and chain.head.header.hash() == twin.chain.head.header.hash()
        assert chain.state.root() == twin.chain.state.root()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_committed_block_lists_its_votes_in_validator_order(data):
    """Whichever validators vote, and in whatever order their votes and the
    proposal arrive, the block a node commits carries every vote it tallied
    for that header, in validator order, and passes `Chain.check_votes`."""
    n = data.draw(st.integers(4, 7), label="n")
    nodes = make_cluster(n)
    nodes[1].submit(client_tx())
    out = nodes[1].on_tick(0)  # height 1, round 0 -> validator 1
    prop = only(out, "propose")[0]
    observer = data.draw(st.sampled_from([0, *range(2, n)]), label="observer")
    others = [i for i in range(n) if i != observer]
    quorum = nodes[observer].quorum
    voters = data.draw(st.lists(st.sampled_from(others), min_size=quorum - 1, unique=True),
                       label="voters")
    votes = {i: only(out if i == 1 else nodes[i].on_message(prop, 1, 1), "vote")[0]
             for i in voters}
    # None stands for the proposal, on whose arrival the observer votes
    arrivals = data.draw(st.permutations([None, *voters]), label="arrivals")
    tallied, commits = set(), []
    for i in arrivals:
        tallied.add(observer if i is None else i)
        msg = prop if i is None else votes[i]
        commits += only(nodes[observer].on_message(msg, 1 if i is None else i, 1), "commit")
        if commits:
            break
    assert len(commits) == 1 and len(tallied) >= quorum
    block = commits[0].block
    members = [address for address, _ in nodes[observer].validators.members]
    assert [signer for signer, _ in block.votes] == [members[i] for i in sorted(tallied)]
    nodes[observer].chain.check_votes(block)
    assert nodes[observer].chain.head == block


class TestTimeoutAndAct:
    def test_a_timeout_enters_the_next_round_and_sends_nothing(self):
        nodes = make_cluster()
        proposer = nodes[1]  # height 1, round 0 -> validator 1
        proposer.submit(client_tx())
        proposer.on_tick(0)  # proposes and votes
        at, chain, rest = proposer.at, proposer.chain, dict(vars(proposer))
        held = dict(proposer.mempool), dict(proposer.future_commits), list(chain.blocks)
        assert at.proposed and at.voted
        assert proposer.timeout(7) is None
        assert proposer.at == at.replace(round=1, entry=7, proposer=nodes[2].address, proposed=False)
        assert {k: v for k, v in vars(proposer).items() if k != "at"} == {
            k: v for k, v in rest.items() if k != "at"}
        assert (proposer.mempool, proposer.future_commits, chain.blocks) == held

    def test_a_voter_made_proposer_by_a_timeout_re_sends_its_proposal_and_vote(self):
        nodes = make_cluster(gossip_interval=10)
        nodes[1].submit(client_tx())
        prop = only(nodes[1].on_tick(0), "propose")[0]
        late = nodes[2]  # proposer for height 1, round 1
        held = late.on_message(prop, 1, 1)  # its vote, then the proposal it votes for
        vote = only(held, "vote")[0]
        assert late.at.voted == (prop, vote)
        assert only(late.act(1), "status")  # not its round: re-gossip only
        late.timeout(5)
        assert late.act(5) == [(None, prop), (None, vote)]
        assert late.act(6) == []


POOL_SIZE = 12


@cache
def message_pool():
    """Messages for height 1 and 2 of a 4-validator cluster: a proposal, its
    three votes, a round-1 rival and its vote, both commits, two transactions
    and two statuses."""
    nodes = make_cluster()
    nodes[1].submit(client_tx())
    out = nodes[1].on_tick(0)
    prop, v1 = only(out, "propose")[0], only(out, "vote")[0]
    v2, v3 = (only(nodes[i].on_message(prop, 1, 1), "vote")[0] for i in (2, 3))
    nodes[1].on_message(v2, 2, 1)
    commit1 = only(nodes[1].on_message(v3, 3, 1), "commit")[0]
    for node in nodes:
        node.on_message(commit1, 1, 2)
    nodes[2].submit(client_tx(nonce=1))
    prop2 = only(nodes[2].on_tick(2), "propose")[0]  # height 2, round 0 -> validator 2
    w1, w3 = (only(nodes[i].on_message(prop2, 2, 3), "vote")[0] for i in (1, 3))
    nodes[2].on_message(w1, 1, 3)
    commit2 = only(nodes[2].on_message(w3, 3, 3), "commit")[0]
    rival_node = make_cluster()[2]
    rival_node.submit(client_tx(nonce=1))
    rival_node.timeout(50)
    rival_out = rival_node.act(50)
    rival, rival_vote = only(rival_out, "propose")[0], only(rival_out, "vote")[0]
    pool = (prop, v1, v2, v3, rival, rival_vote, commit1, commit2,
            TxGossip(client_tx()), TxGossip(client_tx(nonce=1)), Status(1), Status(2))
    assert len(pool) == POOL_SIZE
    return pool


def fingerprint(node):
    return hash(node.at), node.chain.head.header.hash(), tuple(node.mempool), tuple(node.future_commits)


def step(node, steps):
    """Apply (kind, message index, ticks to wait) steps; what each sent."""
    pool, tick, sent = message_pool(), 0, []
    for kind, index, wait in steps:
        tick += wait
        if kind == "deliver":
            sent.append(node.on_message(pool[index], 1 + index % 3, tick))
        elif kind == "timeout":
            sent.append(node.timeout(tick))
        else:
            sent.append(node.act(tick))
    return sent


# a delivery is drawn as often as a timeout and an act together
STEPS = st.lists(st.tuples(st.sampled_from(["deliver", "deliver", "timeout", "act"]),
                           st.integers(0, POOL_SIZE - 1), st.integers(0, 30)),
                 max_size=16)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(steps=STEPS)
def test_snapshots_step_apart_from_the_original(steps):
    pool = message_pool()
    original = make_cluster()[0]
    # held: a transaction, the height-1 proposal with this node's vote and
    # validator 1's, and the height-2 commit
    for index in (9, 0, 1, 7):
        original.on_message(pool[index], 1, 0)
    assert len(original.at.tallies) == 2 and list(original.future_commits) == [2]
    before = fingerprint(original)
    first = copy.copy(original)
    sent = step(first, steps)
    assert fingerprint(original) == before
    second = copy.copy(original)
    assert step(second, steps) == sent
    assert fingerprint(second) == fingerprint(first)
    assert fingerprint(original) == before


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

    def test_committed_txs_are_the_chain_s_after_every_kind_of_commit(self):
        """`committed_txs` is the set of the chain's transaction hashes after
        a quorum the node gathers itself, a peer's commit, a held commit
        applied later, and a commit in a snapshot, which leaves the
        original's set alone; a committed transaction is not admitted again."""

        def chain_txs(node):
            return {h for block in node.chain.blocks for h in block.tx_hashes}

        nodes = make_cluster()  # quorum 3
        nodes[1].submit(client_tx())
        out = nodes[1].on_tick(0)
        prop, v1 = only(out, "propose")[0], only(out, "vote")[0]
        v2 = only(nodes[2].on_message(prop, 1, 1), "vote")[0]
        observer = nodes[0]
        observer.on_message(prop, 1, 1)  # its own vote: tally 1
        observer.on_message(v1, 1, 1)  # tally 2
        twin = copy.copy(observer)
        assert only(twin.on_message(v2, 2, 1), "commit")  # tally 3, in the snapshot
        assert twin.committed_txs == chain_txs(twin) == {client_tx().hash()}
        assert observer.committed_txs == chain_txs(observer) == set()
        assert only(observer.on_message(v2, 2, 1), "commit")  # the original's own quorum
        assert observer.committed_txs == chain_txs(observer) == {client_tx().hash()}
        assert observer.submit(client_tx()) == []
        observer.on_message(TxGossip(client_tx()), 3, 2)
        assert not observer.mempool

        single = make_cluster(1)[0]  # quorum 1: seals each block alone
        commits = []
        for i in range(3):
            single.submit(client_tx(nonce=i))
            commits += only(single.on_tick(i), "commit")
        hashes = [client_tx(nonce=i).hash() for i in range(3)]
        fresh = make_cluster(1)[0]
        fresh.on_message(commits[2], 0, 9)  # held: its parent is missing
        assert fresh.committed_txs == chain_txs(fresh) == set()
        fresh.on_message(commits[0], 0, 9)  # a peer's commit
        assert fresh.committed_txs == chain_txs(fresh) == {hashes[0]}
        fresh.on_message(commits[1], 0, 9)  # and the held one after it
        assert fresh.chain.height == 3
        assert fresh.committed_txs == chain_txs(fresh) == set(hashes)
        for i in range(3):
            fresh.on_message(TxGossip(client_tx(nonce=i)), 0, 10)
        assert not fresh.mempool


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
    with pytest.raises(InputError, match=r"^workload\[0\]\.tick: must be before every validator "
                                         r"has crashed \(at tick 5\), not 10$"):
        SimScenario.from_dict(all_crashed_scenario())
    # an entry before the last crash is still accepted
    ok = all_crashed_scenario()
    ok["crash_faults"][1]["tick"] = 20
    SimScenario.from_dict(ok)


# (second workload entry, the message naming its bad field)
MALFORMED_ENTRIES = [
    ({"tick": 9, "sender": -1, "op": "deploy_customer_agreement"},
     "workload[1].sender: must be a non-negative integer below 2**64, not -1"),
    ({"tick": 9, "sender": 2, "op": "deploy_customer_agreement"},
     "workload[1].sender: must be an account index below 2, not 2"),
    ({"tick": 9, "sender": 0, "op": "deploy_acceptance_test", "customer": -1, "developer": 1,
      "fee": 5}, "workload[1].customer: must be a non-negative integer below 2**64, not -1"),
    ({"tick": 9, "sender": 0, "op": "deploy_acceptance_test", "customer": 0, "developer": -2,
      "fee": 5}, "workload[1].developer: must be a non-negative integer below 2**64, not -2"),
    ({"tick": 9, "sender": 0, "op": "set_testing_fee", "contract": {"ref": 0}, "fee": None},
     "workload[1].fee: must be a non-negative integer below 2**64, not None"),
    ({"tick": 9, "sender": 0, "op": "set_testing_fee", "contract": {"ref": None}, "fee": 1},
     "workload[1].contract.ref: must be a non-negative integer below 2**64, not None"),
    ({"tick": None, "sender": 0, "op": "deploy_customer_agreement"},
     "workload[1].tick: must be a non-negative integer below 2**64, not None"),
    ({"tick": 9, "sender": 0, "op": "set_testing_fee", "contract": "00", "fee": 1},
     "workload[1].contract: must be 32 bytes of hex, not '00'"),
    ({"tick": 9, "sender": 0, "op": "register_test_case", "contract": {"ref": 0},
      "input_digest": "08" * 16}, "workload[1].input_digest: must be 32 bytes of hex, not '08"),
]


@pytest.mark.parametrize("entry,message", MALFORMED_ENTRIES,
                         ids=[f"entry{i}" for i in range(len(MALFORMED_ENTRIES))])
def test_malformed_workload_entry_is_rejected(entry, message):
    d = scenario_dict(workload=[{"tick": 5, "sender": 0, "op": "deploy_customer_agreement"}, entry])
    with pytest.raises(InputError) as exc:
        SimScenario.from_dict(d).build_workload()
    assert str(exc.value).startswith(message)


def test_workload_ref_to_a_feedback_entry_names_its_feedback_id():
    d = scenario_dict(workload=[
        {"tick": 5, "sender": 0, "op": "post_feedback", "subject": "ab" * 32, "body": "seen"},
        {"tick": 6, "sender": 1, "op": "post_feedback", "subject": {"ref": 0}, "body": "reply"},
    ])
    (_, feedback), (_, reply) = SimScenario.from_dict(d).build_workload()
    assert reply.payload.subject == manual_created_id(feedback.payload, feedback.sender, 0)


def test_scenario_command_rejects_malformed_workload_entry(tmp_path, capsys):
    import json

    from testingplus.cli import main

    workload = [{"tick": 5, "sender": 0, "op": "set_testing_fee", "contract": "00" * 32,
                 "fee": None}]
    sfile = tmp_path / "scenario.json"
    sfile.write_text(json.dumps(scenario_dict(workload=workload)))
    assert main(["scenario", str(sfile), "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err == (
        "error: bad scenario: workload[0].fee: must be a non-negative integer below 2**64, not None\n")


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
    assert "workload[0].tick: must be before every validator has crashed" in proc.stderr


@pytest.mark.parametrize("tick", [-3, -1, 401, 10**6])
def test_workload_tick_outside_run_is_rejected(tick):
    entries = [{"tick": 5, "sender": 0, "op": "deploy_customer_agreement"},
               {"tick": tick, "sender": 1, "op": "deploy_developer_agreement"}]
    rule = "a non-negative integer below 2**64" if tick < 0 else "at most max_ticks (400)"
    with pytest.raises(InputError) as exc:
        SimScenario.from_dict(scenario_dict(workload=entries))
    assert str(exc.value) == f"workload[1].tick: must be {rule}, not {tick}"


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
    assert capsys.readouterr().err == (
        "error: bad scenario: workload[0].tick: must be at most max_ticks (200), not 500\n")
    assert not (tmp_path / "t").exists()


def test_sweep_cell_respaced_past_max_ticks_is_an_error_row():
    import csv
    import io

    from testingplus.metrics import SweepSpec, run_sweep

    spec = SweepSpec.from_dict({"base": scenario_dict(max_ticks=120), "axis": "workload_interval",
                                "values": [10, 100]})
    rows = list(csv.DictReader(io.StringIO(run_sweep(spec))))
    assert [r["status"] for r in rows][0] == "ok"
    assert rows[1]["status"] == "error: workload[2].tick: must be at most max_ticks (120), not 201"


# (crash faults, the fault the case describes, which names it, and the message)
IMPOSSIBLE_CRASHES = [
    ([{"node": 4, "tick": 20}], "crash fault for node 4 outside 0..3",
     "crash_faults[0].node: must be a node in 0..3, not 4"),
    ([{"node": -1, "tick": 20}], "crash fault for node -1 outside 0..3",
     "crash_faults[0].node: must be a non-negative integer below 2**64, not -1"),
    ([{"node": 1, "tick": 20}, {"node": 1, "tick": 30}], "crash fault for node 1 listed twice",
     "crash_faults[1].node: must be a node no earlier crash fault names, not 1"),
]


@pytest.mark.parametrize("faults,case,message", IMPOSSIBLE_CRASHES,
                         ids=[f"faults{i}-{case}" for i, (_, case, _) in enumerate(IMPOSSIBLE_CRASHES)])
def test_crash_fault_that_cannot_happen_is_rejected(faults, case, message):
    with pytest.raises(InputError) as exc:
        SimScenario.from_dict(scenario_dict(crash_faults=faults))
    assert str(exc.value) == message


def test_scenario_command_rejects_crash_fault_outside_validators(tmp_path, capsys):
    import json

    from testingplus.cli import main

    sfile = tmp_path / "scenario.json"
    sfile.write_text(json.dumps(scenario_dict(crash_faults=[{"node": 9, "tick": 20}])))
    assert main(["scenario", str(sfile), "--out", str(tmp_path / "t")]) == 2
    assert "crash_faults[0].node: must be a node in 0..3, not 9" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_validator_sweep_drops_crash_faults_beyond_each_size():
    import csv
    import io

    from testingplus.metrics import SweepSpec, run_sweep

    base = scenario_dict(max_ticks=150, crash_faults=[{"node": 5, "tick": 100}])
    spec = SweepSpec.from_dict({"base": base, "axis": "n_validators", "values": [4, 7]})
    rows = list(csv.DictReader(io.StringIO(run_sweep(spec))))
    assert [r["status"] for r in rows] == ["ok", "ok"]


@pytest.mark.parametrize("key", ["timeout_ticks", "gossip_interval"])
@pytest.mark.parametrize("value", ["abc", [1], -5, 0.5, "10", True])
def test_bad_timeout_or_gossip_interval_is_rejected(key, value):
    with pytest.raises(InputError,
                       match=rf"^{key}: must be a non-negative integer below 2\*\*64, not "):
        SimScenario.from_dict(scenario_dict(**{key: value}))


def test_a_scenario_derives_its_keys_and_genesis_once():
    """Two runs of one scenario object give one trace and share one genesis,
    and the i-th key pair of a role comes from the seed by one rule."""
    scenario = SimScenario.from_dict(scenario_dict(max_ticks=120))
    first = run_simulation(scenario)
    genesis = scenario.genesis
    assert run_simulation(scenario).to_text() == first.to_text()
    assert scenario.genesis is genesis
    for role, pairs, count in (("validator", scenario.validator_keys, 4),
                               ("account", scenario.account_keys, 2)):
        assert pairs == tuple(
            generate_keypair(hash256(f"testingplus/{role}/".encode() + enc_u64(7) + enc_u64(i)))
            for i in range(count))
    assert genesis.validator_pubkeys == [pk for _, pk in scenario.validator_keys]
    assert genesis.accounts == [(pk, 1000) for _, pk in scenario.account_keys]


def test_zero_or_null_timeout_and_gossip_keep_the_derived_default():
    derived = SimScenario.from_dict(scenario_dict())
    for value in (0, None):
        s = SimScenario.from_dict(scenario_dict(timeout_ticks=value, gossip_interval=value))
        assert (s.timeout_ticks, s.gossip_interval) == (20, 4)
        assert (derived.timeout_ticks, derived.gossip_interval) == (20, 4)
    s = SimScenario.from_dict(scenario_dict(timeout_ticks=30, gossip_interval=7))
    assert (s.timeout_ticks, s.gossip_interval) == (30, 7)


@pytest.mark.parametrize("key,value", [("timeout_ticks", "abc"), ("gossip_interval", [1]),
                                       ("timeout_ticks", -5), ("gossip_interval", 0.5)])
def test_scenario_command_rejects_bad_timeout_or_gossip_interval(tmp_path, capsys, key, value):
    import json

    from testingplus.cli import main

    sfile = tmp_path / "scenario.json"
    sfile.write_text(json.dumps(scenario_dict(**{key: value})))
    assert main(["scenario", str(sfile), "--out", str(tmp_path / "t")]) == 2
    assert (f"error: bad scenario: {key}: must be a non-negative integer below 2**64, not "
            in capsys.readouterr().err)
    assert not (tmp_path / "t").exists()


# scenario numbers that int() used to truncate or take negative: (overrides,
# the rule the case breaks, which names it, and the message naming its path)
BAD_SCENARIO_NUMBERS = [
    ({"accounts": [-5]}, "account balance must be a non-negative integer",
     "accounts[0]: must be a non-negative integer below 2**64, not -5"),
    ({"accounts": [1000, 2.9]}, "account balance must be a non-negative integer",
     "accounts[1]: must be a non-negative integer below 2**64, not 2.9"),
    ({"accounts": [1000, "1000"]}, "account balance must be a non-negative integer",
     "accounts[1]: must be a non-negative integer below 2**64, not '1000'"),
    ({"accounts": [2**64]}, "account balance must be a non-negative integer",
     f"accounts[0]: must be a non-negative integer below 2**64, not {2**64}"),
    ({"seed": -1}, "seed must be a non-negative integer",
     "seed: must be a non-negative integer below 2**64, not -1"),
    ({"seed": "7"}, "seed must be a non-negative integer",
     "seed: must be a non-negative integer below 2**64, not '7'"),
    ({"n_validators": 4.9}, "n_validators must be a non-negative integer",
     "n_validators: must be a positive integer below 2**64, not 4.9"),
    ({"n_validators": True}, "n_validators must be a non-negative integer",
     "n_validators: must be a positive integer below 2**64, not True"),
    ({"latency": [1, 2.5]}, "latency must be a non-negative integer",
     "latency[1]: must be a positive integer below 2**64, not 2.5"),
    ({"latency": [1, 2, 3]}, "too many values",
     "latency: must be a JSON list of 2 values, not [1, 2, 3]"),
    ({"max_ticks": 400.5}, "max_ticks must be a non-negative integer",
     "max_ticks: must be a positive integer below 2**64, not 400.5"),
    ({"empty_block_interval": -5}, "empty_block_interval must be a non-negative integer",
     "empty_block_interval: must be a non-negative integer below 2**64, not -5"),
    ({"empty_block_interval": 0.5}, "empty_block_interval must be a non-negative integer",
     "empty_block_interval: must be a non-negative integer below 2**64, not 0.5"),
    ({"empty_block_interval": False}, "empty_block_interval must be a non-negative integer",
     "empty_block_interval: must be a non-negative integer below 2**64, not False"),
    ({"partitions": [{"from_tick": 1.5, "to_tick": 9, "sides": [[0, 1], [2, 3]]}]},
     "partition from_tick must be a non-negative integer",
     "partitions[0].from_tick: must be a non-negative integer below 2**64, not 1.5"),
    ({"partitions": [{"from_tick": 1, "to_tick": 9, "sides": [[0, 1.0], [2, 3]]}]},
     "partition node must be a non-negative integer",
     "partitions[0].sides[0][1]: must be a non-negative integer below 2**64, not 1.0"),
    ({"crash_faults": [{"node": 1.0, "tick": 20}]}, "crash fault node must be an integer",
     "crash_faults[0].node: must be a non-negative integer below 2**64, not 1.0"),
    ({"crash_faults": [{"node": True, "tick": 20}]}, "crash fault node must be an integer",
     "crash_faults[0].node: must be a non-negative integer below 2**64, not True"),
    ({"crash_faults": [{"node": 1, "tick": -20}]}, "crash fault tick must be a non-negative integer",
     "crash_faults[0].tick: must be a non-negative integer below 2**64, not -20"),
    ({"partitions": [{"from_tick": 200, "to_tick": 100, "sides": [[0, 1], [2, 3]]}]},
     "partition window must not end before it starts",
     "partitions[0].to_tick: must be at least from_tick (200), not 100"),
]
BAD_SCENARIO_NUMBER_IDS = [f"overrides{i}-{rule}"
                           for i, (_, rule, _) in enumerate(BAD_SCENARIO_NUMBERS)]


@pytest.mark.parametrize("overrides,rule,message", BAD_SCENARIO_NUMBERS, ids=BAD_SCENARIO_NUMBER_IDS)
def test_scenario_numbers_must_be_non_negative_json_integers(overrides, rule, message):
    with pytest.raises(InputError) as exc:
        SimScenario.from_dict(scenario_dict(**overrides))
    assert str(exc.value) == message


@pytest.mark.parametrize("overrides,rule,message", BAD_SCENARIO_NUMBERS, ids=BAD_SCENARIO_NUMBER_IDS)
def test_scenario_command_rejects_non_integer_or_negative_numbers(tmp_path, capsys, overrides,
                                                                 rule, message):
    import json

    from testingplus.cli import main

    sfile = tmp_path / "scenario.json"
    sfile.write_text(json.dumps(scenario_dict(**overrides)))
    assert main(["scenario", str(sfile), "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err == f"error: bad scenario: {message}\n"
    assert not (tmp_path / "t").exists()


# (second workload entry, the path of its bad number)
NON_INTEGER_ENTRIES = [
    ({"tick": 5.5, "sender": 0, "op": "deploy_customer_agreement"}, "tick"),
    ({"tick": True, "sender": 0, "op": "deploy_customer_agreement"}, "tick"),
    ({"tick": 5, "sender": 1.0, "op": "deploy_customer_agreement"}, "sender"),
    ({"tick": 5, "sender": "1", "op": "deploy_customer_agreement"}, "sender"),
    ({"tick": 9, "sender": 0, "op": "set_testing_fee", "contract": {"ref": 0.0}, "fee": 1},
     "contract.ref"),
]


@pytest.mark.parametrize("entry,field", NON_INTEGER_ENTRIES,
                         ids=[f"entry{i}" for i in range(len(NON_INTEGER_ENTRIES))])
def test_workload_ticks_and_indices_must_be_json_integers(entry, field):
    d = scenario_dict(workload=[{"tick": 5, "sender": 0, "op": "deploy_customer_agreement"}, entry])
    value = entry[field.split(".")[0]]
    value = value["ref"] if isinstance(value, dict) else value
    with pytest.raises(InputError) as exc:
        SimScenario.from_dict(d).build_workload()
    assert str(exc.value) == (
        f"workload[1].{field}: must be a non-negative integer below 2**64, not {value!r}")


def test_message_of_unknown_type_is_dropped_as_invalid():
    node = make_cluster()[0]
    assert node.on_message(object(), 1, 1) == []
    assert node.invalid_dropped == 1


def test_validator_lookups_by_address():
    vs = ValidatorSet.from_pubkeys([a.pubkey for a in ACTORS])
    for a in ACTORS:
        assert vs.pubkey_of(a.address) == a.pubkey
    assert vs.pubkey_of(CUSTOMER.address) is None
    assert vs == ValidatorSet.from_pubkeys([a.pubkey for a in ACTORS])
    assert hash(vs) == hash(ValidatorSet.from_pubkeys([a.pubkey for a in ACTORS]))
