"""The memo of executed blocks that the nodes of one simulation run share:
each distinct block is executed once per run, no run reuses another's
work, a forged state root is refused by every node that sees it, and the
memo holds no block that every live node has passed."""

from testingplus.block import build_block
from testingplus.chain import Chain, GenesisConfig
from testingplus.consensus import Node, Propose
from testingplus.sim import NEVER, SimScenario, run_simulation

from test_consensus import CUSTOMER, VALIDATORS, client_tx, only
from test_golden_runs import PINNED_SCENARIOS


def count_executions(monkeypatch):
    """Counters of `Chain.execute` calls and of the distinct blocks staged
    or taken through `_execute_block` (validated or appended)."""
    seen = {"executed": 0, "blocks": set()}
    execute, execute_block, stage = Chain.execute, Chain._execute_block, Chain.stage

    def counted_execute(self, *args, **kwargs):
        seen["executed"] += 1
        return execute(self, *args, **kwargs)

    def counted_execute_block(self, block):
        hit = execute_block(self, block)
        seen["blocks"].add(block.header.hash())
        return hit

    def counted_stage(self, *args, **kwargs):
        staged = stage(self, *args, **kwargs)
        seen["blocks"].add(staged[0].header.hash())
        return staged

    monkeypatch.setattr(Chain, "execute", counted_execute)
    monkeypatch.setattr(Chain, "_execute_block", counted_execute_block)
    monkeypatch.setattr(Chain, "stage", counted_stage)
    return seen


def test_a_run_executes_each_distinct_block_once(monkeypatch):
    scenario = SimScenario.from_dict(PINNED_SCENARIOS["fault_n7_isolate1_crash6"])
    seen = count_executions(monkeypatch)
    trace = run_simulation(scenario)
    committed = {e["hash"] for e in trace.events if e["type"] == "commit"}
    assert len(committed) > 20
    assert {bytes.fromhex(h) for h in committed} <= seen["blocks"]
    assert seen["executed"] == len(seen["blocks"])


def test_two_runs_of_one_scenario_execute_alike(monkeypatch):
    # the split stalls with proposals at the next height validated and not
    # committed, so a memo that outlived the run would still hold them
    scenario = SimScenario.from_dict(PINNED_SCENARIOS["fault_n4_split_0"])
    seen = count_executions(monkeypatch)
    memos = []  # per node created: its chain's memo and what it held then
    init = Node.__init__

    def capturing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        memos.append((self.chain._executed, len(self.chain._executed)))

    monkeypatch.setattr(Node, "__init__", capturing_init)
    first = run_simulation(scenario)
    runs = [seen["executed"]]
    assert memos[-1][0]  # the stalled proposals are still held at the end
    second = run_simulation(scenario)
    runs.append(seen["executed"] - runs[0])
    assert runs[0] == runs[1] == len(seen["blocks"]) > 0
    assert first.to_text() == second.to_text()
    n = scenario.n_validators
    for run in (memos[:n], memos[n:]):
        assert all(memo is run[0][0] and held == 0 for memo, held in run)
    assert memos[0][0] is not memos[n][0]


def test_nodes_sharing_a_memo_each_refuse_a_forged_state_root(monkeypatch):
    genesis = GenesisConfig(chain_id=b"\x01" * 32,
                            validator_pubkeys=[a.pubkey for a in VALIDATORS[:4]],
                            accounts=[(CUSTOMER.pubkey, 1000)])
    executed = {}
    nodes = [Node(i, VALIDATORS[i].secret, genesis, 10, 50, 50, executed) for i in range(4)]
    nodes[1].submit(client_tx())
    prop = only(nodes[1].on_tick(0), "propose")[0]
    header = prop.block.header
    forged = build_block(nodes[0].chain.head.header, list(prop.block.transactions),
                         b"\x42" * 32, header.proposer, header.timestamp)
    seen = count_executions(monkeypatch)
    for node in (nodes[0], nodes[2]):
        assert not only(node.on_message(Propose(forged, prop.round), 1, 1), "vote")
        assert node.invalid_dropped == 1
    assert seen["executed"] == 2  # a failed state-root check stores nothing
    assert forged.header.hash() not in executed
    # the genuine proposal is in the memo: both vote for it and neither executes it
    for node in (nodes[0], nodes[2]):
        assert only(node.on_message(prop, 1, 2), "vote")
    assert seen["executed"] == 2


LONG_RUN = {
    "seed": 4,
    "n_validators": 4,
    "latency": [1, 3],
    "drop_probability": 0.05,
    # node 0 falls behind while cut off, then catches up by sync; node 3 crashes
    "partitions": [{"from_tick": 200, "to_tick": 600, "sides": [[0], [1, 2, 3]]}],
    "crash_faults": [{"node": 3, "tick": 1500}],
    "accounts": [1000],
    "workload": [{"tick": 5 + 40 * i, "sender": 0, "op": "deploy_customer_agreement"}
                 for i in range(50)],
    "max_ticks": 3000,
    "empty_block_interval": 3,
}


def test_a_long_run_holds_no_block_every_live_node_has_passed(monkeypatch):
    """At the start of each tick's node timers the memo holds only blocks
    above the lowest head any live node had when the last tick ended: at
    most the live nodes' height spread below the highest head."""
    scenario = SimScenario.from_dict(LONG_RUN)
    crash_at = {f["node"]: f["tick"] for f in LONG_RUN["crash_faults"]}
    nodes: list[Node] = []
    held = {"tick": -1, "floor": 0, "most": 0, "checks": 0, "spread": 0}
    init, on_tick = Node.__init__, Node.on_tick

    def live(tick):
        return [node for node in nodes if tick < crash_at.get(node.index, NEVER)]

    def capturing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        nodes.append(self)

    def checked_on_tick(self, tick):
        memo = self.chain._executed
        if tick != held["tick"]:  # the first timer of this tick
            held["tick"] = tick
            assert all(state.height > held["floor"] for state, _ in memo.values()), tick
            held["most"] = max(held["most"], len(memo))
            held["checks"] += 1
        out = on_tick(self, tick)
        alive = live(tick)
        if self is alive[-1]:  # the last timer of this tick
            heights = [node.chain.height for node in alive]
            held["floor"] = min(heights)
            held["spread"] = max(held["spread"], max(heights) - min(heights))
        return out

    monkeypatch.setattr(Node, "__init__", capturing_init)
    monkeypatch.setattr(Node, "on_tick", checked_on_tick)
    trace = run_simulation(scenario)
    summary = trace.summary
    heights = [n["height"] for n in summary["nodes"] if not n["crashed"]]
    assert held["checks"] == LONG_RUN["max_ticks"] + 1
    assert min(heights) > 300  # hundreds of blocks went through the memo
    assert held["spread"] > 5  # node 0 fell behind while cut off
    assert held["most"] < min(heights) // 4  # the memo never held most of the chain
    assert summary["truncated"] is False
