"""Seeded discrete-event simulation of the validator network.

The trace is a pure function of the scenario: one RNG seeded from the
scenario drives latency and drop draws, deliveries at a tick are processed
in (node id, sequence) order, and every message send is recorded with its
outcome. Identical scenarios therefore produce byte-identical traces.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .chain import GenesisConfig, ValidatorSet
from .codec import enc_u64, hash256
from .consensus import ConsensusMessage, Node, NodeConfig
from .keys import generate_keypair
from .tx import (
    CompleteTest,
    DeployAcceptanceTest,
    DeployCustomerAgreement,
    DeployDeveloperAgreement,
    InitiateTest,
    PostFeedback,
    RecordExecution,
    RegisterTestCase,
    SetReward,
    SetTestingFee,
    Transaction,
    sign_transaction,
)
from .vm import case_id_for, contract_id_for, exec_id_for


class ScenarioError(ValueError):
    pass


def validator_seed(scenario_seed: int, index: int) -> bytes:
    return hash256(b"testingplus/validator/" + enc_u64(scenario_seed) + enc_u64(index))


def account_seed(scenario_seed: int, index: int) -> bytes:
    return hash256(b"testingplus/account/" + enc_u64(scenario_seed) + enc_u64(index))


@dataclass(frozen=True)
class Partition:
    from_tick: int
    to_tick: int
    sides: tuple[tuple[int, ...], ...]

    def blocks(self, tick: int, a: int, b: int) -> bool:
        if not self.from_tick <= tick <= self.to_tick:
            return False
        side_a = side_b = None
        for i, side in enumerate(self.sides):
            if a in side:
                side_a = i
            if b in side:
                side_b = i
        return side_a != side_b


@dataclass
class SimScenario:
    seed: int
    n_validators: int
    latency: tuple[int, int]
    drop_probability: float
    partitions: list[Partition]
    crash_faults: dict[int, int]  # node -> crash tick
    account_balances: list[int]
    workload: list[dict]  # raw entries, resolved at build time
    max_ticks: int
    empty_block_interval: int = 50
    timeout_ticks: int | None = None
    gossip_interval: int | None = None
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "SimScenario":
        try:
            partitions = [
                Partition(
                    int(p["from_tick"]),
                    int(p["to_tick"]),
                    tuple(tuple(int(x) for x in side) for side in p["sides"]),
                )
                for p in raw.get("partitions", [])
            ]
            scenario = cls(
                seed=int(raw["seed"]),
                n_validators=int(raw["n_validators"]),
                latency=(int(raw["latency"][0]), int(raw["latency"][1])),
                drop_probability=float(raw.get("drop_probability", 0.0)),
                partitions=partitions,
                crash_faults={int(c["node"]): int(c["tick"]) for c in raw.get("crash_faults", [])},
                account_balances=[int(b) for b in raw.get("accounts", [])],
                workload=list(raw.get("workload", [])),
                max_ticks=int(raw["max_ticks"]),
                empty_block_interval=int(raw.get("empty_block_interval", 50)),
                timeout_ticks=raw.get("timeout_ticks"),
                gossip_interval=raw.get("gossip_interval"),
                raw=raw,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"bad scenario: {exc}") from exc
        scenario.validate()
        return scenario

    @classmethod
    def from_file(cls, path) -> "SimScenario":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def validate(self) -> None:
        if self.n_validators < 1 or self.max_ticks < 1:
            raise ScenarioError("need at least one validator and one tick")
        if not 0 <= self.drop_probability <= 1:
            raise ScenarioError("drop_probability outside [0,1]")
        if self.latency[0] < 1 or self.latency[1] < self.latency[0]:
            raise ScenarioError("latency bounds must satisfy 1 <= min <= max")
        for p in self.partitions:
            seen = [n for side in p.sides for n in side]
            if sorted(seen) != list(range(self.n_validators)):
                raise ScenarioError("partition sides must cover each node exactly once")
        # a submission goes to a live validator, so none may arrive once all have crashed
        if all(i in self.crash_faults for i in range(self.n_validators)):
            all_down = max(self.crash_faults[i] for i in range(self.n_validators))
            for k, entry in enumerate(self.workload):
                try:
                    tick = int(entry["tick"])
                except (KeyError, TypeError, ValueError):
                    continue  # build_workload reports a malformed entry
                if tick >= all_down:
                    raise ScenarioError(
                        f"workload entry {k}: tick {tick} is after every validator "
                        f"has crashed (tick {all_down})"
                    )

    def digest(self) -> bytes:
        return hash256(json.dumps(self.raw or self.to_dict(), sort_keys=True).encode())

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_validators": self.n_validators,
            "latency": list(self.latency),
            "drop_probability": self.drop_probability,
            "partitions": [
                {"from_tick": p.from_tick, "to_tick": p.to_tick,
                 "sides": [list(s) for s in p.sides]}
                for p in self.partitions
            ],
            "crash_faults": [{"node": n, "tick": t} for n, t in sorted(self.crash_faults.items())],
            "accounts": list(self.account_balances),
            "workload": self.workload,
            "max_ticks": self.max_ticks,
            "empty_block_interval": self.empty_block_interval,
            "timeout_ticks": self.timeout_ticks,
            "gossip_interval": self.gossip_interval,
        }

    # -- key material and genesis -------------------------------------------

    def validator_keys(self) -> list[tuple[bytes, bytes]]:
        return [generate_keypair(validator_seed(self.seed, i)) for i in range(self.n_validators)]

    def account_keys(self) -> list[tuple[bytes, bytes]]:
        return [generate_keypair(account_seed(self.seed, i)) for i in range(len(self.account_balances))]

    def genesis(self) -> GenesisConfig:
        return GenesisConfig(
            chain_id=self.digest(),
            validator_pubkeys=[pk for _, pk in self.validator_keys()],
            accounts=[
                (pk, bal)
                for (_, pk), bal in zip(self.account_keys(), self.account_balances)
            ],
            empty_block_interval=self.empty_block_interval,
            timeout_ticks=self.effective_timeout(),
        )

    def effective_timeout(self) -> int:
        return int(self.timeout_ticks) if self.timeout_ticks else 10 * self.latency[1]

    def effective_gossip(self) -> int:
        return int(self.gossip_interval) if self.gossip_interval else 2 * self.latency[1]

    # -- workload resolution -------------------------------------------------

    def build_workload(self) -> list[tuple[int, Transaction]]:
        """Resolve symbolic entries into signed transactions.

        Nonces follow list order per sender; {"ref": k} fields resolve to the
        id created by workload entry k (contract, case, or execution id).
        """
        keys = self.account_keys()
        from .keys import address_from_pubkey

        addrs = [address_from_pubkey(pk) for _, pk in keys]
        nonces = [0] * len(keys)
        created: dict[int, bytes] = {}
        out: list[tuple[int, Transaction]] = []

        def digest_of(entry: dict, raw_key: str, digest_key: str) -> bytes:
            if digest_key in entry:
                return bytes.fromhex(entry[digest_key])
            return hash256(str(entry.get(raw_key, "")).encode())

        def resolve(value) -> bytes:
            if isinstance(value, dict) and "ref" in value:
                ref = int(value["ref"])
                if ref not in created:
                    raise ScenarioError(f"workload ref {ref} does not name a created id")
                return created[ref]
            return bytes.fromhex(value)

        for k, entry in enumerate(self.workload):
            try:
                tick = int(entry["tick"])
                sender_idx = int(entry["sender"])
                op = entry["op"]
                value = int(entry.get("value", 0))
                sender = addrs[sender_idx]
                nonce = nonces[sender_idx]
                if op == "deploy_customer_agreement":
                    payload = DeployCustomerAgreement()
                    created[k] = contract_id_for(sender, nonce, payload.TAG)
                elif op == "set_testing_fee":
                    payload = SetTestingFee(resolve(entry["contract"]), int(entry["fee"]))
                elif op == "deploy_developer_agreement":
                    payload = DeployDeveloperAgreement()
                    created[k] = contract_id_for(sender, nonce, payload.TAG)
                elif op == "set_reward":
                    payload = SetReward(resolve(entry["contract"]), int(entry["amount"]))
                elif op == "deploy_acceptance_test":
                    payload = DeployAcceptanceTest(
                        addrs[int(entry["customer"])],
                        addrs[int(entry["developer"])],
                        int(entry["fee"]),
                    )
                    created[k] = contract_id_for(sender, nonce, payload.TAG)
                elif op == "initiate_test":
                    payload = InitiateTest(resolve(entry["contract"]))
                elif op == "complete_test":
                    payload = CompleteTest(resolve(entry["contract"]))
                elif op == "register_test_case":
                    expected = digest_of(entry, "expected_output", "expected_output_digest")
                    payload = RegisterTestCase(
                        resolve(entry["contract"]),
                        str(entry.get("description", "")).encode(),
                        digest_of(entry, "input", "input_digest"),
                        expected,
                    )
                    created[k] = case_id_for(sender, nonce, expected)
                elif op == "record_execution":
                    actual = digest_of(entry, "actual_output", "actual_output_digest")
                    payload = RecordExecution(resolve(entry["case"]), actual)
                    created[k] = exec_id_for(sender, nonce, actual)
                elif op == "post_feedback":
                    payload = PostFeedback(
                        resolve(entry["subject"]), str(entry.get("body", "")).encode()
                    )
                else:
                    raise ScenarioError(f"unknown workload op {op!r}")
                tx = Transaction(sender, nonce, payload, value)
                tx = sign_transaction(tx, keys[sender_idx][0], keys[sender_idx][1])
                nonces[sender_idx] += 1
                out.append((tick, tx))
            except (KeyError, IndexError, ValueError) as exc:
                raise ScenarioError(f"workload entry {k}: {exc}") from exc
        return out


class SimTrace:
    """Newline-delimited JSON event log plus a final per-node summary."""

    def __init__(self, events: list[dict]):
        self.events = events

    def write(self, path) -> None:
        Path(path).write_text(self.to_text())

    def to_text(self) -> str:
        return "".join(json.dumps(e, sort_keys=True) + "\n" for e in self.events)

    @classmethod
    def read(cls, path) -> "SimTrace":
        events = []
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"malformed trace at line {lineno}: {exc}") from exc
        return cls(events)

    @property
    def summary(self) -> dict:
        for e in reversed(self.events):
            if e["type"] == "summary":
                return e
        raise ScenarioError("trace has no summary event")


def chain_digest(node: Node) -> bytes:
    acc = hashlib.sha256()
    for block in node.chain.blocks:
        acc.update(block.header.hash())
    return acc.digest()


def run_simulation(scenario: SimScenario) -> SimTrace:
    rng = random.Random(scenario.seed)
    genesis = scenario.genesis()
    node_cfg = NodeConfig(
        empty_block_interval=scenario.empty_block_interval,
        timeout_ticks=scenario.effective_timeout(),
        gossip_interval=scenario.effective_gossip(),
    )
    vkeys = scenario.validator_keys()
    nodes = [Node(i, sk, genesis, node_cfg) for i, (sk, _) in enumerate(vkeys)]
    n = len(nodes)
    workload = scenario.build_workload()
    by_tick: dict[int, list[tuple[int, Transaction]]] = {}
    for idx, (tick, tx) in enumerate(workload):
        by_tick.setdefault(tick, []).append((idx, tx))

    events: list[dict] = [
        {
            "type": "scenario",
            "digest": scenario.digest().hex(),
            "seed": scenario.seed,
            "n_validators": n,
            "max_ticks": scenario.max_ticks,
            "drop_probability": scenario.drop_probability,
        }
    ]
    # pending deliveries: {tick: [(dest, seq, src, msg)]}
    mailbox: dict[int, list[tuple[int, int, int, ConsensusMessage]]] = {}
    seq = 0

    def crashed(node_idx: int, tick: int) -> bool:
        t = scenario.crash_faults.get(node_idx)
        return t is not None and tick >= t

    def partition_blocked(tick: int, a: int, b: int) -> bool:
        return any(p.blocks(tick, a, b) for p in scenario.partitions)

    def send(src: int, dest: int | None, msg: ConsensusMessage, tick: int) -> None:
        nonlocal seq
        dests = range(n) if dest is None else [dest]
        for d in dests:
            if d == src:
                continue
            if partition_blocked(tick, src, d):
                events.append({"type": "msg", "t": tick, "src": src, "dst": d,
                               "kind": msg.kind, "out": "blocked"})
                continue
            latency = rng.randint(*scenario.latency)
            dropped = rng.random() < scenario.drop_probability
            deliver = tick + latency
            if crashed(d, deliver):
                out = "crashed"
            elif dropped:
                out = "drop"
            else:
                out = "ok"
            events.append({"type": "msg", "t": tick, "src": src, "dst": d,
                           "kind": msg.kind, "out": out, "at": deliver})
            if out == "ok":
                seq += 1
                mailbox.setdefault(deliver, []).append((d, seq, src, msg))

    for tick in range(scenario.max_ticks + 1):
        # deliveries first, ordered by (destination node id, send sequence)
        for d, _, src, msg in sorted(mailbox.pop(tick, []), key=lambda e: (e[0], e[1])):
            if crashed(d, tick):
                continue
            for dest2, out_msg in nodes[d].on_message(msg, src, tick):
                send(d, dest2, out_msg, tick)
            _record_commits(nodes[d], events, tick)
        # workload injection
        for idx, tx in by_tick.pop(tick, []):
            target = idx % n
            while crashed(target, tick):
                target = (target + 1) % n
            events.append({"type": "submit", "t": tick, "node": target, "tx": tx.hash().hex()})
            for dest2, out_msg in nodes[target].submit(tx):
                send(target, dest2, out_msg, tick)
        # node timers in id order
        for i, node in enumerate(nodes):
            if crashed(i, tick):
                continue
            for dest2, out_msg in node.on_tick(tick):
                send(i, dest2, out_msg, tick)
            _record_commits(node, events, tick)

    submitted = {tx.hash() for _, tx in workload}
    all_live_committed = all(
        submitted <= node.chain.committed_txs
        for i, node in enumerate(nodes)
        if not crashed(i, scenario.max_ticks)
    )
    events.append(
        {
            "type": "summary",
            "truncated": not all_live_committed,
            "max_ticks": scenario.max_ticks,
            "nodes": [
                {
                    "node": i,
                    "height": node.chain.height,
                    "head": node.chain.head.header.hash().hex(),
                    "chain_digest": chain_digest(node).hex(),
                    "state_bytes": len(node.chain.state.serialize()),
                    "state_root": node.chain.state.root().hex(),
                    "mempool": len(node.mempool),
                    "invalid_dropped": node.invalid_dropped,
                    "crashed": crashed(i, scenario.max_ticks),
                }
                for i, node in enumerate(nodes)
            ],
        }
    )
    return SimTrace(events)


def _record_commits(node: Node, events: list[dict], tick: int) -> None:
    # emit commit lines for blocks appended since the node's last record
    recorded = getattr(node, "_recorded_height", 0)
    for block in node.chain.blocks[recorded + 1 :]:
        events.append(
            {
                "type": "commit",
                "t": tick,
                "node": node.index,
                "h": block.header.height,
                "hash": block.header.hash().hex(),
                "state_root": block.header.state_root.hex(),
                "txs": [tx.hash().hex() for tx in block.transactions],
            }
        )
    node._recorded_height = node.chain.height
