"""Seeded discrete-event simulation of the validator network.

The trace is a pure function of the scenario: one RNG seeded from the
scenario drives latency and drop draws, deliveries at a tick are processed
in (node id, sequence) order, and every message send is recorded with its
outcome. A destination cut off by a partition draws nothing; any other draws
its latency and then one `random()` for the drop. Identical scenarios
therefore produce byte-identical traces.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .chain import GenesisConfig
from .codec import enc_u64, hash256
from .consensus import ConsensusMessage, Node, NodeConfig
from .keys import address_from_pubkey, generate_keypair
from .tx import Transaction, hex_bytes, parse_u64, payload_from_json, sign_transaction
from .vm import created_id


class ScenarioError(ValueError):
    pass


def validator_seed(scenario_seed: int, index: int) -> bytes:
    return hash256(b"testingplus/validator/" + enc_u64(scenario_seed) + enc_u64(index))


def account_seed(scenario_seed: int, index: int) -> bytes:
    return hash256(b"testingplus/account/" + enc_u64(scenario_seed) + enc_u64(index))


@lru_cache(maxsize=64)
def _keypairs(derive, scenario_seed: int, count: int) -> tuple[tuple[bytes, bytes], ...]:
    # derived once per (seed, count): genesis, the nodes and the workload share them
    return tuple(generate_keypair(derive(scenario_seed, i)) for i in range(count))


@dataclass(frozen=True)
class Partition:
    from_tick: int
    to_tick: int
    sides: tuple[tuple[int, ...], ...]

    def side_table(self, n: int) -> list[int | None]:
        """Per node 0..n-1, the index of the side it is on (None if on none)."""
        table: list[int | None] = [None] * n
        for i, side in enumerate(self.sides):
            for node in side:
                if 0 <= node < n:
                    table[node] = i
        return table


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
            # checked as a list: a dict would keep only a node's last crash
            crash_faults: dict[int, int] = {}
            for c in raw.get("crash_faults", []):
                node = int(c["node"])
                if node in crash_faults:
                    raise ScenarioError(f"crash fault for node {node} listed twice")
                crash_faults[node] = int(c["tick"])
            scenario = cls(
                seed=int(raw["seed"]),
                n_validators=int(raw["n_validators"]),
                latency=(int(raw["latency"][0]), int(raw["latency"][1])),
                drop_probability=float(raw.get("drop_probability", 0.0)),
                partitions=partitions,
                crash_faults=crash_faults,
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
        for node in self.crash_faults:
            if not 0 <= node < self.n_validators:
                raise ScenarioError(
                    f"crash fault for node {node} outside 0..{self.n_validators - 1}"
                )
        # only ticks 0..max_ticks are simulated, and a submission goes to a live
        # validator, so none may arrive once all have crashed
        all_down = None
        if all(i in self.crash_faults for i in range(self.n_validators)):
            all_down = max(self.crash_faults[i] for i in range(self.n_validators))
        for k, entry in enumerate(self.workload):
            try:
                tick = int(entry["tick"])
            except (KeyError, TypeError, ValueError):
                continue  # build_workload reports a malformed entry
            if not 0 <= tick <= self.max_ticks:
                raise ScenarioError(
                    f"workload entry {k}: tick {tick} outside 0..max_ticks ({self.max_ticks})"
                )
            if all_down is not None and tick >= all_down:
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
        return list(_keypairs(validator_seed, self.seed, self.n_validators))

    def account_keys(self) -> list[tuple[bytes, bytes]]:
        return list(_keypairs(account_seed, self.seed, len(self.account_balances)))

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

        Nonces follow list order per sender; accounts are given by index,
        and {"ref": k} fields resolve to the id created by workload entry k
        (contract, case, or execution id).
        """
        keys = self.account_keys()
        addrs = [address_from_pubkey(pk) for _, pk in keys]
        nonces = [0] * len(keys)
        created: dict[int, bytes] = {}
        out: list[tuple[int, Transaction]] = []

        def index_of(value) -> int:
            index = int(value)
            if not 0 <= index < len(addrs):
                raise ScenarioError(f"account index {index} out of range")
            return index

        def ident(value) -> bytes:
            if isinstance(value, dict) and "ref" in value:
                ref = int(value["ref"])
                if ref not in created:
                    raise ScenarioError(f"workload ref {ref} does not name a created id")
                return created[ref]
            return hex_bytes(value)

        for k, entry in enumerate(self.workload):
            try:
                tick = int(entry["tick"])
                sender_idx = index_of(entry["sender"])
                payload = payload_from_json(entry, ident, lambda i: addrs[index_of(i)], hash256)
                sender, nonce = addrs[sender_idx], nonces[sender_idx]
                tx = Transaction(sender, nonce, payload, parse_u64(entry.get("value", 0)))
                tx = sign_transaction(tx, *keys[sender_idx])
            except (KeyError, TypeError, ValueError) as exc:
                raise ScenarioError(f"workload entry {k}: {exc}") from exc
            cid = created_id(payload, sender, nonce)
            if cid is not None:
                created[k] = cid
            nonces[sender_idx] += 1
            out.append((tick, tx))
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


# crash tick of a node that never crashes: later than any delivery
NEVER = 1 << 62


def latency_sampler(rng: random.Random, lo: int, hi: int):
    """Return a function that draws like ``rng.randint(lo, hi)``.

    It makes the same ``getrandbits`` calls as CPython's ``randint``
    (rejection sampling over ``span.bit_length()`` bits, so a span of one
    still consumes a draw), so it returns the same values and leaves ``rng``
    in the same state, without randint's argument checks and call layers.
    """
    span = hi - lo + 1
    if span < 1:
        raise ValueError(f"empty latency range {lo}..{hi}")  # it would draw forever
    bits = span.bit_length()
    getrandbits = rng.getrandbits

    def draw() -> int:
        r = getrandbits(bits)
        while r >= span:
            r = getrandbits(bits)
        return lo + r

    return draw


def run_simulation(scenario: SimScenario) -> SimTrace:
    rng = random.Random(scenario.seed)
    draw_latency = latency_sampler(rng, *scenario.latency)
    random_draw = rng.random
    drop = scenario.drop_probability
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
    recorded = [1] * n  # per node, how many of its blocks have commit lines (genesis counts)

    # fault tables: a node is down from its crash tick on; a partition is
    # consulted only on the ticks its window covers
    crash_at = [scenario.crash_faults.get(i, NEVER) for i in range(n)]
    windows = [(p.from_tick, p.to_tick, p.side_table(n)) for p in scenario.partitions]
    others = [[d for d in range(n) if d != s] for s in range(n)]
    cut_tables: dict[tuple[int, ...], list[list[bool]]] = {}

    def cut_for(active: tuple[int, ...]) -> list[list[bool]]:
        # per source, per destination: whether an active partition separates them
        if active not in cut_tables:
            sides = [windows[i][2] for i in active]
            cut_tables[active] = [
                [any(side[s] != side[d] for side in sides) for d in range(n)] for s in range(n)
            ]
        return cut_tables[active]

    events: list[dict] = [
        {
            "type": "scenario",
            "digest": genesis.chain_id.hex(),
            "seed": scenario.seed,
            "n_validators": n,
            "max_ticks": scenario.max_ticks,
            "drop_probability": scenario.drop_probability,
        }
    ]
    emit = events.append
    # pending deliveries: {tick: [(dest, seq, src, msg)]}
    mailbox: dict[int, list[tuple[int, int, int, ConsensusMessage]]] = defaultdict(list)
    seq = 0
    cut: list[list[bool]] | None = None  # cut_for() of the current tick, None if no partition

    def send(src: int, dest: int | None, msg: ConsensusMessage, tick: int) -> None:
        # per destination: a blocked one draws nothing, any other draws its
        # latency and then one random() for the drop
        nonlocal seq
        kind = msg.kind
        row = None if cut is None else cut[src]
        for d in others[src] if dest is None else (dest,):
            if d == src:
                continue
            if row is not None and row[d]:
                emit({"type": "msg", "t": tick, "src": src, "dst": d,
                      "kind": kind, "out": "blocked"})
                continue
            deliver = tick + draw_latency()
            dropped = random_draw() < drop
            if deliver >= crash_at[d]:
                out = "crashed"
            elif dropped:
                out = "drop"
            else:
                out = "ok"
                seq += 1
                mailbox[deliver].append((d, seq, src, msg))
            emit({"type": "msg", "t": tick, "src": src, "dst": d,
                  "kind": kind, "out": out, "at": deliver})

    for tick in range(scenario.max_ticks + 1):
        if windows:
            active = tuple(i for i, (lo, hi, _) in enumerate(windows) if lo <= tick <= hi)
            cut = cut_for(active) if active else None
        # deliveries first, ordered by (destination node id, send sequence)
        box = mailbox.pop(tick, None)
        if box:
            box.sort()  # (dest, seq) pairs are unique, so messages are never compared
            for d, _, src, msg in box:
                if tick >= crash_at[d]:
                    continue
                node = nodes[d]
                for dest2, out_msg in node.on_message(msg, src, tick):
                    send(d, dest2, out_msg, tick)
                if len(node.chain.blocks) != recorded[d]:
                    _record_commits(node, recorded, events, tick)
        # workload injection
        for idx, tx in by_tick.pop(tick, ()):
            target = idx % n
            while tick >= crash_at[target]:
                target = (target + 1) % n
            emit({"type": "submit", "t": tick, "node": target, "tx": tx.hash().hex()})
            for dest2, out_msg in nodes[target].submit(tx):
                send(target, dest2, out_msg, tick)
        # node timers in id order
        for i, node in enumerate(nodes):
            if tick >= crash_at[i]:
                continue
            for dest2, out_msg in node.on_tick(tick):
                send(i, dest2, out_msg, tick)
            if len(node.chain.blocks) != recorded[i]:
                _record_commits(node, recorded, events, tick)

    last = scenario.max_ticks
    submitted = {tx.hash() for _, tx in workload}
    all_live_committed = all(
        submitted <= node.chain.committed_txs
        for i, node in enumerate(nodes)
        if last < crash_at[i]
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
                    "crashed": last >= crash_at[i],
                }
                for i, node in enumerate(nodes)
            ],
        }
    )
    return SimTrace(events)


def _record_commits(node: Node, recorded: list[int], events: list[dict], tick: int) -> None:
    # emit commit lines for blocks appended since the node's last record
    for block in node.chain.blocks[recorded[node.index] :]:
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
    recorded[node.index] = len(node.chain.blocks)
