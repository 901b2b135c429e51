"""Seeded discrete-event simulation of the validator network.

The trace is a pure function of the scenario: one RNG seeded from the
scenario drives latency and drop draws, deliveries at a tick are processed
by destination node id, each destination's in send order, and every message
send is recorded with its outcome. A destination cut off by a partition
draws nothing; any other draws its latency and then one `random()` for the
drop. Identical scenarios therefore produce byte-identical traces.

The mailbox holds, for each tick with messages due, one list per
destination node, and a message is appended to its destination's list when
it is sent. A latency is at least one tick, so nothing is added to a tick's
lists while they are delivered: reading them in node id order, each from
the front, is that order, with no sequence number and no sort. A message
that would arrive once its destination has crashed is recorded as `crashed`
and never queued.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from pathlib import Path

from .chain import GenesisConfig, check_issuance, replace_file
from .codec import (HASH_HEX, InputError, enc_u64, hash256, kept, list_of, obj, positive,
                    probability, record, uint)
from .consensus import ConsensusMessage, Node, Outbound
from .keys import address_from_pubkey, generate_keypair
from .tx import WORKLOAD_ENTRY, Transaction, payload_from_json, sign_transaction
from .vm import created_id


def _keypairs(role: bytes, seed: int, count: int) -> tuple[tuple[bytes, bytes], ...]:
    """The first `count` key pairs of `role` (b"validator" or b"account") for a scenario seed."""
    prefix = b"testingplus/" + role + b"/" + enc_u64(seed)
    return tuple(generate_keypair(hash256(prefix + enc_u64(i))) for i in range(count))


_REF = obj(ref=uint)
_PARTITION = obj(from_tick=uint, to_tick=uint, sides=list_of(list_of(uint)))
CRASH_FAULTS = list_of(obj(node=uint, tick=uint))
_SCENARIO = obj(
    seed=uint,
    n_validators=positive,
    latency=list_of(positive, 2),
    drop_probability=(probability, 0.0),
    partitions=(list_of(_PARTITION), []),
    crash_faults=(CRASH_FAULTS, []),
    accounts=(list_of(uint), []),
    workload=(list_of(WORKLOAD_ENTRY), []),
    max_ticks=positive,
    empty_block_interval=(uint, 50),
    # 0 or null: from_dict derives them from the latency bound
    timeout_ticks=(uint, None),
    gossip_interval=(uint, None),
)


@record("seed", "n_validators", "latency", "drop_probability", "partitions", "crash_faults",
        "account_balances", "workload", "max_ticks", "empty_block_interval", "timeout_ticks",
        "gossip_interval", "chain_id")
class SimScenario:
    """`latency`: (low, high); `partitions`: dicts of from_tick, to_tick and sides;
    `crash_faults`: node -> crash tick; `chain_id`: the SHA-256 of the scenario's
    sorted JSON. `from_dict` resolves `timeout_ticks` and `gossip_interval`; the
    three timers go to every `Node` of a run. The key pairs and the frozen
    genesis are `kept`: derived once and shared by every run of the scenario."""

    @classmethod
    def from_dict(cls, raw: dict) -> "SimScenario":
        """Every field is read by its kind; the checks here relate fields."""
        v = _SCENARIO(raw, "")
        n, (lo, hi), max_ticks = v["n_validators"], v["latency"], v["max_ticks"]
        if hi < lo:
            raise InputError("latency[1]", f"at least latency[0] ({lo})", hi)
        for i, p in enumerate(v["partitions"]):
            if p["to_tick"] < p["from_tick"]:
                raise InputError(f"partitions[{i}].to_tick",
                                 f"at least from_tick ({p['from_tick']})", p["to_tick"])
            if sorted(node for side in p["sides"] for node in side) != list(range(n)):
                raise InputError(f"partitions[{i}].sides",
                                 f"a split of nodes 0..{n - 1}, each on one side", p["sides"])
        crash_faults: dict[int, int] = {}  # read as a list: a dict keeps one crash per node
        for i, fault in enumerate(v["crash_faults"]):
            node = fault["node"]
            if node >= n:
                raise InputError(f"crash_faults[{i}].node", f"a node in 0..{n - 1}", node)
            if node in crash_faults:
                raise InputError(f"crash_faults[{i}].node", "a node no earlier crash fault names",
                                 node)
            crash_faults[node] = fault["tick"]
        check_issuance(v["accounts"])
        # only ticks 0..max_ticks are simulated, and a submission goes to a live
        # validator, so none may arrive once all have crashed
        all_down = max(crash_faults.values()) if len(crash_faults) == n else None
        for k, entry in enumerate(v["workload"]):
            tick = entry["tick"]
            if tick > max_ticks:
                raise InputError(f"workload[{k}].tick", f"at most max_ticks ({max_ticks})", tick)
            if all_down is not None and tick >= all_down:
                raise InputError(f"workload[{k}].tick",
                                 f"before every validator has crashed (at tick {all_down})", tick)
        return cls(
            seed=v["seed"],
            n_validators=n,
            latency=(lo, hi),
            drop_probability=v["drop_probability"],
            partitions=list(v["partitions"]),
            crash_faults=crash_faults,
            account_balances=list(v["accounts"]),
            workload=list(v["workload"]),
            max_ticks=max_ticks,
            empty_block_interval=v["empty_block_interval"],
            timeout_ticks=v["timeout_ticks"] or 10 * hi,
            gossip_interval=v["gossip_interval"] or 2 * hi,
            chain_id=hash256(json.dumps(raw, sort_keys=True).encode()),
        )

    # -- key material and genesis -------------------------------------------

    @kept
    def validator_keys(self) -> tuple[tuple[bytes, bytes], ...]:
        return _keypairs(b"validator", self.seed, self.n_validators)

    @kept
    def account_keys(self) -> tuple[tuple[bytes, bytes], ...]:
        return _keypairs(b"account", self.seed, len(self.account_balances))

    @kept
    def genesis(self) -> GenesisConfig:
        return GenesisConfig(
            chain_id=self.chain_id,
            validator_pubkeys=[pk for _, pk in self.validator_keys],
            accounts=[
                (pk, bal)
                for (_, pk), bal in zip(self.account_keys, self.account_balances)
            ],
        )

    # -- workload resolution -------------------------------------------------

    def build_workload(self) -> list[tuple[int, Transaction]]:
        """Resolve symbolic entries into signed transactions.

        Nonces follow list order per sender; accounts are given by index,
        and {"ref": k} fields resolve to the id created by workload entry k
        (contract, case, execution or feedback id).
        """
        keys = self.account_keys
        addrs = [address_from_pubkey(pk) for _, pk in keys]
        nonces = [0] * len(keys)
        created: dict[int, bytes] = {}
        out: list[tuple[int, Transaction]] = []

        def index_of(value, path: str) -> int:
            index = uint(value, path)
            if index >= len(addrs):
                raise InputError(path, f"an account index below {len(addrs)}", index)
            return index

        def account(value, path: str) -> bytes:
            return addrs[index_of(value, path)]

        def ident(value, path: str) -> bytes:
            if not isinstance(value, dict):
                return HASH_HEX(value, path)
            ref = _REF(value, path)["ref"]
            if ref not in created:
                raise InputError(f"{path}.ref", "an earlier entry that creates an id", ref)
            return created[ref]

        for k, entry in enumerate(self.workload):
            path = f"workload[{k}]"
            sender_idx = index_of(entry["sender"], f"{path}.sender")
            payload = payload_from_json(entry, hash256, ident, account, path)
            sender, nonce = addrs[sender_idx], nonces[sender_idx]
            tx = sign_transaction(Transaction(sender, nonce, payload, entry["value"]),
                                  *keys[sender_idx])
            cid = created_id(payload, sender, nonce)
            if cid is not None:
                created[k] = cid
            nonces[sender_idx] += 1
            out.append((entry["tick"], tx))
        return out


# a msg row as json.dumps(sort_keys=True) writes its dict, which holds no
# "at" when blocked; a kind is a plain lowercase word, written unescaped
_MSG_LINE = '{"at": %d, "dst": %d, "kind": "%s", "out": "%s", "src": %d, "t": %d, "type": "msg"}\n'
_BLOCKED_LINE = '{"dst": %d, "kind": "%s", "out": "blocked", "src": %d, "t": %d, "type": "msg"}\n'


def _msg_event(row: tuple) -> dict:
    """The dict of a msg row (t, src, dst, kind, out, at)."""
    t, src, dst, kind, out, at = row
    event = {"type": "msg", "t": t, "src": src, "dst": dst, "kind": kind, "out": out}
    if at is not None:
        event["at"] = at
    return event


class SimTrace:
    """Newline-delimited JSON event log plus a final per-node summary.

    `rows` holds the events in order, in one form however the trace was
    made: a msg event as a row (t, src, dst, kind, out, at), `at` None when
    `out` is "blocked", and every other event as a dict. A run makes these
    rows and `read` gives them back. `to_text` writes a row through a fixed
    template, as `json.dumps(sort_keys=True)` writes its dict. `events` is a
    view of the log as dicts, built anew on each read; it never rewrites
    `rows`, and shares their non-msg dicts."""

    def __init__(self, rows: list):
        self.rows = rows

    @property
    def events(self) -> list[dict]:
        return [_msg_event(e) if type(e) is tuple else e for e in self.rows]

    def write(self, path) -> None:
        replace_file(Path(path), self.to_text().encode())

    def to_text(self) -> str:
        encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps builds one per call
        lines = []
        line = lines.append
        for e in self.rows:
            if type(e) is not tuple:
                line(encode(e) + "\n")
            elif e[4] == "blocked":
                line(_BLOCKED_LINE % (e[2], e[3], e[1], e[0]))
            else:
                line(_MSG_LINE % (e[5], e[2], e[3], e[4], e[1], e[0]))
        return "".join(lines)

    @classmethod
    def read(cls, path) -> "SimTrace":
        """The trace a file holds, as its run made it. A line no run writes
        is an InputError naming it: one that is blank or not a JSON object,
        or a msg line its row would not write back (a field missing or
        extra, or `at` on a blocked message or missing from another)."""
        rows = []
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            try:
                e = json.loads(line)
            except json.JSONDecodeError:
                e = None
            if type(e) is not dict:
                raise InputError(f"line {lineno}", "a JSON object", line)
            if e.get("type") == "msg":
                row = tuple(map(e.get, ("t", "src", "dst", "kind", "out", "at")))
                try:
                    written = cls([row]).to_text()
                except (TypeError, ValueError, OverflowError):  # a value no template takes
                    written = None
                if written != json.dumps(e, sort_keys=True) + "\n":
                    raise InputError(f"line {lineno}", "a msg event with t, src, dst, kind, "
                                     "out and, unless blocked, at", line)
                e = row
            rows.append(e)
        return cls(rows)

    @property
    def summary(self) -> dict:
        for e in reversed(self.rows):
            if type(e) is dict and e.get("type") == "summary":
                return e
        raise InputError("trace", "an event log with a summary event")


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
    """Run `scenario` from tick 0 through `max_ticks` and return its trace.

    The nodes' chains share one memo of executed blocks, made for this run
    alone (see `Chain`): the first node that stages or validates a block
    executes it, and every other node adopts its post-state. At the end of
    each tick the entries at heights every live node has passed are dropped."""
    rng = random.Random(scenario.seed)
    draw_latency = latency_sampler(rng, *scenario.latency)
    random_draw = rng.random
    drop = scenario.drop_probability
    executed: dict = {}  # header hash -> (post-state, receipts), shared by every node
    nodes = [Node(i, sk, scenario.genesis, scenario.gossip_interval, scenario.timeout_ticks,
                  scenario.empty_block_interval, executed)
             for i, (sk, _) in enumerate(scenario.validator_keys)]
    n = len(nodes)
    workload = scenario.build_workload()
    by_tick: dict[int, list[tuple[int, Transaction]]] = {}
    for idx, (tick, tx) in enumerate(workload):
        by_tick.setdefault(tick, []).append((idx, tx))
    recorded = [1] * n  # per node, how many of its blocks have commit lines (genesis counts)
    passed = 0  # every live node's chain holds the blocks up to this height

    # fault tables: a node is down from its crash tick on; a partition is
    # consulted only on the ticks its window covers
    crash_at = [scenario.crash_faults.get(i, NEVER) for i in range(n)]
    windows = [(p["from_tick"], p["to_tick"],
                {node: i for i, side in enumerate(p["sides"]) for node in side})  # node -> its side
               for p in scenario.partitions]
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

    events: list = [
        {
            "type": "scenario",
            "digest": scenario.chain_id.hex(),
            "seed": scenario.seed,
            "n_validators": n,
            "max_ticks": scenario.max_ticks,
            "drop_probability": scenario.drop_probability,
        }
    ]
    emit = events.append
    # pending deliveries: {tick: per destination, [(src, msg)] in send order}
    mailbox: dict[int, list[list[tuple[int, ConsensusMessage]]]] = defaultdict(
        lambda: [[] for _ in range(n)])
    cut: list[list[bool]] | None = None  # cut_for() of the current tick, None if no partition

    def send(src: int, out: list[Outbound], tick: int) -> None:
        # per message, per destination: a blocked one draws nothing, any
        # other draws its latency and then one random() for the drop; each
        # is recorded as a msg row (see _msg_event)
        cut_off = None if cut is None else cut[src]
        for dest, msg in out:
            if dest is None:
                dests = others[src]
            elif dest != src:
                dests = (dest,)
            else:
                continue
            kind = msg.kind
            for d in dests:
                if cut_off is not None and cut_off[d]:
                    emit((tick, src, d, kind, "blocked", None))
                    continue
                deliver = tick + draw_latency()
                dropped = random_draw() < drop
                if deliver >= crash_at[d]:
                    outcome = "crashed"
                elif dropped:
                    outcome = "drop"
                else:
                    outcome = "ok"
                    mailbox[deliver][d].append((src, msg))
                emit((tick, src, d, kind, outcome, deliver))

    for tick in range(scenario.max_ticks + 1):
        if windows:
            active = tuple(i for i, (lo, hi, _) in enumerate(windows) if lo <= tick <= hi)
            cut = cut_for(active) if active else None
        # deliveries first, by destination node id, each in send order; a
        # message due after its destination crashes was never queued
        box = mailbox.pop(tick, None)
        if box is not None:
            for d, queue in enumerate(box):
                node = nodes[d]
                blocks = node.chain.blocks  # Chain.append appends to this list
                for src, msg in queue:
                    out = node.on_message(msg, src, tick)
                    if out:
                        send(d, out, tick)
                    if len(blocks) != recorded[d]:
                        _record_commits(node, recorded, events, tick)
        # workload injection
        for idx, tx in by_tick.pop(tick, ()):
            target = idx % n
            while tick >= crash_at[target]:
                target = (target + 1) % n
            emit({"type": "submit", "t": tick, "node": target, "tx": tx.hash().hex()})
            send(target, nodes[target].submit(tx), tick)
        # node timers in id order; a tick that sends nothing commits nothing
        for i, node in enumerate(nodes):
            if tick < crash_at[i]:
                out = node.on_tick(tick)
                if out:
                    send(i, out, tick)
                    if len(node.chain.blocks) != recorded[i]:
                        _record_commits(node, recorded, events, tick)
        # drop the executed blocks no live node will take again
        if executed:
            floor = min((recorded[i] for i in range(n) if tick < crash_at[i]), default=NEVER) - 1
            if floor > passed:
                passed = floor
                for key in [k for k, (state, _) in executed.items() if state.height <= floor]:
                    del executed[key]

    last = scenario.max_ticks
    submitted = {tx.hash() for _, tx in workload}
    all_live_committed = all(
        submitted <= node.committed_txs
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
                    "chain_digest": hashlib.sha256(
                        b"".join(block.header.hash() for block in node.chain.blocks)).hexdigest(),
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
