"""Per-layer spans taken from outside the program.

`install` replaces each public boundary function of the program's modules
with a wrapper that records a span (id, parent id, name, start, end) while a
`Tracer` is active. A function is replaced under every name its callers look
it up by: `hash256`, for example, is imported by name into most modules, so
each of those bindings is swapped, not only the one in `codec`. Methods are
wrapped on their class.

Aggregates (calls, total and self time, bytes) are kept for every span; the
spans themselves are kept in memory up to `max_spans` and written out at the
end. Self time is a span's duration minus the time its child spans cover.

The encoding primitives of `codec` (`enc_u64`, `enc_bytes`, `Reader`) are
not wrapped: they run once per field of every record, and a span around each
would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

PACKAGE = "testingplus"


def _arg0_len(args, result) -> int:
    return len(args[0])


def _result_len(args, result) -> int:
    return len(result)


def _store_len(args, result) -> int:
    store = args[0]
    return store.chain_path.stat().st_size + (
        store.mirror_path.stat().st_size if store.mirror_path.exists() else 0
    )


# (module, function or Class.method, optional bytes measure)
TARGETS = [
    ("codec", "hash256", _arg0_len),
    ("keys", "generate_keypair", None),
    ("keys", "address_from_pubkey", None),
    ("keys", "sign", None),
    ("keys", "verify", None),
    ("tx", "Transaction.hash", None),
    ("tx", "sign_transaction", None),
    ("tx", "verify_transaction", None),
    ("tx", "decode_transaction", None),
    ("block", "BlockHeader.hash", None),
    ("block", "build_block", None),
    ("block", "merkle_root", None),
    ("block", "merkle_proof", None),
    ("block", "verify_merkle_proof", None),
    ("block", "encode_chain", None),
    ("block", "decode_chain", None),
    ("state", "WorldState.copy", None),
    ("state", "WorldState.serialize", _result_len),
    ("state", "WorldState.root", None),
    ("vm", "apply_transaction", None),
    ("chain", "verify_chain", None),
    ("chain", "Chain.execute", None),
    ("chain", "Chain.stage", None),
    ("chain", "Chain.seal", None),
    ("chain", "Chain.validate_block", None),
    ("chain", "Chain.check_votes", None),
    ("chain", "Chain.append", None),
    ("chain", "Chain.from_blocks", None),
    ("chain", "ChainStore.load", None),
    ("chain", "ChainStore.save", _store_len),
    ("workflow", "compute_compensation", None),
    ("workflow", "audit_trail", None),
    ("workflow", "ArtifactStore.put", None),
    ("workflow", "ArtifactStore.get", None),
    ("consensus", "Node.submit", None),
    ("consensus", "Node.on_tick", None),
    ("consensus", "Node.on_message", None),
    ("sim", "SimScenario.build_workload", None),
    ("sim", "run_simulation", None),
    ("metrics", "analyze", None),
    ("cli", "main", None),
    ("cli", "cmd_submit", None),
    ("cli", "cmd_query", None),
]


class Tracer:
    """Span recorder; does nothing while `active` is false."""

    def __init__(self, max_spans: int = 200_000):
        self.active = False
        self.max_spans = max_spans
        # name -> [calls, total s, self s, bytes, largest bytes]
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def wrap(self, name: str, fn, measure=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        stack, spans, clock, tracer = self._stack, self.spans, time.perf_counter, self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if len(spans) < tracer.max_spans:
                    spans.append((span_id, parent, name, start, end))
            if measure is not None:
                n = measure(args, result)
                stats[3] += n
                stats[4] = max(stats[4], n)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> dict:
        return {name: list(s) for name, s in self.stats.items()}


def install(tracer: Tracer) -> None:
    """Wrap every target of TARGETS; the program's modules are imported here."""
    for mod_name, _, _ in TARGETS:
        importlib.import_module(f"{PACKAGE}.{mod_name}")
    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    for mod_name, path, measure in TARGETS:
        module = sys.modules[f"{PACKAGE}.{mod_name}"]
        name = f"{mod_name}.{path}"
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, measure)))
            else:
                setattr(cls, attr, tracer.wrap(name, raw, measure))
            continue
        fn = getattr(module, path)
        wrapped = tracer.wrap(name, fn, measure)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, wrapped)


def write_spans(path, groups) -> None:
    """Write spans as JSON lines; `groups` is [(process label, spans)]."""
    with open(path, "w") as fh:
        for label, spans in groups:
            for span_id, parent, name, start, end in spans:
                fh.write(json.dumps({"proc": label, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def merge(into: dict, stats: dict) -> None:
    """Add one process's aggregates (from `Tracer.dump`) into another's."""
    for name, s in stats.items():
        t = into.setdefault(name, [0, 0.0, 0.0, 0, 0])
        for i in range(4):
            t[i] += s[i]
        t[4] = max(t[4], s[4])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, denom: dict, extra: dict) -> dict:
    """Per-layer metrics from aggregated spans.

    `denom` holds the timed phase's txs, blocks, cmds (CLI commands), submits,
    scenarios and ticks; `extra` holds figures taken from program outputs
    (consensus and sim counts, CLI import time). Every metric is reported on
    every workload; one that the workload never reaches reads 0.
    """
    def calls(n):
        return stats.get(n, [0] * 5)[0]

    def total_ms(n):
        return stats.get(n, [0] * 5)[1] * 1000

    def self_ms(n):
        return stats.get(n, [0] * 5)[2] * 1000

    def kib(n):
        return stats.get(n, [0] * 5)[3] / 1024

    tx, blk, cmd, sub = denom["txs"], denom["blocks"], denom["cmds"], denom["submits"]
    out = {
        "state.root.calls_per_tx": (_ratio(calls("state.WorldState.root"), tx), "calls/tx"),
        "state.root.self_ms_per_tx": (_ratio(self_ms("state.WorldState.root"), tx), "ms/tx"),
        "state.serialize.kb_per_tx": (_ratio(kib("state.WorldState.serialize"), tx), "KiB/tx"),
        "state.copy.calls_per_block": (_ratio(calls("state.WorldState.copy"), blk), "calls/block"),
        "state.copy.self_ms_per_block": (_ratio(self_ms("state.WorldState.copy"), blk), "ms/block"),
        "state.size_kb": (stats.get("state.WorldState.serialize", [0] * 5)[4] / 1024, "KiB"),
        "vm.apply_transaction.calls_per_tx": (_ratio(calls("vm.apply_transaction"), tx), "calls/tx"),
        "vm.apply_transaction.self_ms_per_tx": (_ratio(self_ms("vm.apply_transaction"), tx), "ms/tx"),
        "codec.hash256.calls_per_tx": (_ratio(calls("codec.hash256"), tx), "calls/tx"),
        "codec.hash256.kb_per_tx": (_ratio(kib("codec.hash256"), tx), "KiB/tx"),
        "codec.hash256.self_ms_per_tx": (_ratio(self_ms("codec.hash256"), tx), "ms/tx"),
        "tx.hash.calls_per_tx": (_ratio(calls("tx.Transaction.hash"), tx), "calls/tx"),
        "tx.hash.self_ms_per_tx": (_ratio(self_ms("tx.Transaction.hash"), tx), "ms/tx"),
        "block.merkle_root.calls_per_block": (_ratio(calls("block.merkle_root"), blk), "calls/block"),
        "block.merkle_root.self_ms_per_block": (_ratio(self_ms("block.merkle_root"), blk), "ms/block"),
        "block.header_hash.calls_per_block": (_ratio(calls("block.BlockHeader.hash"), blk), "calls/block"),
        "block.decode_chain.ms_per_cmd": (_ratio(total_ms("block.decode_chain"), cmd), "ms/cmd"),
        "block.encode_chain.ms_per_submit": (_ratio(total_ms("block.encode_chain"), sub), "ms/submit"),
        "keys.verify.calls_per_tx": (_ratio(calls("keys.verify"), tx), "calls/tx"),
        "keys.verify.self_ms_per_tx": (_ratio(self_ms("keys.verify"), tx), "ms/tx"),
        "keys.sign.calls_per_block": (_ratio(calls("keys.sign"), blk), "calls/block"),
        "chain.stage.self_ms_per_block": (_ratio(self_ms("chain.Chain.stage"), blk), "ms/block"),
        "chain.validate_block.calls_per_block": (_ratio(calls("chain.Chain.validate_block"), blk), "calls/block"),
        "chain.validate_block.self_ms_per_block": (_ratio(self_ms("chain.Chain.validate_block"), blk), "ms/block"),
        "chain.append.self_ms_per_block": (_ratio(self_ms("chain.Chain.append"), blk), "ms/block"),
        "chain.verify_chain.ms_per_cmd": (_ratio(total_ms("chain.verify_chain"), cmd), "ms/cmd"),
        "chain.from_blocks.ms_per_cmd": (_ratio(total_ms("chain.Chain.from_blocks"), cmd), "ms/cmd"),
        "chain.store_load.ms_per_cmd": (_ratio(total_ms("chain.ChainStore.load"), cmd), "ms/cmd"),
        "chain.store_save.ms_per_submit": (_ratio(total_ms("chain.ChainStore.save"), sub), "ms/submit"),
        "chain.store_save.kb_per_submit": (_ratio(kib("chain.ChainStore.save"), sub), "KiB/submit"),
        "workflow.query.ms_per_cmd": (_ratio(total_ms("workflow.compute_compensation")
                                             + total_ms("workflow.audit_trail"), cmd), "ms/cmd"),
        "workflow.artifact_put.ms_per_submit": (_ratio(total_ms("workflow.ArtifactStore.put"), sub),
                                                "ms/submit"),
        "consensus.messages_per_tx": (_ratio(extra.get("messages", 0), tx), "msgs/tx"),
        "consensus.on_message.self_ms_per_tx": (_ratio(self_ms("consensus.Node.on_message"), tx), "ms/tx"),
        "consensus.on_tick.self_ms_per_tx": (_ratio(self_ms("consensus.Node.on_tick"), tx), "ms/tx"),
        "consensus.invalid_dropped": (extra.get("invalid_dropped_per_round", 0), "count"),
        "consensus.commit_ticks_p50": (extra.get("commit_ticks_p50", 0), "ticks"),
        "sim.run.self_ms_per_tick": (_ratio(self_ms("sim.run_simulation"), denom["ticks"]), "ms/tick"),
        "sim.events_per_tx": (_ratio(extra.get("events", 0), tx), "events/tx"),
        "metrics.analyze.ms_per_scenario": (_ratio(total_ms("metrics.analyze"), denom["scenarios"]),
                                            "ms/scenario"),
        "cli.import_ms": (extra.get("cli_import_ms", 0), "ms"),
        "cli.main.self_ms_per_cmd": (_ratio(self_ms("cli.main"), cmd), "ms/cmd"),
    }
    return out
