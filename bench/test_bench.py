"""Tests of the benchmark itself: a tiny run of each workload, and for each
output check one tampered output that it must reject.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

import checks  # noqa: E402
import cli_store  # noqa: E402
import ledger_growth  # noqa: E402
import sim_faults  # noqa: E402
import tracing  # noqa: E402
from checks import CheckError  # noqa: E402
from testingplus.sim import run_simulation  # noqa: E402


def replace_header(block, **changes):
    return dataclasses.replace(block, header=dataclasses.replace(block.header, **changes))


# -- tiny runs ------------------------------------------------------------


@pytest.mark.parametrize("workload", ["ledger-growth", "sim-faults", "cli-store"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(tmp_path, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--t0", "0", "--out", str(tmp_path),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"], res
    assert res["attempted"] > 0 and res["rounds"] == 1
    if workload == "sim-faults":
        assert res["failed"] > 0  # the 2|2 split scenarios stall
    else:
        assert res["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        assert set(res["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        assert (tmp_path / f"spans-{workload}-3.jsonl").stat().st_size > 0
    else:
        gated = {m["name"]: m["unit"] for m in spec["end_to_end"] if m["name"] != "setup_s"}
        assert {k: u for k, (v, u) in res["end_to_end"].items() if v > 0} == gated


def test_outside_a_checkout_exits_nonzero(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sim-faults", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_names_match_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["ledger-growth", "sim-faults", "cli-store"]
    denom = dict.fromkeys(["txs", "blocks", "cmds", "submits", "scenarios", "ticks"], 1)
    layers = tracing.layer_metrics({}, denom, {})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in layers.items()}


# -- ledger-growth --------------------------------------------------------


@pytest.fixture(scope="module")
def ledger():
    led = ledger_growth.Ledger(5, "tiny")
    chain = copy.deepcopy(led.start)
    receipts = []
    for b in range(led.history_blocks, led.history_blocks + led.round_blocks):
        receipts += led.append(chain, b)
    return led, chain, receipts


def check_ledger(led, chain, receipts, blocks=None, state=None, tally=None):
    blocks = blocks if blocks is not None else chain.blocks
    checks.check_receipts(receipts)
    checks.check_blocks(blocks, {led.vaddr: led.validator[1]}, 1)
    checks.check_ledger_state(state or chain.state, blocks[-1].header, tally or led.tally,
                              led.issued, led.developers)


def test_ledger_untampered_passes(ledger):
    check_ledger(*ledger)


def test_ledger_rejects_reverted_receipt(ledger):
    led, chain, receipts = ledger
    bad = [dataclasses.replace(receipts[0], status="Reverted")] + receipts[1:]
    with pytest.raises(CheckError, match="Reverted"):
        check_ledger(led, chain, bad)


@pytest.mark.parametrize("field,match", [
    ("prev_hash", "link"), ("merkle_root", "merkle"), ("height", "height")])
def test_ledger_rejects_tampered_header(ledger, field, match):
    led, chain, receipts = ledger
    blocks = list(chain.blocks)
    value = 99 if field == "height" else b"\x01" * 32
    blocks[2] = replace_header(blocks[2], **{field: value})
    with pytest.raises(CheckError, match=match):
        check_ledger(led, chain, receipts, blocks=blocks)


def test_ledger_rejects_bad_vote(ledger):
    led, chain, receipts = ledger
    blocks = list(chain.blocks)
    addr, sig = blocks[3].votes[0]
    blocks[3] = blocks[3].with_votes([(addr, bytes([sig[0] ^ 1]) + sig[1:])])
    with pytest.raises(CheckError, match="vote"):
        check_ledger(led, chain, receipts, blocks=blocks)


def test_ledger_rejects_missing_votes(ledger):
    led, chain, receipts = ledger
    blocks = list(chain.blocks)
    blocks[1] = blocks[1].with_votes([])
    with pytest.raises(CheckError, match="quorum"):
        check_ledger(led, chain, receipts, blocks=blocks)


def test_ledger_rejects_wrong_tally(ledger):
    led, chain, receipts = ledger
    with pytest.raises(CheckError, match="cases"):
        check_ledger(led, chain, receipts, tally=dict(led.tally, cases=led.tally["cases"] + 1))


def test_ledger_rejects_minted_currency(ledger):
    led, chain, receipts = ledger
    state = chain.state.copy()
    customer = next(a for a in state.accounts if a not in led.developers and a != led.vaddr)
    state.credit(customer, 1)
    with pytest.raises(CheckError, match="issued"):
        check_ledger(led, chain, receipts, state=state)


def test_ledger_rejects_misrouted_settlement(ledger):
    led, chain, receipts = ledger
    state = chain.state.copy()
    dev = next(iter(led.developers))
    other = next(a for a in state.accounts if a not in led.developers and a != led.vaddr)
    state.debit(dev, 1)
    state.credit(other, 1)
    with pytest.raises(CheckError, match="developer"):
        check_ledger(led, chain, receipts, state=state)


def test_ledger_rejects_wrong_state_root(ledger):
    led, chain, receipts = ledger
    blocks = list(chain.blocks)
    blocks[-1] = replace_header(blocks[-1], state_root=b"\x02" * 32)
    with pytest.raises(CheckError):
        checks.check_ledger_state(chain.state, blocks[-1].header, led.tally, led.issued,
                                  led.developers)


# -- sim-faults -----------------------------------------------------------


@pytest.fixture(scope="module")
def sim_runs():
    out = {}
    for name, sc, healthy, submitted in sim_faults.setup(4, "tiny", None):
        out[name] = (run_simulation(sc).events, submitted, healthy)
    return out


def healthy_run(sim_runs):
    events, submitted, _ = sim_runs["n7-isolate1-crash6"]
    return copy.deepcopy(events), submitted


def test_sim_untampered_passes(sim_runs):
    for events, submitted, healthy in sim_runs.values():
        checks.check_sim_trace(events, submitted, healthy)


def test_sim_split_counts_stranded(sim_runs):
    events, submitted, healthy = sim_runs["n4-split-0"]
    assert not healthy
    assert 0 < checks.check_sim_trace(events, submitted, False) <= submitted


def test_sim_rejects_conflicting_commit(sim_runs):
    events, submitted = healthy_run(sim_runs)
    commits = [e for e in events if e["type"] == "commit"]
    other = next(e for e in commits if e["node"] != commits[0]["node"] and e["h"] == commits[0]["h"])
    other["hash"] = "00" * 32
    with pytest.raises(CheckError, match="two different blocks"):
        checks.check_sim_trace(events, submitted, True)


def test_sim_rejects_double_commit(sim_runs):
    events, submitted = healthy_run(sim_runs)
    commits = [e for e in events if e["type"] == "commit" and e["txs"]]
    a = commits[0]
    b = next(e for e in commits if e["node"] == a["node"] and e["h"] != a["h"])
    b["txs"] = b["txs"] + a["txs"][:1]
    with pytest.raises(CheckError, match="twice"):
        checks.check_sim_trace(events, submitted, True)


def test_sim_rejects_wrong_submission_count(sim_runs):
    events, submitted = healthy_run(sim_runs)
    with pytest.raises(CheckError, match="submissions"):
        checks.check_sim_trace(events, submitted + 1, True)


def test_sim_rejects_stranded_healthy(sim_runs):
    events, submitted = healthy_run(sim_runs)
    for e in events:
        if e["type"] == "commit" and e["node"] == 0:
            e["txs"] = []
    with pytest.raises(CheckError, match="not committed"):
        checks.check_sim_trace(events, submitted, True)


def test_sim_rejects_diverged_nodes(sim_runs):
    events, submitted = healthy_run(sim_runs)
    events[-1]["nodes"][0]["state_root"] = "00" * 32
    with pytest.raises(CheckError, match="different"):
        checks.check_sim_trace(events, submitted, True)


# -- cli-store ------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    store = cli_store.Store(6, "tiny", tmp_path_factory.mktemp("cli"))
    shutil.copytree(store.pristine, store.live)
    outs = []
    for kind, args, want in store.plan:
        proc = subprocess.run(store.command(args, None), capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        cli_store.check_output(kind, out, want)
        outs.append((kind, out, want))
    return store, outs


def tampered(cli_outputs, index, changes):
    """An output with `changes` applied; None drops the last audit event."""
    kind, out, want = copy.deepcopy(cli_outputs[1][index])
    return kind, out[:-1] if changes is None else dict(out, **changes), want


@pytest.mark.parametrize("index,changes,match", [
    (0, {"status": "Reverted"}, "Success"),
    (0, {"block_height": 1}, "Success"),
    (0, {"created_id": "00" * 32}, "created_id"),
    (1, {"executions": 0}, "state"),
    (3, {"passes": 0}, "pass count"),
    (5, None, "audit"),
    (6, {"amount": 1}, "compensation"),
    (7, {"leaf": "00" * 32}, "leaf"),
    (7, {"merkle_root": "00" * 32}, "Merkle root"),
    (7, {"siblings": [{"hash": "00" * 32, "sibling_on_right": True}]}, "Merkle root"),
])
def test_cli_rejects_tampered_output(cli_outputs, index, changes, match):
    kind, out, want = tampered(cli_outputs, index, changes)
    with pytest.raises(CheckError, match=match):
        cli_store.check_output(kind, out, want)


def test_cli_rejects_failed_command(cli_outputs):
    store = cli_outputs[0]
    store = copy.copy(store)
    store.plan = [("query", ["query", "case", "00" * 32], {})]
    with pytest.raises(CheckError, match="exited 2"):
        cli_store.run(store, 0, None)
