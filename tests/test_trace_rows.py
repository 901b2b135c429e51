"""A run records each msg event as a row, not a dict: the row is written as
`json.dumps(its dict, sort_keys=True)` writes the dict, reads back as that
dict, and `analyze` counts it as it counts the dict."""

import hashlib
import json

from hypothesis import given, strategies as st

from testingplus.cli import main
from testingplus.consensus import Commit, Propose, Status, TxGossip, Vote
from testingplus.metrics import analyze
from testingplus.sim import SimScenario, SimTrace, run_simulation

from conftest import fixture_hex
from test_golden_runs import PINNED_SCENARIOS, SIM_SCENARIO

KINDS = [m.kind for m in (Propose, Vote, Commit, TxGossip, Status)]
OUTCOMES = ["ok", "drop", "crashed", "blocked"]
# ticks, node ids and arrival ticks, far past anything a run reaches too
NUMBERS = st.integers(0, 2**64) | st.integers(0, 2**200)


def as_dict(t, src, dst, kind, out, at):
    event = {"type": "msg", "t": t, "src": src, "dst": dst, "kind": kind, "out": out}
    if out != "blocked":
        event["at"] = at
    return event


@given(st.lists(st.tuples(NUMBERS, NUMBERS, NUMBERS, st.sampled_from(KINDS),
                          st.sampled_from(OUTCOMES), NUMBERS), min_size=1, max_size=8))
def test_msg_rows_render_as_their_dicts(drawn):
    rows = [(t, src, dst, kind, out, None if out == "blocked" else at)
            for t, src, dst, kind, out, at in drawn]
    events = [as_dict(*row) for row in drawn]
    trace = SimTrace(list(rows))
    assert trace.to_text() == "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
    assert trace.events == events


def test_a_faulted_trace_reads_back_as_its_events(tmp_path):
    trace = run_simulation(SimScenario.from_dict(PINNED_SCENARIOS["fault_n4_isolate1_crash3"]))
    assert any(type(row) is tuple for row in trace.rows)
    report = analyze(trace)  # over the rows, before `events` turns them into dicts
    path = tmp_path / "trace.jsonl"
    trace.write(path)
    back = SimTrace.read(path)
    assert all(type(e) is dict for e in back.rows)
    assert analyze(back) == report
    assert back.events == trace.events
    assert {e["out"] for e in back.events if e["type"] == "msg"} == set(OUTCOMES)
    assert back.to_text() == path.read_text()


def test_scenario_command_writes_the_pinned_trace(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SIM_SCENARIO))
    out = tmp_path / "trace.jsonl"
    assert main(["scenario", str(scenario), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).digest() == fixture_hex("sim_trace_digest.hex")
