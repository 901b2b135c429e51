"""A trace has one form, whichever way it was made: a run records each msg
event as a row, not a dict, and `SimTrace.read` gives the same rows back.
The row is written as `json.dumps(its dict, sort_keys=True)` writes the
dict, `events` is a view of it as that dict, and `analyze` counts it from
the row alone."""

import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import conftest
from testingplus.cli import main
from testingplus.codec import InputError
from testingplus.consensus import Commit, Propose, Status, TxGossip, Vote
from testingplus.metrics import analyze
from testingplus.sim import SimScenario, SimTrace, run_simulation

from conftest import ROOT_KEYS, TraceDigests, fixture_hex, masked_digest
from test_golden_runs import PINNED_SCENARIOS, SIM_SCENARIO

KINDS = [m.kind for m in (Propose, Vote, Commit, TxGossip, Status)]
OUTCOMES = ["ok", "drop", "crashed", "blocked"]
# ticks, node ids and arrival ticks, far past anything a run reaches too
NUMBERS = st.integers(0, 2**64) | st.integers(0, 2**200)
MSG_ROWS = st.lists(st.tuples(NUMBERS, NUMBERS, NUMBERS, st.sampled_from(KINDS),
                              st.sampled_from(OUTCOMES), NUMBERS), min_size=1, max_size=8)


def as_row(t, src, dst, kind, out, at):
    return (t, src, dst, kind, out, None if out == "blocked" else at)


def as_dict(t, src, dst, kind, out, at):
    event = {"type": "msg", "t": t, "src": src, "dst": dst, "kind": kind, "out": out}
    if out != "blocked":
        event["at"] = at
    return event


@given(MSG_ROWS)
def test_msg_rows_render_as_their_dicts(drawn):
    rows = [as_row(*row) for row in drawn]
    events = [as_dict(*row) for row in drawn]
    trace = SimTrace(list(rows))
    assert trace.to_text() == "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
    assert trace.events == events


@given(MSG_ROWS)
def test_msg_rows_read_back_as_themselves(drawn):
    trace = SimTrace([{"type": "scenario", "seed": 1}] + [as_row(*row) for row in drawn])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.jsonl"
        trace.write(path)
        back = SimTrace.read(path)
        assert back.rows == trace.rows
        assert back.to_text() == path.read_text()


def test_a_faulted_trace_reads_back_as_its_events(tmp_path):
    trace = run_simulation(SimScenario.from_dict(PINNED_SCENARIOS["fault_n4_isolate1_crash3"]))
    assert any(type(row) is tuple for row in trace.rows)
    report = analyze(trace)
    sent = Counter(e["src"] for e in trace.events if e["type"] == "msg")
    assert [n["messages_sent"] for n in report.per_node] == [sent[i] for i in range(4)]
    path = tmp_path / "trace.jsonl"
    trace.write(path)
    back = SimTrace.read(path)
    assert back.rows == trace.rows
    assert analyze(back) == report
    assert back.events == trace.events
    assert {e["out"] for e in back.events if e["type"] == "msg"} == set(OUTCOMES)
    assert back.to_text() == path.read_text()


@pytest.mark.parametrize("name", ["golden"] + sorted(PINNED_SCENARIOS))
def test_every_pinned_trace_reads_back_as_its_rows(tmp_path, name):
    raw = SIM_SCENARIO if name == "golden" else PINNED_SCENARIOS[name]
    trace = run_simulation(SimScenario.from_dict(raw))
    path = tmp_path / "trace.jsonl"
    trace.write(path)
    back = SimTrace.read(path)
    assert back.rows == trace.rows
    assert analyze(back) == analyze(trace)


def test_reading_events_leaves_rows_and_text_as_they_were():
    trace = run_simulation(SimScenario.from_dict(PINNED_SCENARIOS["fault_n4_isolate1_crash3"]))
    rows, text = list(trace.rows), trace.to_text()
    events = trace.events
    assert all(now is before for now, before in zip(trace.rows, rows))
    assert len(trace.rows) == len(rows) == len(events)
    assert trace.to_text() == text
    assert trace.events == events and trace.events is not events


MSG = {"type": "msg", "t": 4, "src": 0, "dst": 1, "kind": "vote", "out": "ok", "at": 6}
BLOCKED = {"type": "msg", "t": 4, "src": 0, "dst": 1, "kind": "vote", "out": "blocked"}


def _without(event, key):
    return {k: v for k, v in event.items() if k != key}


@pytest.mark.parametrize("line", [
    "",
    "not json",
    "[1, 2]",
    '"msg"',
    "null",
    json.dumps(_without(MSG, "kind")),  # a field missing
    json.dumps(_without(MSG, "t")),
    json.dumps({**MSG, "via": 2}),  # a field the row has no place for
    json.dumps({**BLOCKED, "at": 6}),  # `at` on a blocked message
    json.dumps({**BLOCKED, "at": None}),
    json.dumps(_without(MSG, "at")),  # no `at` on any other
    json.dumps({**MSG, "t": "4"}),  # values no run writes
    json.dumps({**MSG, "src": True}),
    json.dumps({**MSG, "at": 6.5}),
    json.dumps({**MSG, "at": float("nan")}),
    json.dumps({**MSG, "at": float("inf")}),
    json.dumps({**MSG, "kind": 'a"b'}),
    json.dumps({**MSG, "out": 1}),
], ids=["blank", "not-json", "array", "string", "null", "no-kind", "no-t", "extra-field",
        "blocked-with-at", "blocked-with-null-at", "ok-without-at", "string-tick", "bool-src",
        "float-at", "nan-at", "infinite-at", "quoted-kind", "int-out"])
def test_a_line_no_run_writes_is_refused_by_its_number(tmp_path, line):
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(MSG) + "\n" + json.dumps(BLOCKED) + "\n" + line + "\n")
    with pytest.raises(InputError, match="^line 3: must be "):
        SimTrace.read(path)


def test_the_digests_mask_only_the_lines_that_hold_a_root_key(monkeypatch):
    trace = run_simulation(SimScenario.from_dict(PINNED_SCENARIOS["fault_n4_isolate1_crash3"]))
    lines = trace.to_text().splitlines()
    with_root = [line for line in lines if any(f'"{k}": ' in line for k in ROOT_KEYS)]
    assert 0 < len(with_root) < len(lines)
    every_line = hashlib.sha256("".join(
        json.dumps(conftest.masked(e), sort_keys=True) + "\n" for e in trace.events).encode())
    events_masked = []  # the top-level calls of `masked`: it calls itself on what an event holds
    masked = conftest.masked

    def counted(value):
        if isinstance(value, dict) and "type" in value:
            events_masked.append(value)
        return masked(value)

    monkeypatch.setattr(conftest, "masked", counted)
    digests = TraceDigests()
    digests.update(trace)
    assert len(events_masked) == len(with_root)
    assert digests.masked.digest() == every_line.digest() == masked_digest(trace)
    assert digests.full.digest() == hashlib.sha256(trace.to_text().encode()).digest()


def test_scenario_command_writes_the_pinned_trace(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SIM_SCENARIO))
    out = tmp_path / "trace.jsonl"
    assert main(["scenario", str(scenario), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).digest() == fixture_hex("sim_trace_digest.hex")
