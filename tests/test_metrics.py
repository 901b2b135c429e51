"""Trace analysis arithmetic and configuration sweeps."""

import csv
import io
import json

import pytest

from testingplus.metrics import (
    CSV_HEADER,
    LatencyStats,
    SweepSpec,
    _latency_stats,
    analyze,
    run_sweep,
)
from testingplus.codec import InputError
from testingplus.sim import SimScenario, SimTrace, run_simulation


def base_scenario(**overrides):
    d = {
        "seed": 11,
        "n_validators": 4,
        "latency": [1, 2],
        "drop_probability": 0.0,
        "accounts": [1000],
        "max_ticks": 500,
        "workload": [
            {"tick": 1 + 10 * i, "sender": 0, "op": "deploy_customer_agreement"}
            for i in range(10)
        ],
    }
    d.update(overrides)
    return d


@pytest.fixture(scope="module")
def trace():
    return run_simulation(SimScenario.from_dict(base_scenario()))


class TestLatencyStats:
    def test_empty(self):
        assert _latency_stats([]) == LatencyStats()

    def test_single_sample(self):
        s = _latency_stats([7])
        assert (s.min, s.median, s.p95, s.max, s.count) == (7, 7, 7, 7, 1)

    def test_even_count_median_averages(self):
        s = _latency_stats([1, 3, 5, 7])
        assert s.median == 4.0

    def test_p95_is_ceil_index(self):
        samples = list(range(1, 101))  # p95 of 1..100 -> 95th value
        assert _latency_stats(samples).p95 == 95
        assert _latency_stats([1, 2, 3]).p95 == 3

    def test_order_independent(self):
        assert _latency_stats([5, 1, 9]) == _latency_stats([9, 5, 1])


class TestAnalyze:
    def test_counts_and_closure(self, trace):
        r = analyze(trace)
        assert r.submitted == 10
        assert r.committed + r.uncommitted == r.submitted
        assert not r.truncated
        assert r.uncommitted == 0

    def test_throughput_arithmetic(self, trace):
        r = analyze(trace)
        assert r.throughput_per_1000_ticks == r.committed * 1000 / 500
        assert r.throughput_per_1000_ticks == 20.0

    def test_latency_bounds_sane(self, trace):
        r = analyze(trace)
        assert r.latency.count == r.committed
        assert 1 <= r.latency.min <= r.latency.median <= r.latency.p95 <= r.latency.max

    def test_messages_counted(self, trace):
        r = analyze(trace)
        assert r.messages_sent == sum(1 for e in trace.events if e["type"] == "msg")
        assert r.messages_sent > 0

    def test_state_bytes_is_max_over_nodes(self, trace):
        r = analyze(trace)
        assert r.state_bytes == max(n["state_bytes"] for n in trace.summary["nodes"])

    def test_per_node_rows(self, trace):
        r = analyze(trace)
        assert [n["node"] for n in r.per_node] == [0, 1, 2, 3]
        assert all(not n["crashed"] for n in r.per_node)

    def test_empty_workload(self):
        t = run_simulation(SimScenario.from_dict(base_scenario(workload=[], max_ticks=200)))
        r = analyze(t)
        assert (r.submitted, r.committed, r.uncommitted) == (0, 0, 0)
        assert r.throughput_per_1000_ticks == 0.0
        assert r.latency == LatencyStats()

    def test_pure_function_of_trace(self, trace, tmp_path):
        trace.write(tmp_path / "trace.jsonl")
        reread = SimTrace.read(tmp_path / "trace.jsonl")
        assert analyze(reread).to_dict() == analyze(trace).to_dict()

    def test_json_round_trips(self, trace):
        d = json.loads(json.dumps(analyze(trace).to_dict()))
        assert d["submitted"] == 10
        assert d["scenario_digest"] == trace.events[0]["digest"]

    def test_headerless_trace_rejected(self):
        with pytest.raises(InputError):
            analyze(SimTrace([{"type": "summary", "truncated": False, "max_ticks": 1, "nodes": []}]))
        with pytest.raises(InputError, match="summary"):
            analyze(SimTrace([{"type": "scenario", "digest": "00" * 32}]))


class TestSweep:
    def spec_dict(self, **overrides):
        d = {
            "base": base_scenario(max_ticks=300, workload=[
                {"tick": 1 + 10 * i, "sender": 0, "op": "deploy_customer_agreement"}
                for i in range(4)
            ]),
            "axis": "n_validators",
            "values": [1, 4, 8],
            "repetitions": 2,
        }
        d.update(overrides)
        return d

    def test_unknown_axis_rejected(self):
        with pytest.raises(InputError, match=r"^axis: must be one of n_validators, "
                                            r"drop_probability, workload_interval, not 'block_size'$"):
            SweepSpec.from_dict(self.spec_dict(axis="block_size"))

    def test_empty_values_rejected(self):
        with pytest.raises(InputError, match=r"^values: must be a non-empty list, not \[\]$"):
            SweepSpec.from_dict(self.spec_dict(values=[]))

    @pytest.mark.parametrize("values", ["14", {"1": 0, "4": 0}, 4, None])
    def test_values_must_be_a_json_list(self, values):
        with pytest.raises(InputError, match="^values: must be a JSON list, not "):
            SweepSpec.from_dict(self.spec_dict(values=values))

    @pytest.mark.parametrize("base", [[["seed", 7]], "seed", None])
    def test_base_must_be_a_json_object(self, base):
        with pytest.raises(InputError, match="^base: must be a JSON object, not "):
            SweepSpec.from_dict(self.spec_dict(base=base))

    def test_derived_seeds_distinct_per_cell(self):
        spec = SweepSpec.from_dict(self.spec_dict())
        seeds = {spec.derived_seed(v, r) for v in spec.values for r in range(2)}
        assert len(seeds) == 6

    def test_row_cardinality_and_schema(self):
        spec = SweepSpec.from_dict(self.spec_dict())
        rows = list(csv.reader(io.StringIO(run_sweep(spec))))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 3 * 2
        for row in rows[1:]:
            assert len(row) == len(CSV_HEADER)
            assert row[4] == "ok"
            assert int(row[6]) + int(row[7]) == int(row[5])  # committed+uncommitted

    def test_axis_values_in_spec_order(self):
        spec = SweepSpec.from_dict(self.spec_dict(repetitions=1))
        rows = list(csv.reader(io.StringIO(run_sweep(spec))))[1:]
        assert [r[1] for r in rows] == ["1", "4", "8"]

    def test_rerun_is_identical(self):
        spec = SweepSpec.from_dict(self.spec_dict(values=[1, 4], repetitions=1))
        assert run_sweep(spec) == run_sweep(spec)

    def test_workload_interval_axis_respaces_submissions(self):
        spec = SweepSpec.from_dict(self.spec_dict(axis="workload_interval", values=[5, 40]))
        s = spec.scenario_for(40, 0)
        assert [e["tick"] for e in s.workload] == [1, 41, 81, 121]

    def test_drop_probability_axis(self):
        spec = SweepSpec.from_dict(self.spec_dict(axis="drop_probability", values=[0.0, 0.1]))
        assert spec.scenario_for(0.1, 0).drop_probability == 0.1

    def test_broken_cell_becomes_error_row(self):
        spec = SweepSpec.from_dict(self.spec_dict(axis="drop_probability", values=[0.0, 2.0],
                                                  repetitions=1))
        rows = list(csv.reader(io.StringIO(run_sweep(spec))))[1:]
        assert rows[0][4] == "ok"
        assert rows[1][4].startswith("error:")

    # (axis, value, the rule the case breaks, which names it, and the message)
    BAD_AXIS_VALUES = [
        ("n_validators", 4.9, "n_validators must be a non-negative integer, not 4.9",
         "n_validators: must be a positive integer below 2**64, not 4.9"),
        ("n_validators", True, "n_validators must be a non-negative integer, not True",
         "n_validators: must be a positive integer below 2**64, not True"),
        ("n_validators", "4", "n_validators must be a non-negative integer, not '4'",
         "n_validators: must be a positive integer below 2**64, not '4'"),
        ("drop_probability", "0.1", "drop_probability must be a number, not '0.1'",
         "drop_probability: must be a number in [0, 1], not '0.1'"),
        ("drop_probability", True, "drop_probability must be a number, not True",
         "drop_probability: must be a number in [0, 1], not True"),
        ("workload_interval", 2.5, "workload_interval must be a positive integer, not 2.5",
         "workload_interval: must be a positive integer below 2**64, not 2.5"),
        ("workload_interval", True, "workload_interval must be a positive integer, not True",
         "workload_interval: must be a positive integer below 2**64, not True"),
        ("workload_interval", 0, "workload_interval must be a positive integer, not 0",
         "workload_interval: must be a positive integer below 2**64, not 0"),
    ]

    @pytest.mark.parametrize("axis,value,rule,message", BAD_AXIS_VALUES,
                             ids=[f"{a}-{v}-{rule}" for a, v, rule, _ in BAD_AXIS_VALUES])
    def test_axis_value_is_judged_as_given(self, axis, value, rule, message):
        spec = SweepSpec.from_dict(self.spec_dict(axis=axis, values=[value], repetitions=1))
        rows = list(csv.reader(io.StringIO(run_sweep(spec))))[1:]
        assert rows[0][4] == f"error: {message}"

    @pytest.mark.parametrize("axis,value", [("n_validators", 4), ("drop_probability", 0.0)])
    def test_bad_base_crash_fault_is_judged_on_every_axis(self, axis, value):
        spec = self.spec_dict(axis=axis, values=[value], repetitions=1)
        spec["base"]["crash_faults"] = [{"node": "1", "tick": 5}]
        rows = list(csv.reader(io.StringIO(run_sweep(SweepSpec.from_dict(spec)))))[1:]
        assert rows[0][4] == (
            "error: crash_faults[0].node: must be a non-negative integer below 2**64, not '1'")

    @pytest.mark.parametrize("axis,value", [("workload_interval", 10), ("drop_probability", 0.1)])
    @pytest.mark.parametrize("workload,message", [
        ([1], "workload[0]: must be a JSON object, not 1"),
        (5, "workload: must be a JSON list, not 5"),
    ], ids=["entry-not-object", "not-list"])
    def test_bad_base_workload_is_judged_on_every_axis(self, axis, value, workload, message):
        spec = self.spec_dict(axis=axis, values=[value])
        spec["base"]["workload"] = workload
        rows = list(csv.reader(io.StringIO(run_sweep(SweepSpec.from_dict(spec)))))[1:]
        assert [r[4] for r in rows] == [f"error: {message}"] * 2  # in every repetition

    @pytest.mark.parametrize("seed", [4.9, True, "7", "x", -1, None])
    def test_base_seed_must_be_a_u64(self, seed):
        spec = self.spec_dict()
        spec["base"]["seed"] = seed
        with pytest.raises(InputError,
                           match=r"^base\.seed: must be a non-negative integer below 2\*\*64, not "):
            SweepSpec.from_dict(spec)

    @pytest.mark.parametrize("repetitions", [1.7, True, 0, -1, "2", None])
    def test_repetitions_must_be_a_positive_integer(self, repetitions):
        with pytest.raises(InputError,
                           match=r"^repetitions: must be a positive integer below 2\*\*64, not "):
            SweepSpec.from_dict(self.spec_dict(repetitions=repetitions))


def test_report_json_is_pinned():
    from testingplus.metrics import LatencyStats, MetricsReport

    report = MetricsReport("d1", 300, 5, 4, 1, 13.5, LatencyStats(2, 3.5, 7, 9, 4), 6.25, 120,
                           900, True, [{"node": 0}])
    assert json.dumps(report.to_dict(), sort_keys=True) == (
        '{"block_interval_mean": 6.25, "committed": 4, "latency_max": 9, "latency_median": 3.5, '
        '"latency_min": 2, "latency_p95": 7, "messages_sent": 120, "per_node": [{"node": 0}], '
        '"scenario_digest": "d1", "state_bytes": 900, "submitted": 5, '
        '"throughput_per_1000_ticks": 13.5, "total_ticks": 300, "truncated": true, '
        '"uncommitted": 1}'
    )
