"""Self-tests for the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py

The smoke tests run every workload end to end at a tiny size, where the
statistical checks are not expected to pass; they require every command,
manifest and determinism check to pass and every metric to be reported.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import (END_TO_END, PER_LAYER, TracedCommand,  # noqa: E402
                     estimated_overhead, per_layer)
from spans import (METRIC_NAME, METRIC_UNIT, Span, covered_length,  # noqa: E402
                   high_percentile, self_times)

LISTED = ("gp_saddle", "overlap_null")  # the workloads BENCHMARK.json names
WORKLOADS = ("gp_saddle", "mult_genome", "overlap_null")


def test_self_time_of_nested_spans():
    spans = [Span("cli.main", 0.0, 10.0, None),
             Span("gp.sweep", 1.0, 4.0, 0),
             Span("kernels.se_kernel", 2.0, 3.0, 1),
             Span("io.persist", 5.0, 6.5, 0)]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5])


def test_overlapping_children_are_covered_once():
    assert covered_length([(1, 4), (2, 5), (7, 8), (9, 12)], 0, 10) == pytest.approx(6.0)
    assert covered_length([], 0, 10) == 0.0


def test_per_layer_from_a_traced_command():
    dump = {"names": ["cli.main", "mult.MultChain.sweep", "mult.residual_matrix"],
            "spans": [[0, 1.0, 9.0, -1], [1, 2.0, 4.0, 0], [2, 2.5, 3.0, 1],
                      [1, 5.0, 7.0, 0], [2, 5.5, 6.0, 3], [2, 6.0, 6.5, 3]],
            "counters": {}, "t_imported": 1.0}
    cmd = TracedCommand.from_dump("main", 10.0, 0.0, dump)
    values = per_layer([cmd], n_passes=1, overhead_ratio=1.01)
    assert values["mult.residual_matrix_ms"] == pytest.approx(500.0)
    assert values["mult.residual_matrix_calls_per_sweep"] == pytest.approx(1.5)
    assert values["mult.self_s"] == pytest.approx(4.0)
    assert values["cli.self_s"] == pytest.approx(1.0 + 4.0)  # start-up plus main's own time
    assert values["cli.startup_s"] == pytest.approx(1.0)
    assert values["trace.main_named_share"] == pytest.approx(0.4)
    assert values["gp.sweep_ms"] == 0.0
    assert set(values) == {name for name, *_ in PER_LAYER}


def test_estimated_overhead_subtracts_span_costs():
    dump = {"names": ["cli.main", "gp.GpChain.sweep"],
            "spans": [[0, 1.0, 9.0, -1]] + [[1, 2.0 + i, 2.5 + i, 0] for i in range(4)],
            "counters": {}, "t_imported": 1.0, "span_cost_s": 0.25}
    setup = TracedCommand.from_dump("setup", 4.0, 0.0, dump)
    main = TracedCommand.from_dump("main", 10.0, 0.0, dump)
    assert estimated_overhead([setup, main]) == pytest.approx(10.0 / (10.0 - 5 * 0.25))
    assert estimated_overhead([]) == 1.0


def test_high_percentile_needs_ten_samples_beyond():
    assert high_percentile(list(range(10))) is None
    pct, value = high_percentile([float(i) for i in range(1, 101)])
    assert pct == 90 and value == 90.0
    assert high_percentile([float(i) for i in range(11)]) == (9, 0.0)


def test_metric_names_and_units():
    names = [name for name, *_ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better, *_ in END_TO_END + PER_LAYER:
        assert METRIC_NAME.match(name), name
        assert METRIC_UNIT.match(unit), unit
        assert better in ("lower", "higher")
    assert not METRIC_NAME.match("gp sweep") and not METRIC_NAME.match(".gp")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(LISTED)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(row) for row in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(row) for row in PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_at_tiny_size(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    table = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == {name for name, *_ in table}
    assert result["attempted"] >= 1
    broken = [line for line in lines if line.startswith("check FAIL")
              and line.split()[2].split(".")[0] in ("exit", "manifest", "determinism", "setup")]
    assert not broken, broken
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        layer = {"gp_saddle": "gp.sweep_ms", "mult_genome": "mult.residual_matrix_ms",
                 "overlap_null": "genomics.overlap_test_ms"}[workload]
        assert values[layer] > 0 and values["trace.overhead_ratio"] > 0
    else:
        assert all(v > 0 for v in values.values()), values


def test_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "gp_saddle",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
